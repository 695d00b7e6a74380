"""Normal-form monomials of crossing weights and their evaluation.

Every crossing j of a braid carries three letters a_j, b_j, c_j subject to
q-commutation rules that depend on the crossing sign; letters at distinct
crossings commute. Each monomial is kept permanently in normal form: an
exponent key recording, per crossing, the letter multiplicities
(s, r, d) = (#b, #c, #a) in the order b^s c^r a^d, plus a Laurent
coefficient that absorbs every q-power produced by reordering.

Keys are flat tuples (s_1, r_1, d_1, ..., s_k, r_k, d_k). A WalkSum is a
canonical map key -> coefficient; merging like keys is exact because the
color evaluation of a monomial is its coefficient times a function of the
key alone.

The two operations of the colored Jones height loop live here:
evaluate_walk_sum evaluates with Kronecker-packed integers (q = 2^B), and
multiply_walk_sums with pruning skips, by crossing bitmasks, the pairs
that the duplicate-reduction filter would drop before the kernel sees them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import kernels
from .laurent import LaurentPolynomial

_LETTER_SLOT = {"b": 0, "c": 1, "a": 2}

# Most pairs per kernel call when the output is merged into a running sum.
_MERGE_PAIRS = 1024


def zero_key(crossings: int) -> tuple[int, ...]:
    """The key of the empty word on a braid with the given crossing count."""
    return (0,) * (3 * crossings)


def letter_key(crossings: int, crossing: int, kind: str) -> tuple[int, ...]:
    """The key of a single letter ('a', 'b' or 'c') at a 1-based crossing."""
    if not 1 <= crossing <= crossings:
        raise ValueError(f"crossing {crossing} out of range 1..{crossings}")
    key = [0] * (3 * crossings)
    key[3 * (crossing - 1) + _LETTER_SLOT[kind]] = 1
    return tuple(key)


@dataclass(frozen=True)
class KeyedMonomial:
    """A normal-form monomial: coefficient times the word encoded by key."""

    key: tuple[int, ...]
    coeff: LaurentPolynomial


class WalkSum:
    """Canonical key -> coefficient map; zero coefficients are never stored."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[tuple[int, ...], LaurentPolynomial] | None = None):
        self.entries: dict[tuple[int, ...], LaurentPolynomial] = {}
        if entries:
            for key, coeff in entries.items():
                if coeff:
                    self.entries[key] = coeff

    @classmethod
    def _raw(cls, entries: dict) -> "WalkSum":
        ws = cls.__new__(cls)
        ws.entries = entries
        return ws

    @classmethod
    def zero(cls) -> "WalkSum":
        return cls._raw({})

    @classmethod
    def single(cls, key: tuple[int, ...], coeff: LaurentPolynomial) -> "WalkSum":
        return cls._raw({key: coeff} if coeff else {})

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WalkSum):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {c}" for k, c in sorted(self.entries.items()))
        return f"WalkSum({{{inner}}})"

    def add_into(self, key: tuple[int, ...], coeff: LaurentPolynomial) -> None:
        """Accumulate one monomial (mutating; used while building sums)."""
        cur = self.entries.get(key)
        if cur is None:
            if coeff:
                self.entries[key] = coeff
            return
        total = cur + coeff
        if total:
            self.entries[key] = total
        else:
            del self.entries[key]

    def merged_with(self, other: "WalkSum") -> "WalkSum":
        out = dict(self.entries)
        result = WalkSum._raw(out)
        for key, coeff in other.entries.items():
            result.add_into(key, coeff)
        return result

    def scaled(self, factor: LaurentPolynomial) -> "WalkSum":
        if not factor:
            return WalkSum.zero()
        return WalkSum._raw({k: c * factor for k, c in self.entries.items()})

    def filtered(self, n: int) -> "WalkSum":
        """Entries whose keys survive drl_keep(key, n)."""
        keep = kernels.active().drl_keep
        return WalkSum._raw({k: c for k, c in self.entries.items() if keep(k, n)})

    def _items(self) -> list:
        # Raw (key, coefficient dict) view for the kernels.
        return [(k, c.terms) for k, c in self.entries.items()]


def mono_mul(left: KeyedMonomial, right: KeyedMonomial, signs: tuple[int, ...]) -> KeyedMonomial:
    """Product of two normal-form monomials over the same braid."""
    key, delta = kernels.active().key_product(left.key, right.key, signs)
    coeff = (left.coeff * right.coeff).shift(delta)
    return KeyedMonomial(key, coeff)


def drl_keep(key: tuple[int, ...], n: int) -> bool:
    """Duplicate-reduction filter: discard keys with (#a + max(#b, #c)) >= n
    at any crossing. At n = 2 the survivors are exactly the simple walks."""
    if n < 1:
        raise ValueError(f"color must be >= 1, got {n}")
    return kernels.active().drl_keep(key, n)


def evaluate_monomial(mono: KeyedMonomial, signs: tuple[int, ...], n: int) -> LaurentPolynomial:
    """Color-n evaluation of one normal-form monomial (see evaluate_walk_sum)."""
    return evaluate_walk_sum(WalkSum.single(mono.key, mono.coeff), signs, n)


def evaluate_walk_sum(ws: WalkSum, signs: tuple[int, ...], n: int) -> LaurentPolynomial:
    """Color-n evaluation of a walk sum (additive over monomials).

    Per positive crossing with counts (s, r, d) a word contributes
    q^(r(n-1-d)) * prod_{h<d} (1 - q^(n-1-r-h)); per negative crossing
    q^(-r(n-1)) * prod_{l<d} (1 - q^(r+l+1-n)). The s counts contribute
    nothing. A monomial evaluates to its coefficient times the product over
    crossings; some factor is (1 - q^0) = 0 exactly when r < n <= r + d at
    a crossing with d > 0.

    The arithmetic is Kronecker-packed: a Laurent polynomial q^E * sum_i
    c_i q^i is held as the integer sum_i c_i 2^(B*i) together with its base
    exponent E, so multiplying by (1 - q^e) is one shift and one subtract,
    P - (P << B*e) for e > 0 and (P << B*(-e)) - P with E lowered by -e for
    e < 0. Packed monomials are added per base exponent, the sums are
    shifted to the lowest base and added into one integer, and that integer
    is decoded once into signed B-bit digits.

    Packing at q = 2^B is a ring homomorphism, so the arithmetic is exact
    for any B; B only has to make the final digits decodable. Each factor
    (1 - q^e) at most doubles the sum of absolute coefficients, so with #a
    the a-count of a key every digit of every intermediate value and of the
    result is at most X = sum over entries of (sum |c|) * 2^(#a) in absolute
    value. B = X.bit_length() + 2 gives |digit| <= X < 2^(B-2), inside the
    signed range (-2^(B-1), 2^(B-1)). The evaluation streams over the
    entries twice, once for B and once to pack, and keeps one packed sum
    per base exponent, nothing per entry.
    """
    if n < 1:
        raise ValueError(f"color must be >= 1, got {n}")
    width = 3 * len(signs)
    bound = 0
    for key, coeff in ws.entries.items():
        if len(key) != width:
            raise ValueError(f"key length {len(key)} does not match {len(signs)} crossings")
        bound += sum(map(abs, coeff.terms.values())) << sum(key[2::3])
    bits = bound.bit_length() + 2
    top = n - 1
    slots = [(3 * j + 1, sign > 0) for j, sign in enumerate(signs)]
    by_base: dict[int, int] = {}
    for key, coeff in ws.entries.items():
        terms = coeff.terms
        base = min(terms)
        packed = 0
        for e, c in terms.items():
            packed += c << bits * (e - base)
        for i, positive in slots:
            r = key[i]
            d = key[i + 1]
            if not d:
                if r:
                    base += r * top if positive else -r * top
                continue
            if r < n <= r + d:
                break
            if positive:
                base += r * (top - d)
                e, step = top - r, -1
            else:
                base -= r * top
                e, step = r - top, 1
            for _ in range(d):
                if e > 0:
                    packed -= packed << bits * e
                else:
                    packed = (packed << bits * -e) - packed
                    base += e
                e += step
        else:
            by_base[base] = by_base.get(base, 0) + packed
    low = min(by_base, default=0)
    total = 0
    for base, packed in by_base.items():
        total += packed << bits * (base - low)
    out: dict[int, int] = {}
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    e = low
    while total:
        digit = total & mask
        if digit >= half:
            digit -= mask + 1
        if digit:
            out[e] = digit
        total = (total - digit) >> bits
        e += 1
    return LaurentPolynomial._raw(out)


def kernel_product(a: WalkSum, b: WalkSum, signs: tuple[int, ...], n_limit: int = 0) -> WalkSum:
    """All pairwise products of two walk sums in one kernel call; n_limit > 0
    discards products failing drl_keep(key, n_limit), 0 keeps every one."""
    if not a.entries or not b.entries:
        return WalkSum.zero()
    raw = kernels.active().walk_products(a._items(), b._items(), signs, n_limit)
    return WalkSum._raw({k: LaurentPolynomial._raw(c) for k, c in raw.items()})


def _sum_products(x: dict, y: dict) -> dict:
    """Sum of two fresh kernel outputs ({key: coefficient dict}), built in
    the larger one so that only the smaller is copied."""
    if len(x) < len(y):
        x, y = y, x
    for key, coeff in y.items():
        acc = x.get(key)
        if acc is None:
            x[key] = coeff
            continue
        for e, v in coeff.items():
            v += acc.get(e, 0)
            if v:
                acc[e] = v
            else:
                del acc[e]
        if not acc:
            del x[key]
    return x


def multiply_walk_sums(
    a: WalkSum,
    b: WalkSum,
    signs: tuple[int, ...],
    n: int = 0,
) -> WalkSum:
    """Pairwise product a * b of two walk sums, accumulated into canonical form.

    With n > 0, any product whose key fails drl_keep(key, n) is
    discarded before accumulation (sound because the filter is monotone
    under adding letters), and doomed pairs are skipped before the kernel
    sees them. Call a crossing of a right entry saturated when
    d + max(s, r) >= n - 1 there. Adding an a letter to a saturated
    crossing raises d; adding a b raises max(s, r) when s >= r; adding a c
    raises it when r >= s. Either way the product reaches n and DRL drops
    it. So each right entry gets a signature of three crossing masks
    (saturated, saturated with s >= r, saturated with r >= s), and is
    paired only with the left entries having no a, b or c letter on the
    respective mask. Right entries whose signatures admit the same left
    entries form one batch, sent to the kernel together; the kernel still
    applies DRL to every pair it gets. When every left entry is a simple
    walk (at most one a, or at most one b and one c, per crossing) and
    every right entry passes drl_keep(key, n), a pair passes the masks
    exactly when DRL keeps it.
    """
    if n == 0:
        return kernel_product(a, b, signs)  # n = 0 sets no DRL limit
    lefts = []
    for key, coeff in a.entries.items():
        ma = mb = mc = 0
        bit = 1
        for j in range(0, len(key), 3):
            if key[j]:
                mb |= bit
            if key[j + 1]:
                mc |= bit
            if key[j + 2]:
                ma |= bit
            bit <<= 1
        lefts.append((ma, mb, mc, (key, coeff.terms)))
    top = n - 1
    batch_of: dict[tuple[int, int, int], list | None] = {}
    batches: dict[tuple[int, ...], list] = {}
    for key, coeff in b.entries.items():
        fa = fb = fc = 0
        bit = 1
        for j in range(0, len(key), 3):
            s = key[j]
            r = key[j + 1]
            if key[j + 2] + (s if s > r else r) >= top:
                fa |= bit
                if s >= r:
                    fb |= bit
                if r >= s:
                    fc |= bit
            bit <<= 1
        signature = (fa, fb, fc)
        if signature in batch_of:
            batch = batch_of[signature]
        else:
            sent = tuple(i for i, (ma, mb, mc, _) in enumerate(lefts) if not (ma & fa or mb & fb or mc & fc))
            batch = batch_of[signature] = batches.setdefault(sent, []) if sent else None
        if batch is not None:
            batch.append((key, coeff.terms))
    walk_products = kernels.active().walk_products
    out: dict = {}
    # The largest batch goes first and its output becomes the sum. Later
    # outputs mostly repeat keys already in the sum and are held in full
    # until merged, so later batches go in calls of at most _MERGE_PAIRS
    # pairs to bound that duplicate memory.
    for sent, rights in sorted(batches.items(), key=lambda batch: -len(batch[0]) * len(batch[1])):
        items = [lefts[i][3] for i in sent]
        step = max(1, _MERGE_PAIRS // len(items)) if out else len(rights)
        for start in range(0, len(rights), step):
            out = _sum_products(out, walk_products(items, rights[start:start + step], signs, n))
    for k, c in out.items():
        out[k] = LaurentPolynomial._raw(c)
    return WalkSum._raw(out)
