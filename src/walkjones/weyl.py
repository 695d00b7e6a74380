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

The two operations of the colored Jones height loop live here, both on
Python integers. A coefficient is Kronecker-packed: its value at q = 2^B
with a base exponent, B chosen from a bound on the result so that its
signed B-bit digits decode exactly (_pack and _unpack). evaluate_walk_sum
applies each evaluation factor as a shift and a subtract. For any
duplicate-reduction (DRL) limit, multiply_walk_sums also packs each key
into one integer of fixed-width fields (d+s, d+r, d) per crossing, so that
a key product is one add and the DRL test one add and one AND against the
top bit of every field; a coefficient product is one integer multiply.
"""
from __future__ import annotations

from dataclasses import dataclass
from struct import Struct
from typing import Mapping

from . import kernels
from .laurent import LaurentPolynomial

_LETTER_SLOT = {"b": 0, "c": 1, "a": 2}

# Little-endian struct code per packed key field width in bits.
_KEY_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


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
        packed, base = _pack(coeff.terms, bits)
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
    return LaurentPolynomial._raw(_unpack(total, bits, low))


def _pack(terms: dict[int, int], bits: int) -> tuple[int, int]:
    """A nonzero coefficient dict at q = 2^bits: (sum of c << bits * (e - base),
    base), with base its lowest exponent."""
    base = min(terms)
    packed = 0
    for e, c in terms.items():
        packed += c << bits * (e - base)
    return packed, base


def _unpack(packed: int, bits: int, base: int) -> dict[int, int]:
    """Inverse of _pack: the signed bits-bit digits of packed as a coefficient
    dict from exponent base up. Exact when every coefficient is below
    2^(bits-1) in absolute value."""
    out: dict[int, int] = {}
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    while packed:
        digit = packed & mask
        if digit >= half:
            digit -= mask + 1
        if digit:
            out[base] = digit
        packed = (packed - digit) >> bits
        base += 1
    return out


def kernel_product(a: WalkSum, b: WalkSum, signs: tuple[int, ...], n_limit: int = 0) -> WalkSum:
    """All pairwise products of two walk sums in one kernel call; n_limit > 0
    discards products failing drl_keep(key, n_limit), 0 keeps every one."""
    if not a.entries or not b.entries:
        return WalkSum.zero()
    raw = kernels.active().walk_products(a._items(), b._items(), signs, n_limit)
    return WalkSum._raw({k: LaurentPolynomial._raw(c) for k, c in raw.items()})


def _reorder_form(sign: int) -> tuple[tuple[int, ...], ...]:
    """The q-power of key_product at one crossing of the given sign is
    sum(ka[u] * form[u][t] * kb[t]) over the three slots u, t: it is
    bilinear in the two keys, so the kernel on unit keys gives the form."""
    key_product = kernels.active().key_product
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return tuple(tuple(key_product(u, t, (sign,))[1] for t in units) for u in units)


# The reordering form per crossing, keyed by whether its sign is positive.
_REORDER_FORMS = {True: _reorder_form(1), False: _reorder_form(-1)}


def _delta_terms(key: tuple[int, ...], forms: list) -> list[tuple[int, int]]:
    """The (index, c) pairs with key_product(key, kb)'s q-power equal to
    sum(c * kb[index]) for every kb; forms[j] is crossing j's reordering form."""
    terms = []
    for j, form in enumerate(forms):
        i = 3 * j
        s, r, d = key[i:i + 3]
        if s or r or d:
            for t, (x, y, z) in enumerate(zip(*form)):
                c = s * x + r * y + d * z
                if c:
                    terms.append((i + t, c))
    return terms


def multiply_walk_sums(
    a: WalkSum,
    b: WalkSum,
    signs: tuple[int, ...],
    n: int = 0,
) -> WalkSum:
    """Pairwise product a * b of two walk sums, accumulated into canonical form.

    With n > 0 any product whose key fails drl_keep(key, n) is discarded
    (sound because the filter is monotone under adding letters). n = 0 sets
    no DRL limit: it runs as a limit one above any field a sum can reach
    (see W below), so the DRL test and the prefilter below never fire.

    Key layout. A key is read as one integer of 3k fields, W bits each, in
    key order, and then moved to fields (d+s, d+r, d) per crossing by adding
    the d fields shifted down one and two fields. The move is linear, so the
    product key is one add, Ka + Kb. Since d + max(s, r) >= n holds exactly
    when d+s >= n or d+r >= n, DRL drops the product iff some field of
    Ka + Kb reaches n: with GUARD the top bit of every field and BIAS
    2^(W-1) - n in every field, that is (Ka + Kb + BIAS) & GUARD != 0. W is
    the least of 8, 16, 32, 64 that keeps n and twice the sum of the
    largest counts of a and b, a bound on every field of a sum, below
    2^(W-1), so no field carries into the next.

    Saturation prefilter, from the same guard bits: the signature of a right
    entry marks its fields that are at least n - 1, the mask of a left entry
    its fields that are at least 1, and a left is paired with a right only
    when the two share no field. Doomed pairs are skipped this way without
    a key add; the admitted lefts are listed once per signature.

    Coefficients. The q-power of reordering is bilinear in the two keys; its
    3 x 3 form per crossing sign is read off the kernel's key_product on unit
    keys, and each left gets its (index, c) list the first time it is
    admitted. A coefficient is held as its value at q = 2^B with its own
    base exponent, so a coefficient product is one integer multiply; each
    output key keeps the lowest base of its contributions. For a fixed left
    entry distinct right entries give distinct keys, so every digit of an
    output coefficient is at most X = (sum over a of sum |c|) * (max over b
    of sum |c|) in absolute value, and B = X.bit_length() + 2 keeps it
    inside the signed digit range (as in evaluate_walk_sum). The packed
    sums are decoded, and released, one key at a time.
    """
    if n < 0:
        raise ValueError(f"DRL limit must be >= 0, got {n}")
    if not a.entries or not b.entries:
        return WalkSum.zero()
    k = len(signs)
    length = 3 * k
    if {length} != set(map(len, a.entries)) | set(map(len, b.entries)):
        raise ValueError(f"key lengths do not match {k} crossings")
    left_sum = sum(sum(map(abs, coeff.terms.values())) for coeff in a.entries.values())
    right_sum = max(sum(map(abs, coeff.terms.values())) for coeff in b.entries.values())
    bits = (left_sum * right_sum).bit_length() + 2
    top = 2 * (max(map(max, a.entries)) + max(map(max, b.entries))) if k else 0
    n = n or top + 1
    width = next((w for w in _KEY_CODES if max(top, n) < 1 << (w - 1)), None)
    if width is None:
        raise OverflowError(f"letter counts or DRL limit {n} too large to pack")
    packer = Struct(f"<{length}{_KEY_CODES[width]}")
    width2 = 2 * width
    unit = int.from_bytes(packer.pack(*[1] * length), "little")
    guard = unit << (width - 1)
    d_fields = int.from_bytes(packer.pack(*(0, 0, (1 << width) - 1) * k), "little")
    bias = guard - n * unit
    saturated = bias + unit
    nonzero = guard - unit

    def fields(key: tuple[int, ...]) -> int:
        x = int.from_bytes(packer.pack(*key), "little")
        d = x & d_fields
        return x + (d >> width) + (d >> width2)

    forms = [_REORDER_FORMS[sign > 0] for sign in signs]
    lefts = list(a.entries.items())
    packed_lefts = [fields(key) for key in a.entries]
    masks = [(x + nonzero) & guard for x in packed_lefts]
    ready: list[tuple | None] = [None] * len(lefts)
    admitted_by: dict[int, list] = {}
    acc: dict[int, int] = {}
    low: dict[int, int] = {}
    for kb, cb in b.entries.items():
        xb = fields(kb)
        signature = (xb + saturated) & guard
        admitted = admitted_by.get(signature)
        if admitted is None:
            admitted = admitted_by[signature] = []
            for i, mask in enumerate(masks):
                if mask & signature:
                    continue
                left = ready[i]
                if left is None:
                    ka, ca = lefts[i]
                    left = ready[i] = (packed_lefts[i], *_pack(ca.terms, bits), _delta_terms(ka, forms))
                admitted.append(left)
        if not admitted:
            continue
        pb, eb = _pack(cb.terms, bits)
        for xa, pa, ea, delta in admitted:
            x = xa + xb
            if (x + bias) & guard:
                continue
            e = ea + eb
            for j, c in delta:
                e += c * kb[j]
            p = pa * pb
            old = low.get(x)
            if old is None:
                low[x] = e
                acc[x] = p
            elif e >= old:
                acc[x] += p << bits * (e - old)
            else:
                acc[x] = (acc[x] << bits * (old - e)) + p
                low[x] = e
    out = {}
    while acc:
        x, p = acc.popitem()
        terms = _unpack(p, bits, low.pop(x))
        if terms:
            d = x & d_fields
            x -= (d >> width) + (d >> width2)
            out[packer.unpack(x.to_bytes(packer.size, "little"))] = LaurentPolynomial._raw(terms)
    return WalkSum._raw(out)
