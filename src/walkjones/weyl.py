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
Python integers, and both run on walk sums in packed form (_Packed):

- A key is one integer of 3k fields, W bits each, holding the moved counts
  (d+s, d+r, d) per crossing, so that a key product is one add and the
  duplicate-reduction (DRL) test one add and one AND against the top bit
  of every field.
- A coefficient is Kronecker-packed: its value at q = 2^B with its own
  base exponent, so that a coefficient product is one integer multiply.
  B is one lane width for the whole sum; the signed B-bit digits decode
  exactly (_pack and _unpack).
- Bounds travel with the sum: its coefficient mass (the sum over entries
  of sum |c|), a bound on every moved field, and a bound on the spread
  between its lowest and highest exponent.
- A product also carries a reordering row per key that the left operand
  can still multiply: one integer of L-bit fields, field i holding the
  q-power that the i-th entry of the left operand picks up when it is
  moved in front of the key, plus 2^(L-1).
  The next product with the same left reads a pair's q-power off the row
  with one shift and mask (see multiply_walk_sums).

Lane policy. The mass bounds every digit of every coefficient and of any
sum of coefficients, so a packed sum keeps B >= mass.bit_length() + 2. B
starts at 64 bits and doubles, re-digiting the sum, only when a carried
mass needs it. W is the least of 8, 16, 32, 64 bits that the fields (and
the DRL limit) need, and widens the same way, re-packing the keys.

WalkSum is the one walk-sum class, and it holds either form or both: its
decoded map and its packed form. multiply_walk_sums returns a sum with only
the packed form and evaluate_walk_sum reads packed sums directly, so the
stack stays packed from height to height: WalkSum.entries decodes the
packed form into tuple keys and LaurentPolynomials only when something
reads it. A sum with only its map is packed when it is passed in, and
keeps that form, so there is one arithmetic path. No packed integer may
span more than PACKED_BITS_MAX bits: both operations check B times the
exponent spread their bounds allow before any shift, and raise
OverflowError past it.
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

# The narrowest coefficient lane in bits; wider lanes double it.
_LANE_BITS = 64

# The narrowest reordering row field in bits; wider fields double it.
_ROW_BITS = 16

# The most bits one packed integer may take (2^30 bits, 128 MiB).
PACKED_BITS_MAX = 1 << 30


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
    """Canonical key -> coefficient map; zero coefficients are never stored.

    A walk sum holds one or both of two forms: its decoded map and its
    packed form (a _Packed). multiply_walk_sums returns the packed form
    alone, and ``entries`` decodes it the first time it is read; a sum
    built from entries keeps the packed form that multiply_walk_sums or
    evaluate_walk_sum made of it when it was passed in. add_into drops the
    packed form.
    """

    __slots__ = ("_entries", "_packed")

    def __init__(self, entries: Mapping[tuple[int, ...], LaurentPolynomial] | None = None):
        self._packed = None
        self._entries: dict[tuple[int, ...], LaurentPolynomial] = {}
        if entries:
            for key, coeff in entries.items():
                if coeff:
                    self._entries[key] = coeff

    @classmethod
    def _raw(cls, entries: dict | None, packed: "_Packed | None" = None) -> "WalkSum":
        ws = cls.__new__(cls)
        ws._entries = entries
        ws._packed = packed
        return ws

    @classmethod
    def zero(cls) -> "WalkSum":
        return cls._raw({})

    @classmethod
    def single(cls, key: tuple[int, ...], coeff: LaurentPolynomial) -> "WalkSum":
        return cls._raw({key: coeff} if coeff else {})

    @property
    def entries(self) -> dict[tuple[int, ...], LaurentPolynomial]:
        entries = self._entries
        if entries is None:
            entries = self._entries = self._packed.decode()
        return entries

    def __len__(self) -> int:
        return len(self._packed.coeffs if self._entries is None else self._entries)

    def __bool__(self) -> bool:
        return bool(self._packed.coeffs if self._entries is None else self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WalkSum):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {c}" for k, c in sorted(self.entries.items()))
        return f"WalkSum({{{inner}}})"

    def add_into(self, key: tuple[int, ...], coeff: LaurentPolynomial) -> None:
        """Accumulate one monomial (mutating; used while building sums)."""
        entries = self.entries  # decodes a packed sum before its packed form goes
        self._packed = None
        cur = entries.get(key)
        if cur is None:
            if coeff:
                entries[key] = coeff
            return
        total = cur + coeff
        if total:
            entries[key] = total
        else:
            del entries[key]

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
        """Entries whose keys survive drl_keep(key, n); n must be >= 1, also
        for an empty sum."""
        _check_color(n)
        return WalkSum._raw({k: c for k, c in self.entries.items() if drl_keep(k, n)})


def mono_mul(left: KeyedMonomial, right: KeyedMonomial, signs: tuple[int, ...]) -> KeyedMonomial:
    """Product of two normal-form monomials over the same braid."""
    key, delta = kernels.key_product(left.key, right.key, signs)
    coeff = (left.coeff * right.coeff).shift(delta)
    return KeyedMonomial(key, coeff)


def _check_color(n: int) -> None:
    if n < 1:
        raise ValueError(f"color must be >= 1, got {n}")


def drl_keep(key: tuple[int, ...], n: int) -> bool:
    """Duplicate-reduction filter: discard keys with (#a + max(#b, #c)) >= n
    at any crossing. At n = 2 the survivors are exactly the simple walks."""
    _check_color(n)
    for b in range(0, len(key), 3):
        s = key[b]
        r = key[b + 1]
        if key[b + 2] + (s if s > r else r) >= n:
            return False
    return True


def _lane(needed: int, at_least: int = _LANE_BITS) -> int:
    """The least lane width at_least * 2^i of at least ``needed`` bits."""
    bits = at_least
    while bits < needed:
        bits *= 2
    return bits


def _key_width(bound: int) -> int | None:
    """The least field width W with bound < 2^(W-1), or None past 64 bits."""
    return next((w for w in _KEY_CODES if bound < 1 << (w - 1)), None)


def _check_span(bits: int, span: int) -> None:
    """Reject a packed integer of span + 1 exponents at ``bits`` bits each
    past PACKED_BITS_MAX, before anything of that size is built."""
    if bits * (span + 1) > PACKED_BITS_MAX:
        raise OverflowError(
            f"coefficients spanning {span + 1} powers of q at {bits} bits each "
            f"exceed the packed budget of {PACKED_BITS_MAX} bits"
        )


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


class _Keys:
    """The key layout of a packed sum: 3k little-endian fields of ``width``
    bits, holding (d+s, d+r, d) per crossing."""

    __slots__ = ("k", "width", "struct", "d_fields")

    def __init__(self, k: int, width: int):
        self.k = k
        self.width = width
        self.struct = Struct(f"<{3 * k}{_KEY_CODES[width]}")
        self.d_fields = int.from_bytes(self.struct.pack(*(0, 0, (1 << width) - 1) * k), "little")

    def move(self, key: tuple[int, ...]) -> int:
        """The packed integer of a key tuple."""
        x = int.from_bytes(self.struct.pack(*key), "little")
        d = x & self.d_fields
        return x + (d >> self.width) + (d >> 2 * self.width)

    def key(self, x: int) -> tuple[int, ...]:
        """The key tuple of a packed integer (inverse of move)."""
        d = x & self.d_fields
        return self.fields(x - (d >> self.width) - (d >> 2 * self.width))

    def fields(self, x: int) -> tuple[int, ...]:
        """The moved fields (d+s, d+r, d, ...) of a packed integer."""
        return self.struct.unpack(x.to_bytes(self.struct.size, "little"))

    def join(self, fields: tuple[int, ...]) -> int:
        """The packed integer of moved fields (inverse of fields)."""
        return int.from_bytes(self.struct.pack(*fields), "little")


class _Packed:
    """A walk sum in packed form. ``coeffs`` maps each packed key to its
    coefficient at q = 2^bits and ``low`` to that coefficient's base
    exponent; no coefficient is zero. ``mass`` bounds the sum over entries
    of sum |c| and is below 2^(bits-2); ``field_max`` bounds every moved field;
    ``span`` bounds the highest minus the lowest exponent of all terms.

    A product also carries ``rows``, the reordering rows of its keys, valid
    for the operator ``rows_for`` (see multiply_walk_sums); ``reorder``
    caches the operator of this sum as a left operand."""

    __slots__ = ("keys", "bits", "coeffs", "low", "mass", "field_max", "span", "rows", "rows_for", "reorder")

    def __init__(
        self, keys: _Keys, bits: int, coeffs: dict, low: dict, mass: int, field_max: int, span: int,
        rows: dict | None = None, rows_for: "_Reorder | None" = None,
    ):
        self.keys = keys
        self.bits = bits
        self.coeffs = coeffs
        self.low = low
        self.mass = mass
        self.field_max = field_max
        self.span = span
        self.rows = rows
        self.rows_for = rows_for
        self.reorder = None

    def widened(self, keys: _Keys, bits: int) -> "_Packed":
        """This sum at a layout and lane at least as wide as its own, with
        its rows and operator."""
        if keys.width == self.keys.width and bits == self.bits:
            return self
        coeffs, low = {}, {}
        rows = None if self.rows is None else {}
        for x, p in self.coeffs.items():
            base = self.low[x]
            if bits != self.bits:
                p, base = _pack(_unpack(p, self.bits, base), bits)
            y = x if keys.width == self.keys.width else keys.join(self.keys.fields(x))
            coeffs[y] = p
            low[y] = base
            if rows is not None and x in self.rows:
                rows[y] = self.rows[x]
        packed = _Packed(keys, bits, coeffs, low, self.mass, self.field_max, self.span, rows, self.rows_for)
        packed.reorder = self.reorder
        return packed

    def decode(self) -> dict[tuple[int, ...], LaurentPolynomial]:
        keys, bits, low = self.keys, self.bits, self.low
        return {
            keys.key(x): LaurentPolynomial._raw(_unpack(p, bits, low[x]))
            for x, p in self.coeffs.items()
        }


def _bounds(ws: WalkSum, k: int) -> tuple[int, int, int, int, int]:
    """(mass, field_max, span, width, bits) of a nonempty walk sum on k
    crossings: carried by a packed sum, measured on a plain one, whose
    width and lane are the narrowest."""
    packed = ws._packed
    if packed is not None:
        if packed.keys.k != k:
            raise ValueError(f"walk sum on {packed.keys.k} crossings does not match {k}")
        return packed.mass, packed.field_max, packed.span, packed.keys.width, packed.bits
    entries = ws.entries
    if {3 * k} != set(map(len, entries)):
        raise ValueError(f"key lengths do not match {k} crossings")
    coeffs = [c.terms for c in entries.values()]
    mass = sum(sum(map(abs, terms.values())) for terms in coeffs)
    fields = 2 * max(map(max, entries)) if k else 0
    span = max(map(max, coeffs)) - min(map(min, coeffs))
    return mass, fields, span, min(_KEY_CODES), _LANE_BITS


def _as_packed(ws: WalkSum, keys: _Keys, bits: int, bounds: tuple) -> _Packed:
    """A walk sum packed at the given layout and lane (see _bounds). A plain
    sum keeps its packed form too, so it is packed once however often it
    is passed in."""
    packed = ws._packed
    if packed is None:
        coeffs, low = {}, {}
        for key, coeff in ws.entries.items():
            x = keys.move(key)
            coeffs[x], low[x] = _pack(coeff.terms, bits)
        packed = _Packed(keys, bits, coeffs, low, *bounds[:3])
    ws._packed = packed = packed.widened(keys, bits)
    return packed


class _FactorTable(dict):
    """For one crossing sign and color top + 1, maps the moved fields
    (d+r, d) of a crossing to the integer that encodes its evaluation (see
    evaluate_walk_sum), filling itself on first use. ``layout`` is
    (count_bits, p_bound, flips_shift, hist_shift, zero): the width of a
    count, the bias of p, where the flip count and the histogram start,
    and the value of a zero factor."""

    __slots__ = ("positive", "top", "layout")

    def __init__(self, positive: bool, top: int, layout: tuple[int, int, int, int, int]):
        self.positive = positive
        self.top = top
        self.layout = layout

    def __missing__(self, moved: tuple[int, int]) -> int:
        count_bits, p_bound, flips_shift, hist_shift, zero = self.layout
        top = self.top
        dr, d = moved
        r = dr - d
        if self.positive:
            p = r * (top - d)
            exponents = range(top - r, top - r - d, -1)
        else:
            p = -r * top
            exponents = range(r - top, r - top + d)
        flips = hist = 0
        for e in exponents:
            if not e:
                self[moved] = zero
                return zero
            if e < 0:
                p += e
                flips += 1
                e = -e
            hist += 1 << count_bits * (e - 1)
        value = self[moved] = p + p_bound + (flips << flips_shift) + (hist << hist_shift)
        return value


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

    Factor multisets. Every factor (1 - q^e) with e < 0 is -q^e (1 - q^-e),
    so a monomial evaluates to +-q^p times its coefficient times the
    product of (1 - q^e) over a multiset m of exponents e >= 1, with m of
    size #a. The monomials are first summed, each +-q^p-shifted, into one
    packed group per multiset, and each group's factors are applied once,
    as a shift and a subtract: P - (P << B*e). Per crossing sign, a table
    maps the moved fields (d+r, d) to one integer holding p (biased to be
    nonnegative), the count of sign flips, and m as a histogram of
    counts per exponent, in disjoint bit fields; the tables fill on first
    use and a zero factor maps to a negative integer. A monomial's
    contribution is then the sum of its crossings' table entries.

    Lanes. A group's digits are bounded by the mass, so the groups are
    summed at the sum's lane B. Each factor (1 - q^e) at most doubles the
    sum of absolute coefficients, so every digit of a group after its
    factors, and of the result, is at most mass * 2^a in absolute value,
    with a the largest multiset size; only when that outgrows B are the
    group sums re-digited to a wider lane. The groups are then added per
    base exponent, shifted to the lowest base into one integer, and decoded
    once.
    """
    _check_color(n)
    if not ws:
        return LaurentPolynomial.zero()
    k = len(signs)
    bounds = mass, fields, span, width, bits = _bounds(ws, k)
    # a key has at most ``most`` factors; per crossing |p| is at most
    # p_bound, and the exponents of m sum to at most grow in all
    most = k * fields
    p_bound = fields * (2 * n + 3 * fields)
    grow = most * (n + 2 * fields)
    _check_span(_lane(mass.bit_length() + most + 2, bits), span + 2 * k * p_bound + grow)
    bits = _lane(mass.bit_length() + 2, bits)
    keys = _Keys(k, max(width, _key_width(fields)))
    stack = _as_packed(ws, keys, bits, bounds)

    top = n - 1
    count_bits = most.bit_length()
    flips_shift = (2 * k * p_bound).bit_length()
    hist_shift = flips_shift + count_bits
    layout = (count_bits, p_bound, flips_shift, hist_shift, -1 << (hist_shift + count_bits * (n + 2 * fields)))
    by_sign = {positive: _FactorTable(positive, top, layout) for positive in (True, False)}
    tables = [by_sign[sign > 0] for sign in signs]
    get = dict.__getitem__
    pairs = Struct("<" + f"{keys.width // 8}x{_KEY_CODES[keys.width]}{_KEY_CODES[keys.width]}" * k)
    unpack = pairs.unpack
    size = pairs.size
    p_mask = (1 << flips_shift) - 1
    p_bias = k * p_bound
    stack_low = stack.low
    acc: dict[int, int] = {}
    low: dict[int, int] = {}
    for x, packed in stack.coeffs.items():
        f = unpack(x.to_bytes(size, "little"))
        t = sum(map(get, tables, zip(f[::2], f[1::2])))
        if t < 0:
            continue
        e = stack_low[x] + (t & p_mask) - p_bias
        if t >> flips_shift & 1:
            packed = -packed
        group = t >> hist_shift
        old = low.get(group)
        if old is None:
            low[group] = e
            acc[group] = packed
        elif e >= old:
            acc[group] += packed << bits * (e - old)
        else:
            acc[group] = (acc[group] << bits * (old - e)) + packed
            low[group] = e

    count_mask = (1 << count_bits) - 1
    groups = []
    for group, packed in acc.items():
        if packed:
            base = low[group]
            exponents = []
            e = 1
            while group:
                exponents += [e] * (group & count_mask)
                group >>= count_bits
                e += 1
            groups.append((packed, base, exponents))
    out_bits = _lane(mass.bit_length() + max((len(m) for _, _, m in groups), default=0) + 2, bits)
    by_base: dict[int, int] = {}
    for packed, base, exponents in groups:
        if out_bits != bits:
            packed, base = _pack(_unpack(packed, bits, base), out_bits)
        for e in exponents:
            packed -= packed << out_bits * e
        by_base[base] = by_base.get(base, 0) + packed
    base = min(by_base, default=0)
    total = 0
    for b, packed in by_base.items():
        total += packed << out_bits * (b - base)
    return LaurentPolynomial._raw(_unpack(total, out_bits, base))


def kernel_product(a: WalkSum, b: WalkSum, signs: tuple[int, ...], n_limit: int = 0) -> WalkSum:
    """All pairwise products of two walk sums in one kernel call; n_limit > 0
    discards products failing drl_keep(key, n_limit), 0 keeps every one."""
    entries_a, entries_b = a.entries, b.entries
    if not entries_a or not entries_b:
        return WalkSum.zero()
    items_a = [(k, c.terms) for k, c in entries_a.items()]
    items_b = [(k, c.terms) for k, c in entries_b.items()]
    raw = kernels.walk_products(items_a, items_b, signs, n_limit)
    return WalkSum._raw({k: LaurentPolynomial._raw(c) for k, c in raw.items()})


def reordering_form(sign: int) -> tuple[tuple[int, ...], ...]:
    """The q-power of key_product at one crossing of the given sign is
    bilinear in the two keys' counts (s, r, d), so key_product on unit keys
    gives its 3 x 3 form F: F[t][u] is the q-power of the left key's count
    t against the right key's count u. The rule itself is stated only in
    the kernels module."""
    key_product = kernels.key_product
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return tuple(tuple(key_product(u, t, (sign,))[1] for t in units) for u in units)


def _moved_form(sign: int) -> tuple[tuple[int, ...], ...]:
    """The reordering form F (reordering_form) on moved fields (d+s, d+r, d),
    which give the counts through M = ((1, 0, -1), (0, 1, -1), (0, 0, 1)):
    M^T F M."""
    form = reordering_form(sign)
    m = ((1, 0, -1), (0, 1, -1), (0, 0, 1))
    return tuple(
        tuple(sum(m[u][i] * form[u][t] * m[t][j] for u in range(3) for t in range(3)) for j in range(3))
        for i in range(3)
    )


# The moved reordering form per crossing, keyed by whether its sign is
# positive, and the largest sum of absolute entries of either form.
_MOVED_FORMS = {True: _moved_form(1), False: _moved_form(-1)}
_FORM_NORM = max(sum(map(abs, sum(form, ()))) for form in _MOVED_FORMS.values())


class _Reorder:
    """The reordering operator of one left operand at one sign vector, with
    row fields of ``width`` bits (see multiply_walk_sums): the weight W_j
    of every moved field j, and the column C_i of each left entry i."""

    __slots__ = ("signs", "width", "weights", "columns", "bias")

    def __init__(self, left: _Packed, signs: tuple[int, ...], width: int):
        self.signs = signs
        self.width = width
        # FA_j holds field j of every left entry, entry i in row field i;
        # width is at least the key width, so a key field's bytes fit
        keys = left.keys
        size = keys.struct.size
        step = keys.width // 8
        out = width // 8
        data = b"".join(x.to_bytes(size, "little") for x in left.coeffs)
        count = len(left.coeffs)
        by_field = []
        for j in range(3 * keys.k):
            buf = bytearray(count * out)
            for byte in range(step):
                buf[byte::out] = data[j * step + byte::size]
            by_field.append(int.from_bytes(buf, "little"))
        # W_(3c+u) = sum over t of F_c[t][u] * FA_(3c+t)
        weights = []
        for c, sign in enumerate(signs):
            form = _MOVED_FORMS[sign > 0]
            fa = by_field[3 * c:3 * c + 3]
            weights += [sum(form[t][u] * fa[t] for t in range(3)) for u in range(3)]
        self.weights = weights
        self.columns = [self.combine(keys.fields(x)) for x in left.coeffs]
        # 2^(width-1) in every row field
        self.bias = ((1 << width * count) - 1) // ((1 << width) - 1) << (width - 1)

    def row(self, fields: tuple[int, ...]) -> int:
        """R_b of a key with these moved fields, built from its fields."""
        return self.bias + self.combine(fields)

    def combine(self, fields: tuple[int, ...]) -> int:
        """Sum of fields[j] * W_j: field i is the q-power of reordering
        left entry i in front of a key with these moved fields."""
        return sum(f * w for f, w in zip(fields, self.weights) if f)


def multiply_walk_sums(
    a: WalkSum,
    b: WalkSum,
    signs: tuple[int, ...],
    n: int = 0,
) -> WalkSum:
    """Pairwise product a * b of two walk sums, accumulated into canonical
    form and returned packed.

    With n > 0 any product whose key fails drl_keep(key, n) is discarded
    (sound because the filter is monotone under adding letters). n = 0 sets
    no DRL limit: it runs as a limit one above any field a product can
    reach, so the DRL test and the prefilter below never fire.

    Keys. Both operands are packed at one layout (see the module
    docstring); the move to (d+s, d+r, d) is linear, so the product key is
    one add, Ka + Kb. Since d + max(s, r) >= n holds exactly when d+s >= n
    or d+r >= n, DRL drops the product iff some field of Ka + Kb reaches n:
    with GUARD the top bit of every field and BIAS 2^(W-1) - n in every
    field, that is (Ka + Kb + BIAS) & GUARD != 0. W keeps n and the sum of
    the two operands' field bounds below 2^(W-1), so no field carries into
    the next.

    Saturation prefilter, from the same guard bits: the signature of a right
    entry marks its fields that are at least n - 1, the mask of a left entry
    its fields that are at least 1, and a left is paired with a right only
    when the two share no field. Doomed pairs are skipped this way without
    a key add; the admitted lefts are listed once per signature.

    Reordering rows. The q-power delta(a, b) that the product of a left
    key a by a right key b picks up in reordering is bilinear in the two
    keys' moved fields: the sum over crossings c of fa F_c fb on c's three
    fields, with F_c the moved form of c's sign (_moved_form). The left's
    operator (_Reorder, built once per left, sign vector and width, and
    kept on the left's packed form) packs its entries a_0, a_1, ... into
    L-bit fields:
    - FA_j holds field j of every left entry, entry i in field i;
    - the weight W_(3c+u) = sum over t of F_c[t][u] * FA_(3c+t), so that
      sum over j of fb[j] * W_j holds delta(a_i, b) in field i;
    - the column C_i = sum over j of fa_i[j] * W_j holds delta(a_l, a_i)
      in field l.
    The row of a right entry b is R_b = 2^(L-1) * ONES + sum of fb[j] * W_j,
    so a pair's exponent is ea + eb + (R_b >> L*i & (2^L - 1)) - 2^(L-1).
    The fields of a product key are fa_i + fb, so its row is one add,
    R_b + C_i, and the product carries its rows for the next height. Under
    a DRL limit, a key whose signature admits no left keeps no row: the
    next height at the same limit never reads it. A right key with no row
    valid for this operator (carried for another operator, dropped, or
    from a plain sum) has it built from its fields. L is the least of 16, 32, 64, ... bits,
    and at least the key width W, with k * _FORM_NORM * (left field
    bound) * (right field bound) < 2^(L-1), so every field of a row is
    one delta plus the bias, within 0 .. 2^L - 1. An operator narrower
    than that (a chain without DRL, whose fields grow) is rebuilt wider,
    and the rows with it.

    Coefficients. Each output key keeps the lowest base exponent of its
    contributions. The product's mass is at most the product of the
    operands' masses, which sets the lane; its fields are below n, and its
    exponent spread is at most the sum of the operands' spreads plus twice
    the row bound. Zero sums are dropped; nothing is decoded.
    """
    if n < 0:
        raise ValueError(f"DRL limit must be >= 0, got {n}")
    if not a or not b:
        return WalkSum.zero()
    k = len(signs)
    bounds_a = mass_a, fields_a, span_a, width_a, bits_a = _bounds(a, k)
    bounds_b = mass_b, fields_b, span_b, width_b, bits_b = _bounds(b, k)
    top = fields_a + fields_b
    limit = n
    n = n or top + 1
    width = _key_width(max(top, n))
    if width is None:
        raise OverflowError(f"letter counts or DRL limit {n} too large to pack")
    mass = mass_a * mass_b
    bits = _lane(mass.bit_length() + 2, max(bits_a, bits_b))
    row_bound = k * _FORM_NORM * fields_a * fields_b
    span = span_a + span_b + 2 * row_bound
    _check_span(bits, span)
    keys = _Keys(k, max(width, width_a, width_b))
    left = _as_packed(a, keys, bits, bounds_a)
    right = _as_packed(b, keys, bits, bounds_b)
    row_width = _lane(max(row_bound.bit_length() + 1, keys.width), _ROW_BITS)

    width = keys.width
    unit = keys.join((1,) * (3 * k))
    guard = unit << (width - 1)
    bias = guard - n * unit
    saturated = bias + unit
    nonzero = guard - unit

    op = left.reorder
    if op is None or op.signs != signs or op.width < row_width:
        op = left.reorder = _Reorder(left, signs, row_width)
    row_width = op.width
    half = 1 << (row_width - 1)
    row_mask = (1 << row_width) - 1
    carried = right.rows if right.rows_for is op else {}
    fields = keys.fields
    left_low = left.low
    lefts = [
        ((x + nonzero) & guard, (x, p, left_low[x] - half, row_width * i, column))
        for i, ((x, p), column) in enumerate(zip(left.coeffs.items(), op.columns))
    ]
    masks = [mask for mask, _ in lefts]
    admitted_by: dict[int, list] = {}
    right_low = right.low
    acc: dict[int, int] = {}
    low: dict[int, int] = {}
    rows: dict[int, int] = {}
    live: dict[int, bool] = {}
    for xb, pb in right.coeffs.items():
        signature = (xb + saturated) & guard
        admitted = admitted_by.get(signature)
        if admitted is None:
            admitted = admitted_by[signature] = [entry for mask, entry in lefts if not mask & signature]
        if not admitted:
            continue
        eb = right_low[xb]
        rb = carried.get(xb)
        if rb is None:
            rb = op.row(fields(xb))
        for xa, pa, ea, shift, column in admitted:
            x = xa + xb
            if (x + bias) & guard:
                continue
            e = ea + eb + (rb >> shift & row_mask)
            p = pa * pb
            old = low.get(x)
            if old is None:
                low[x] = e
                acc[x] = p
                x_signature = (x + saturated) & guard
                alive = live.get(x_signature)
                if alive is None:
                    alive = live[x_signature] = not limit or not all(mask & x_signature for mask in masks)
                if alive:
                    rows[x] = rb + column
            elif e >= old:
                acc[x] += p << bits * (e - old)
            else:
                acc[x] = (acc[x] << bits * (old - e)) + p
                low[x] = e
    for x in [x for x, p in acc.items() if not p]:
        del acc[x], low[x]
        rows.pop(x, None)
    return WalkSum._raw(None, _Packed(keys, bits, acc, low, mass, min(top, n - 1), span, rows, op))
