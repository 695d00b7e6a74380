"""Normal-form monomials of crossing weights and their evaluation.

Every crossing j of a braid carries three letters a_j, b_j, c_j subject to
q-commutation rules that depend on the crossing sign; letters at distinct
crossings commute. Each monomial is kept permanently in normal form: an
exponent key recording, per crossing, the letter multiplicities
(s, r, d) = (#b, #c, #a) in the order b^s c^r a^d, plus a Laurent
coefficient that absorbs every q-power produced by reordering.

The q-commutation rule is written down once, as data: the reordering form
F of each crossing sign (reordering_form), a 3 x 3 table of the q-power
one letter picks up moving past another. The generic kernel
(kernels.walk_products), the reordering rows of the stack multiply and
burau's simple-walk rule all read it.

Keys are flat tuples (s_1, r_1, d_1, ..., s_k, r_k, d_k). A walk sum is a
canonical map key -> coefficient; merging like keys is exact because the
color evaluation of a monomial is its coefficient times a function of the
key alone.

The operations of the colored Jones height loop live here, all on Python
integers, and all run on the packed form that a WalkSum is:

- A key is one integer of 3k fields, W bits each, holding the moved counts
  (d+s, d+r, d) per crossing, so that a key product is one add and the
  duplicate-reduction (DRL) test one add and one AND against the top bit
  of every field.
- A coefficient is Kronecker-packed: its value at q = 2^B with its own
  base exponent, so that a coefficient product is one integer multiply.
  B is one lane width for the whole sum. The lane layout is stated once,
  in _join and its inverse _split: digit i plus 2^(B-1) is the i-th B-bit
  little-endian lane, and one bias (2^(B-1) in every lane) comes off the
  joined integer. So _pack, _unpack and a change of lane each go through
  bytes in time linear in the term count.
- Keys, coefficients and base exponents are three aligned lists.
- Bounds travel with the sum: its coefficient mass (the sum over entries
  of sum |c|), a bound on every moved field, and a bound on the spread
  between its lowest and highest exponent.
- A product also carries a reordering row per key: one integer of L-bit
  fields, field i holding the q-power that the i-th entry of the left
  operand picks up when it is moved in front of the key, plus 2^(L-1),
  plus that entry's base exponent less the lowest. The next product with
  the same left unpacks a key's row into its fields once, through its
  bytes, and reads a pair's exponent as one index and one add (see
  multiply_walk_sums).

The level-one sum is born packed (WalkSum.from_masks) from its simple
walks, one (letter mask, exponent, sign) item per walk: a mask moves
straight to its packed key and a coefficient is its sign at its exponent,
so the sum carries exact bounds, mass equal to its walk count and field
bound 1. With a left field bound of 1 and right fields below the DRL
limit, the multiply's saturation prefilter is exact, so no pair runs the
DRL test, and a +-1 left coefficient makes a pair's coefficient +-pb.
Evaluation reads each key's factor class from one table per run of five
crossings, keyed by the packed key masked to the run's fields. A run's
first key fills its entry from the masked key's bytes, which index one
factor grid per crossing sign by the two fields (d+r, d). Coefficients
are summed per class and base exponent before anything is shifted, and
each class's factor multiset is read from the bytes of its histogram.

What depends only on the level-one sum and the color is built once per
height loop, not once per height: the left's operator (_Reorder) keeps
its row weights, columns and bias, and the lefts each saturation
signature admits. The DRL stacks are summed and evaluated once. When the
level-one keys have more than one letter count, a key can turn up at
several heights, and walk_series builds the sum with each distinct key
extended once, by increasing letter count; otherwise the stacks share no
key, and add_walk_sums joins them as they are.

Lane policy. The mass bounds every digit of every coefficient and of any
sum of coefficients, so a packed sum keeps B >= mass.bit_length() + 2, and
every biased digit fits its lane. B starts at 64 bits and doubles only when
a carried mass needs it: each coefficient is split into its digits and
joined again at the wider lane, on the same base exponent. W is the least
of 8, 16, 32, 64 bits that the fields (and the DRL limit) need, and widens
the same way, re-packing the keys.

WalkSum is the one walk-sum class, and it is its packed form: an
immutable sum of aligned lists with its bounds. WalkSum(map) packs a map
of tuple keys to LaurentPolynomials at once, at the narrowest fields and
lane its measured bounds allow, and WalkSum.entries decodes the lists
back into that map, once, only when something reads it; these are the
only crossings between the tuple-key maps of the kernel layer and the
packed sums. multiply_walk_sums returns a packed sum and evaluate_walk_sum
reads one as it is, so the stack stays packed from height to height and
there is one arithmetic path. No packed integer may
span more than PACKED_BITS_MAX bits: each operation checks B times the
exponent spread its bounds allow before any shift, and raises
OverflowError past it. Colors and DRL limits pass one check, checked_int.
"""
from __future__ import annotations

import operator
from itertools import compress, repeat
from struct import Struct
from typing import Mapping

from .laurent import LaurentPolynomial, _trimmed

_LETTER_SLOT = {"b": 0, "c": 1, "a": 2}

# Little-endian struct code per packed key field width in bits.
_KEY_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}

# The narrowest coefficient lane in bits; wider lanes double it.
_LANE_BITS = 64

# The narrowest reordering row field in bits; wider fields double it.
_ROW_BITS = 16

# Crossings per run of an evaluation run table (see evaluate_walk_sum).
_RUN = 5


def _moved_digit(letters: int) -> str:
    """One crossing's moved fields (d, d+r, d+s) as 8-bit characters, most
    significant first, from its letter bits (b = 1, c = 2, a = 4)."""
    s, r, d = letters & 1, letters >> 1 & 1, letters >> 2
    return "".join(map(chr, (d, d + r, d + s)))


# Each octal digit of a letter mask to its crossing's moved fields.
_MOVED_DIGITS = str.maketrans({str(letters): _moved_digit(letters) for letters in range(8)})

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


class WalkSum:
    """An immutable walk sum, held in packed form: three aligned lists,
    ``keys`` the distinct packed keys (laid out by ``layout``, None for the
    empty sum), ``coeffs`` each key's coefficient at q = 2^bits, never
    zero, and ``low`` that coefficient's base exponent. ``mass`` bounds the
    sum over entries of sum |c| and is below 2^(bits-2); ``field_max``
    bounds every moved field; ``span`` bounds the highest minus the lowest
    exponent of all terms.

    A product also carries ``rows``, aligned with the keys: each key's
    reordering row for the operator ``rows_for`` (see multiply_walk_sums);
    ``reorder`` caches the operator of this sum as a left operand.
    multiply_walk_sums may widen an operand's key fields and lane in place,
    which leaves its value, base exponents, rows and operator as they are.
    ``entries`` decodes the sum into its canonical map, tuple key ->
    LaurentPolynomial, the first time it is read.
    """

    __slots__ = (
        "layout", "bits", "keys", "coeffs", "low", "mass", "field_max", "span", "rows", "rows_for", "reorder",
        "_entries",
    )

    def __init__(self, entries: Mapping[tuple[int, ...], LaurentPolynomial] | None = None):
        """The sum of a key -> coefficient map, packed at once; zero
        coefficients are dropped. Its bounds are measured: the mass is the
        sum of |c|, the field bound twice the largest count, and the span
        that of all its terms; its key fields and lane are the narrowest
        they allow. ValueError if the keys do not all hold 3k counts for one
        k, OverflowError if a count is too large to pack. The map, less its
        zeros, is kept as the decoded entries."""
        entries = {key: coeff for key, coeff in (entries or {}).items() if coeff}
        if not entries:
            self._set(None, _LANE_BITS, [], [], [], 0, 0, 0)
            self._entries = entries
            return
        lengths = set(map(len, entries))
        size = lengths.pop()
        if lengths or size % 3:
            raise ValueError(f"key lengths {sorted(lengths | {size})} are not 3k for one crossing count k")
        coeffs = entries.values()
        mass = sum(sum(map(abs, c._coeffs)) for c in coeffs)
        field_max = 2 * max(map(max, entries)) if size else 0
        span = max(c._low + len(c._coeffs) for c in coeffs) - 1 - min(c._low for c in coeffs)
        width = _key_width(field_max)
        if width is None:
            raise OverflowError(f"letter counts up to {field_max // 2} too large to pack")
        layout = _Keys(size // 3, width)
        bits = _lane(mass.bit_length() + 2)
        packed, low = zip(*(_pack(c, bits) for c in coeffs))
        self._set(layout, bits, list(map(layout.move, entries)), list(packed), list(low), mass, field_max, span)
        self._entries = entries

    def _set(
        self, layout: "_Keys | None", bits: int, keys: list, coeffs: list, low: list, mass: int, field_max: int,
        span: int, rows: list | None = None, rows_for: "_Reorder | None" = None,
    ) -> None:
        self.layout = layout
        self.bits = bits
        self.keys = keys
        self.coeffs = coeffs
        self.low = low
        self.mass = mass
        self.field_max = field_max
        self.span = span
        self.rows = rows
        self.rows_for = rows_for
        self.reorder = None
        self._entries = None

    @classmethod
    def _packed(cls, *fields) -> "WalkSum":
        """A sum straight from its packed fields, in _set's order."""
        ws = cls.__new__(cls)
        ws._set(*fields)
        return ws

    @classmethod
    def zero(cls) -> "WalkSum":
        return cls()

    @classmethod
    def single(cls, key: tuple[int, ...], coeff: LaurentPolynomial) -> "WalkSum":
        return cls({key: coeff})

    @property
    def entries(self) -> dict[tuple[int, ...], LaurentPolynomial]:
        if self._entries is None:
            self._entries = self._decode()
        return self._entries

    def _decode(self) -> dict[tuple[int, ...], LaurentPolynomial]:
        key, bits = self.layout.key, self.bits
        return {key(x): _unpack(p, bits, base) for x, p, base in zip(self.keys, self.coeffs, self.low)}

    @classmethod
    def from_masks(cls, k: int, walks: list) -> "WalkSum":
        """The level-one sum on k crossings, born packed from its simple walks
        (burau._simple_walks): ``walks`` lists (letter mask, exponent, sign)
        items with distinct masks, bit 3j + slot of a mask holding a letter
        of crossing j (slot b = 0, c = 1, a = 2, as in the tuple keys).

        A mask moves straight to its packed key at 8-bit fields: each octal
        digit of the mask is one crossing's letters, and _MOVED_DIGITS maps
        it to that crossing's three moved fields. Each coefficient is its
        sign at its exponent. The sum carries exact bounds: its mass is the
        walk count, and its field bound is 1, since a simple walk holds no a
        beside a b or c."""
        if not walks:
            return cls.zero()
        masks, low, coeffs = zip(*walks)
        keys = [int.from_bytes(f"{mask:o}".translate(_MOVED_DIGITS).encode("latin-1"), "big") for mask in masks]
        mass = len(walks)
        bits = _lane(mass.bit_length() + 2)
        return cls._packed(_Keys(k, 8), bits, keys, list(coeffs), list(low), mass, 1, max(low) - min(low))

    def _widen(self, layout: "_Keys", bits: int) -> None:
        """Lay the keys out at ``layout`` and re-lane the coefficients at
        ``bits``, both at least as wide as the sum's own; its value, base
        exponents, rows and operator stay."""
        self.keys, self.coeffs = self._relaid(layout, bits)
        self.layout, self.bits = layout, bits

    def _relaid(self, layout: "_Keys", bits: int) -> tuple[list, list]:
        """The keys at ``layout`` and the coefficients at ``bits``, which the
        mass must fit; the sum's own lists where nothing changes."""
        keys, coeffs = self.keys, self.coeffs
        if bits != self.bits:
            coeffs = [_join(_split(p, self.bits), bits) for p in coeffs]
        if layout.width != self.layout.width:
            keys = [layout.join(self.layout.fields(x)) for x in keys]
        return keys, coeffs

    def _check_crossings(self, k: int) -> None:
        if self.layout.k != k:
            raise ValueError(f"walk sum on {self.layout.k} crossings does not match {k}")

    def __len__(self) -> int:
        return len(self.keys)

    def __bool__(self) -> bool:
        return bool(self.keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WalkSum):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {c}" for k, c in sorted(self.entries.items()))
        return f"WalkSum({{{inner}}})"


def checked_int(value, least: int = 1, name: str = "color") -> int:
    """``value`` as an int: TypeError if it is not an integer, ValueError if
    it is below ``least``. Colors are checked with least 1, a DRL limit with
    least 0 (no limit)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def drl_keep(key: tuple[int, ...], n: int) -> bool:
    """Duplicate-reduction filter: discard keys with (#a + max(#b, #c)) >= n
    at any crossing. At n = 2 the survivors are exactly the simple walks."""
    n = checked_int(n)
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


def _halves(bits: int, count: int) -> int:
    """2^(bits-1) in each of ``count`` bits-bit lanes: the lane bias."""
    return int.from_bytes((1 << (bits - 1)).to_bytes(bits // 8, "little") * count, "little")


def _join(digits, bits: int) -> int:
    """Signed digits, lowest first, each below 2^(bits-1) in absolute value,
    as one integer, the sum of d << bits * i: each digit plus 2^(bits-1)
    fills one bits-bit little-endian lane, and the lane bias comes off once."""
    size = bits // 8
    half = 1 << (bits - 1)
    lanes = b"".join((d + half).to_bytes(size, "little") for d in digits)
    return int.from_bytes(lanes, "little") - _halves(bits, len(digits))


def _split(packed: int, bits: int) -> list[int]:
    """Inverse of _join: the signed bits-bit digits of ``packed``, lowest
    first, through its top nonzero one (one zero digit for zero)."""
    size = bits // 8
    half = 1 << (bits - 1)
    count = packed.bit_length() // bits + 1
    lanes = (packed + _halves(bits, count)).to_bytes(count * size, "little")
    return [int.from_bytes(lanes[i:i + size], "little") - half for i in range(0, len(lanes), size)]


def _pack(coeff: LaurentPolynomial, bits: int) -> tuple[int, int]:
    """A nonzero coefficient at q = 2^bits, with its lowest exponent as base:
    (sum of c << bits * (e - base), base)."""
    return _join(coeff._coeffs, bits), coeff._low


def _unpack(packed: int, bits: int, base: int) -> LaurentPolynomial:
    """Inverse of _pack: the signed bits-bit digits of packed, from exponent
    base up. Exact when every coefficient is below 2^(bits-1) in absolute
    value."""
    return _trimmed(base, _split(packed, bits))


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


def add_walk_sums(sums) -> WalkSum:
    """The sum of packed walk sums on one crossing count that share no key,
    packed, with no rows: each joins the running total whole, with no
    Python loop over its keys. ValueError if two of them share a key. The
    keys take the widest operand's layout, and the lane is the one the
    summed mass needs. The field and span bounds carry over."""
    sums = [ws for ws in sums if ws]
    if not sums:
        return WalkSum.zero()
    k = sums[0].layout.k
    for ws in sums:
        ws._check_crossings(k)
    mass = sum(ws.mass for ws in sums)
    bits = _lane(mass.bit_length() + 2)
    layout = max((ws.layout for ws in sums), key=operator.attrgetter("width"))
    bases = [min(ws.low) for ws in sums]
    span = max(base + ws.span for base, ws in zip(bases, sums)) - min(bases)
    _check_span(bits, span)
    # the last operand's keys need no place in ``seen``: no later operand can meet them
    seen: set[int] = set()
    keys: list[int] = []
    coeffs: list[int] = []
    low: list[int] = []
    last = len(sums) - 1
    for i, ws in enumerate(sums):
        xs, packed = ws._relaid(layout, bits)
        if not seen.isdisjoint(xs):
            raise ValueError("walk sums to add share a key")
        if i < last:
            seen.update(xs)
        keys += xs
        coeffs += packed
        low += ws.low
    return WalkSum._packed(layout, bits, keys, coeffs, low, mass, max(ws.field_max for ws in sums), span)


class _FactorGrid(dict):
    """For one crossing sign at color top + 1, maps a crossing's moved
    fields (d+r, d), read as one code d+r + (d << W) of two W-bit key
    fields, to the integer that encodes its evaluation (see
    evaluate_walk_sum); a cell is built the first time a key holds it.
    ``layout`` is (count_bits, p_bound, flips_shift, hist_shift,
    zero_shift): the width of a count, the bias of p, where the flip count
    and the histogram start, and the shift of -1 that gives a zero factor's
    value. That value is made only when a zero factor is met: its shift
    grows with the color, so at a huge color it would be huge."""

    __slots__ = ("positive", "top", "width", "layout")

    def __init__(self, positive: bool, top: int, width: int, layout: tuple[int, int, int, int, int]):
        self.positive = positive
        self.top = top
        self.width = width
        self.layout = layout

    def __missing__(self, code: int) -> int:
        count_bits, p_bound, flips_shift, hist_shift, zero_shift = self.layout
        top = self.top
        d = code >> self.width
        r = (code & ((1 << self.width) - 1)) - d
        if self.positive:
            p = r * (top - d)
            exponents = range(top - r, top - r - d, -1)
        else:
            p = -r * top
            exponents = range(r - top, r - top + d)
        flips = hist = 0
        for e in exponents:
            if not e:
                value = self[code] = -1 << zero_shift
                return value
            if e < 0:
                p += e
                flips += 1
                e = -e
            hist += 1 << count_bits * (e - 1)
        value = self[code] = p + p_bound + (flips << flips_shift) + (hist << hist_shift)
        return value


class _RunSums(dict):
    """For a run of consecutive crossings, maps a packed key masked to the
    run's (d+r, d) fields to the sum of the run's grid cells, filling itself
    on first use: ``codes`` unpacks the masked key's bytes, from the run's
    first d+r field on and shifted down by ``shift`` bits, into one code per
    crossing, skipping the d+s fields between them, and ``grids`` holds the
    factor grid of each crossing's sign."""

    __slots__ = ("shift", "size", "codes", "grids")

    def __init__(self, shift: int, size: int, codes, grids: list):
        self.shift = shift
        self.size = size
        self.codes = codes
        self.grids = grids

    def __missing__(self, x: int) -> int:
        codes = self.codes((x >> self.shift).to_bytes(self.size, "little"))
        value = self[x] = sum(map(operator.getitem, self.grids, codes))
        return value


def evaluate_walk_sum(ws: WalkSum, signs: tuple[int, ...], n: int) -> LaurentPolynomial:
    """Color-n evaluation of a walk sum (additive over monomials).

    Per positive crossing with counts (s, r, d) a word contributes
    q^(r(n-1-d)) * prod_{h<d} (1 - q^(n-1-r-h)); per negative crossing
    q^(-r(n-1)) * prod_{l<d} (1 - q^(r+l+1-n)). The s counts contribute
    nothing. A monomial evaluates to its coefficient times the product over
    crossings; some factor is (1 - q^0) = 0 exactly when r < n <= r + d at
    a crossing with d > 0.

    Factor classes. Every factor (1 - q^e) with e < 0 is -q^e (1 - q^-e),
    so a monomial evaluates to +-q^p times its coefficient times the
    product of (1 - q^e) over a multiset m of exponents e >= 1, with m of
    size #a. Per crossing sign, a grid (_FactorGrid) maps the moved fields
    (d+r, d) to one integer holding p (biased to be nonnegative), the count
    of sign flips, and m as a histogram of counts per exponent, each count
    in whole bytes, in disjoint bit fields; a zero factor maps to a
    negative integer that outweighs every other sum. A monomial's class is
    the sum of its crossings' cells. The crossings are cut into runs of
    _RUN, and a table per run (_RunSums) maps the key, masked to the run's
    (d+r, d) fields, straight to the sum of the run's cells: one AND and one
    lookup per run and key. A run's first key unpacks the masked key's bytes
    into one code per crossing, the two adjacent fields d+r and d read as
    one 2W-bit field, and each code indexes its sign's grid. Grid cells and
    run sums are built on first use and live for one call, so a zero
    factor's value is built only when a key holds one. Against runs of
    three, whose fills unpacked the whole key, runs of five take a key's
    lookups on 9_1 at N = 6 from 3 to 2 and on 9_2 and 9_5 at N = 4 from 4
    to 3, for 880 fills instead of 795 on 9_1, 296 instead of 336 on 9_2
    and 468 instead of 398 on 9_5.

    Buckets. The p field also has room for the key's base exponent less
    the lowest one, so the class plus that offset names the monomial's
    multiset, flip count and base exponent at once. The monomials are
    first summed per such bucket with no shift at all; then each bucket is
    negated for an odd flip count and shifted into one packed group per
    multiset. A group's multiset is read from the bytes of its histogram,
    and its factors are applied once each, as a shift and a subtract:
    P - (P << B*e).

    Lanes. A group's digits are bounded by the mass, so the groups are
    summed at the sum's lane B. Each factor (1 - q^e) at most doubles the
    sum of absolute coefficients, so every digit of a group after its
    factors, and of the result, is at most mass * 2^a in absolute value,
    with a the largest multiset size; only when that outgrows B are the
    group sums re-laned to a wider lane. The groups are then added per
    base exponent, shifted to the lowest base into one integer, and decoded
    once.
    """
    n = checked_int(n)
    if not ws:
        return LaurentPolynomial.zero()
    k = len(signs)
    ws._check_crossings(k)
    mass, fields, span, bits = ws.mass, ws.field_max, ws.span, ws.bits
    # a key has at most ``most`` factors; per crossing |p| is at most
    # p_bound, and the exponents of m sum to at most grow in all
    most = k * fields
    p_bound = fields * (2 * n + 3 * fields)
    grow = most * (n + 2 * fields)
    _check_span(_lane(mass.bit_length() + most + 2, bits), span + 2 * k * p_bound + grow)

    # the check keeps every field below 2^11, so a pair of fields fits a
    # struct code once 64-bit keys are laid out at 32 bits
    layout = ws.layout if ws.layout.width < 64 else _Keys(k, 32)
    keys = ws._relaid(layout, bits)[0]
    width = layout.width
    # a count takes whole bytes; a crossing's factors have distinct
    # exponents, so no count passes k
    count_bits = next(w for w in _KEY_CODES if k < 1 << w)
    flips_shift = (2 * k * p_bound + span).bit_length()
    # a key flips at most one sign per factor
    hist_shift = flips_shift + most.bit_length()
    grid_layout = (count_bits, p_bound, flips_shift, hist_shift, hist_shift + count_bits * (n + 2 * fields))
    grids = {positive: _FactorGrid(positive, n - 1, width, grid_layout) for positive in (True, False)}
    step = width // 8
    pair = _KEY_CODES[2 * width]
    runs = []
    for first in range(0, k, _RUN):
        run = range(first, min(first + _RUN, k))
        keep = [0] * (3 * k)
        for j in run:
            keep[3 * j + 1] = keep[3 * j + 2] = (1 << width) - 1
        codes = Struct("<" + f"{step}x".join([pair] * len(run))).unpack
        table = _RunSums((3 * first + 1) * width, (3 * len(run) - 1) * step, codes, [grids[signs[j] > 0] for j in run])
        runs.append((table, layout.join(keep)))

    base_min = min(ws.low)
    buckets: dict[int, int] = {}
    get = buckets.get
    for x, packed, base in zip(keys, ws.coeffs, ws.low):
        t = base - base_min
        for table, keep in runs:
            t += table[x & keep]
        if t >= 0:
            buckets[t] = get(t, 0) + packed

    p_mask = (1 << flips_shift) - 1
    offset = base_min - k * p_bound
    acc: dict[int, int] = {}
    low: dict[int, int] = {}
    for t, packed in buckets.items():
        if not packed:
            continue
        if t >> flips_shift & 1:
            packed = -packed
        e = (t & p_mask) + offset
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

    size = count_bits // 8
    code = _KEY_CODES[count_bits]
    groups = []
    for group, packed in acc.items():
        if packed:
            # count i of the histogram is the multiplicity of exponent i + 1
            data = group.to_bytes(-(-group.bit_length() // count_bits) * size, "little")
            counts = data if size == 1 else Struct(f"<{len(data) // size}{code}").unpack(data)
            groups.append((packed, low[group], counts))
    out_bits = _lane(mass.bit_length() + max((sum(c) for _, _, c in groups), default=0) + 2, bits)
    by_base: dict[int, int] = {}
    for packed, base, counts in groups:
        if out_bits != bits:
            packed, base = _pack(_unpack(packed, bits, base), out_bits)
        for e, count in enumerate(counts, 1):
            for _ in range(count):
                packed -= packed << out_bits * e
        by_base[base] = by_base.get(base, 0) + packed
    base = min(by_base, default=0)
    total = 0
    for b, packed in by_base.items():
        total += packed << out_bits * (b - base)
    return _unpack(total, out_bits, base)


# The reordering rule, and the one place it is written down (Armond,
# arXiv:1101.3810). At a crossing of either sign, on the way to normal
# form, each letter of kind t of the left key that moves past a letter of
# kind u of the right key picks up q**F[t][u], kinds in (s, r, d) =
# (b, c, a) order. Only a letter out of normal order (b before c before a)
# moves past another, so only F[c][b], F[a][b] and F[a][c] may be nonzero.
# tests/test_weyl.py checks both forms against the oracle's swap rule.
_FORM_PLUS = ((0, 0, 0), (-2, 0, 0), (0, 1, 0))
_FORM_MINUS = ((0, 0, 0), (2, 0, 0), (2, -1, 0))


def reordering_form(sign: int) -> tuple[tuple[int, ...], ...]:
    """The 3 x 3 reordering form F of a crossing of the given sign: a left
    key with counts (s, r, d) times a right key with counts (s', r', d')
    picks up q**(sum over t, u of F[t][u] * count_t * count'_u)."""
    return _FORM_PLUS if sign > 0 else _FORM_MINUS


def _moved_form(form: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """A reordering form F (reordering_form) on moved fields (d+s, d+r, d),
    which give the counts through M = ((1, 0, -1), (0, 1, -1), (0, 0, 1)):
    M^T F M."""
    m = ((1, 0, -1), (0, 1, -1), (0, 0, 1))
    return tuple(
        tuple(sum(m[u][i] * form[u][t] * m[t][j] for u in range(3) for t in range(3)) for j in range(3))
        for i in range(3)
    )


# The moved reordering form per crossing, keyed by whether its sign is
# positive, and the largest sum of absolute entries of either form.
_MOVED_FORMS = {True: _moved_form(_FORM_PLUS), False: _moved_form(_FORM_MINUS)}
_FORM_NORM = max(sum(map(abs, sum(form, ()))) for form in _MOVED_FORMS.values())
# The columns of each moved form, F[.][u] for u = 0, 1, 2.
_FORM_COLUMNS = {positive: tuple(zip(*form)) for positive, form in _MOVED_FORMS.items()}


class _Reorder:
    """The reordering operator of one left operand at one sign vector, with
    row fields of ``width`` bits (see multiply_walk_sums): the weight W_j
    of every moved field j, the column C_i of each left entry i, the row
    bias, with the offset that a pair's exponent takes, ``row_fields``,
    which unpacks the row_size bytes of a row into its fields, one per
    left entry, and the admitted lefts of the latest key width and lane
    the left was multiplied at. A row field has a struct code because the
    width is at most 64 bits: it is the key width, or the least that holds
    the row bound and the left's span, which the span check caps below
    2^24 before any operator is built."""

    __slots__ = ("signs", "width", "weights", "columns", "bias", "offset", "row_fields", "row_size", "admitted")

    def __init__(self, left: WalkSum, signs: tuple[int, ...], width: int):
        self.signs = signs
        self.width = width
        # FA_j holds field j of every left entry, entry i in row field i;
        # width is at least the key width, so a key field's bytes fit
        layout = left.layout
        size = layout.struct.size
        step = layout.width // 8
        out = width // 8
        data = b"".join(x.to_bytes(size, "little") for x in left.keys)
        count = len(left.keys)
        by_field = []
        for j in range(3 * layout.k):
            buf = bytearray(count * out)
            for byte in range(step):
                buf[byte::out] = data[j * step + byte::size]
            by_field.append(int.from_bytes(buf, "little"))
        # W_(3c+u) = sum over t of F_c[t][u] * FA_(3c+t), from column u of F_c
        weights = []
        for c, sign in enumerate(signs):
            a0, a1, a2 = by_field[3 * c:3 * c + 3]
            weights += [f0 * a0 + f1 * a1 + f2 * a2 for f0, f1, f2 in _FORM_COLUMNS[sign > 0]]
        self.weights = weights
        if layout.width == 8 and left.field_max <= 1:
            # each field is one byte, 0 or 1, so a key's bytes select its weights
            self.columns = [sum(compress(weights, x.to_bytes(size, "little"))) for x in left.keys]
        else:
            self.columns = [self.combine(layout.fields(x)) for x in left.keys]
        # 2^(width-1) plus the base exponent of left entry i, less the
        # lowest, in row field i
        low = min(left.low)
        self.bias = _join([e - low for e in left.low], width) + _halves(width, count)
        self.offset = low - (1 << (width - 1))
        # a row's fields, one per left entry, unpacked from its bytes
        self.row_fields = Struct(f"<{count}{_KEY_CODES[width]}").unpack
        self.row_size = count * out
        self.admitted = None

    def row(self, fields: tuple[int, ...]) -> int:
        """R_b of a key with these moved fields, built from its fields."""
        return self.bias + self.combine(fields)

    def combine(self, fields: tuple[int, ...]) -> int:
        """Sum of fields[j] * W_j: field i is the q-power of reordering
        left entry i in front of a key with these moved fields."""
        return sum(f * w for f, w in zip(fields, self.weights) if f)


class _Admitted(dict):
    """For one left operand at one key width and lane (``key``), maps the
    saturation signature of a right key to the entries (xa, pa, i, column)
    of the lefts it admits, i the left's index and so its field of a row,
    filling itself on first use; walk_series adds each left's letter count
    to its entries. ``lefts`` lists each left entry with its mask. The DRL
    limit only sets how a signature is computed, so one table serves every
    limit."""

    __slots__ = ("key", "lefts")

    def __init__(self, key: tuple[int, int], lefts: list):
        self.key = key
        self.lefts = lefts

    def __missing__(self, signature: int) -> list:
        admitted = self[signature] = [entry for mask, entry in self.lefts if not mask & signature]
        return admitted


def _pairing(left: WalkSum, fields_b: int, n: int, key_width: int) -> tuple[_Keys, bool, int, int]:
    """The rules of multiply_walk_sums for ``left`` times right keys whose
    fields are at most fields_b, at DRL limit n: the key layout, at least
    ``key_width`` bits a field; whether an admitted pair still runs the DRL
    test (see the prefilter); the row bound, the most a pair's reordering
    moves its exponent; and the row field width. OverflowError if the
    fields or n need more than 64 bits."""
    fields_a = left.field_max
    top = fields_a + fields_b
    width = _key_width(max(top, n))
    if width is None:
        raise OverflowError(f"letter counts or DRL limit {n} too large to pack")
    drl_test = top >= n and not (fields_a <= 1 and fields_b < n)
    row_bound = left.layout.k * _FORM_NORM * fields_a * fields_b
    layout = _Keys(left.layout.k, max(width, key_width))
    row_width = _lane(max((row_bound + left.span).bit_length() + 1, layout.width), _ROW_BITS)
    return layout, drl_test, row_bound, row_width


def _guards(layout: _Keys, n: int) -> tuple[int, int, int, int]:
    """The DRL masks of multiply_walk_sums at ``layout`` and limit n, each
    one value per field: the guard (the field's top bit), the bias
    2^(W-1) - n, the bias that sets the guard of a field at least n - 1,
    and the one that sets it for a field at least 1."""
    unit = layout.join((1,) * (3 * layout.k))
    guard = unit << (layout.width - 1)
    bias = guard - n * unit
    return guard, bias, bias + unit, guard - unit


def _operator(left: WalkSum, signs: tuple[int, ...], row_width: int) -> _Reorder:
    """The reordering operator of ``left`` at ``signs``, kept on the sum,
    built again when it was built for other signs or narrower rows."""
    op = left.reorder
    if op is None or op.signs != signs or op.width < row_width:
        op = left.reorder = _Reorder(left, signs, row_width)
    return op


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
    a key add. The lefts a signature admits are listed the first time it
    comes up and kept on the left's operator (_Admitted, keyed by key
    width and lane), so a height loop lists each signature once
    however many heights see it. When the left's fields are at most 1 and
    the right's below n, a field of a product reaches n only as
    1 + (n - 1), which is what the prefilter tests, so it is exact and no
    pair runs the DRL test; nor does any pair when the two field bounds
    sum below n. Otherwise each admitted pair still runs it. The level-one
    sum is born with field bound 1 (WalkSum.from_masks) and every product
    has fields below n, so in the colored_jones loop the test never runs.

    Reordering rows. The q-power delta(a, b) that the product of a left
    key a by a right key b picks up in reordering is bilinear in the two
    keys' moved fields: the sum over crossings c of fa F_c fb on c's three
    fields, with F_c the moved form of c's sign (_moved_form). The left's
    operator (_Reorder, built once per left, sign vector and width, and
    kept on the left sum) packs its entries a_0, a_1, ... into
    L-bit fields:
    - FA_j holds field j of every left entry, entry i in field i;
    - the weight W_(3c+u) = sum over t of F_c[t][u] * FA_(3c+t), so that
      sum over j of fb[j] * W_j holds delta(a_i, b) in field i;
    - the column C_i = sum over j of fa_i[j] * W_j holds delta(a_l, a_i)
      in field l.
    The bias holds, in field i, 2^(L-1) + ea_i - e0, with e0 the lowest
    base exponent of the left. The row of a right entry b is R_b = bias +
    sum of fb[j] * W_j, so a pair's exponent is (eb + e0 - 2^(L-1)) +
    (field i of R_b). A right entry that admits a left has its row
    unpacked once, from its bytes, into a tuple of its fields (struct, at
    the code of width L), and each admitted left carries its index i, so
    a pair's exponent is one index and one add, the first term being taken
    once per right entry. Against a shift and a mask of the row per pair,
    this took the top multiply of 9_1 at N = 6 (2 353 keys by 21 lefts)
    from 24.3 to 21.9 ms (wall time, median of six alternating processes'
    best of 15, 2 vCPUs of a shared VM, Python 3.11). The fields of a
    product key are fa_i + fb, so its row is one add, R_b + C_i, and every
    product key carries its row for the next height, whether or not any
    left can extend it: the next multiply skips a key whose signature
    admits no left before it reads the row, and carrying costs less than
    testing. A right key with no row valid for this operator (carried for
    another operator, or from a sum built from a map or born packed) has
    it built from its fields. L is the least of 16, 32, 64, ... bits, and
    at least the key width W, with k * _FORM_NORM * (left field bound) *
    (right field bound) + (left span) < 2^(L-1), so every field of a row
    is one delta plus its bias, within 0 .. 2^L - 1. An operator narrower
    than that (a chain without DRL, whose fields grow) is rebuilt wider,
    and the rows with it. A widened left keeps its base exponents, so the
    bias stays valid.

    Coefficients. A pair's coefficient is pa * pb, or +-pb when the left
    coefficient is +-1, as every level-one coefficient is. Each output key
    gets a slot on its first product, with one dict lookup per pair
    (setdefault on the key), and its coefficient and lowest base exponent
    live in two lists at that slot, which become the product's aligned
    lists as they are. The product's mass is at most the product of the
    operands' masses, which sets the lane; its fields are below n, and its
    exponent spread is at most the sum of the operands' spreads plus twice
    the row bound. Zero sums are dropped; nothing is decoded.
    """
    n = checked_int(n, 0, "DRL limit")
    if not a or not b:
        return WalkSum.zero()
    k = len(signs)
    a._check_crossings(k)
    b._check_crossings(k)
    top = a.field_max + b.field_max
    n = n or top + 1
    layout, drl_test, row_bound, row_width = _pairing(a, b.field_max, n, max(a.layout.width, b.layout.width))
    mass = a.mass * b.mass
    bits = _lane(mass.bit_length() + 2, max(a.bits, b.bits))
    span = a.span + b.span + 2 * row_bound
    _check_span(bits, span)
    a._widen(layout, bits)
    b._widen(layout, bits)

    width = layout.width
    guard, bias, saturated, nonzero = _guards(layout, n)
    op = _operator(a, signs, row_width)
    admitted_by = op.admitted
    if admitted_by is None or admitted_by.key != (width, bits):
        entries = zip(a.keys, a.coeffs, range(len(a)), op.columns)
        lefts = [((entry[0] + nonzero) & guard, entry) for entry in entries]
        admitted_by = op.admitted = _Admitted((width, bits), lefts)
    offset, row_fields, row_size = op.offset, op.row_fields, op.row_size
    carried = b.rows if b.rows_for is op else repeat(None)
    fields = layout.fields
    slots: dict[int, int] = {}
    slot_of = slots.setdefault
    coeffs: list[int] = []
    low: list[int] = []
    rows: list[int] = []
    count = 0
    for xb, pb, eb, rb in zip(b.keys, b.coeffs, b.low, carried):
        admitted = admitted_by[(xb + saturated) & guard]
        if not admitted:
            continue
        if rb is None:
            rb = op.row(fields(xb))
        eb += offset
        exps = row_fields(rb.to_bytes(row_size, "little"))
        for xa, pa, i, column in admitted:
            x = xa + xb
            if drl_test and (x + bias) & guard:
                continue
            e = eb + exps[i]
            p = pb if pa == 1 else -pb if pa == -1 else pa * pb
            slot = slot_of(x, count)
            if slot == count:
                count += 1
                coeffs.append(p)
                low.append(e)
                rows.append(rb + column)
            else:
                old = low[slot]
                if e >= old:
                    coeffs[slot] += p << bits * (e - old)
                else:
                    coeffs[slot] = (coeffs[slot] << bits * (old - e)) + p
                    low[slot] = e
    keys = list(slots)
    if 0 in coeffs:
        nonzero_sums = [bool(p) for p in coeffs]
        keys, coeffs, low, rows = (list(compress(seq, nonzero_sums)) for seq in (keys, coeffs, low, rows))
    return WalkSum._packed(layout, bits, keys, coeffs, low, mass, min(top, n - 1), span, rows, op)


def letter_counts(ws: WalkSum) -> list[int]:
    """The letter count of each key of a packed sum, in key order: s + r +
    d summed over the crossings. The moved fields of a key sum to s + r +
    3d, so the count is that sum less twice the d fields'. With every
    field 0 or 1, as in a level-one sum, each sum is a popcount of the key
    (or of its d fields), read with no unpacking."""
    if not ws:
        return []
    d_fields = ws.layout.d_fields
    if ws.field_max <= 1:
        return [x.bit_count() - 2 * (x & d_fields).bit_count() for x in ws.keys]
    fields = ws.layout.fields
    return [sum(f) - 2 * sum(f[2::3]) for f in map(fields, ws.keys)]


def walk_series(level_one: WalkSum, signs: tuple[int, ...], n: int) -> tuple[WalkSum, int]:
    """The sum of every stack of the DRL height loop at color n, packed,
    with the number of stacks: S = L + L^2 + L^3 + ..., L = ``level_one``
    and L^(h+1) = L * L^h pruned by drl_keep at n, as multiply_walk_sums
    builds it, until a stack is empty.

    Pruning depends on the key alone and the product is linear in its right
    operand, so S = L + (L * S, pruned): the product of L by each distinct
    key of S, taken once with its full coefficient, rather than once for
    every height the key shows up at. A product key has the letters of its
    right key plus those of a level-one key, at least one more, so every key
    that adds into a key has fewer letters than it. Keys are therefore
    extended by increasing letter count (letter_counts), each one the first
    time its count comes up, when nothing more can add into it. A key whose
    coefficient sums to zero is neither extended nor kept.

    The pair loop is multiply_walk_sums's, on its parts: the left's
    operator (_Reorder), the lefts each saturation signature admits
    (_Admitted, here with each left's letter count), the DRL test, the
    exponent off the carried row, and the slot per key. The keys take the
    widths their bounds need once: the fields of a key of S are those of L
    or below n. The lane follows the summed stacks' mass, the sum over
    h <= depth of mass(L)^h, and the span the terms of a depth-h key can
    reach, h times the range of L's exponents widened by h - 1 row bounds;
    depth is the length of the longest chain of level-one keys that makes a
    key, and each key keeps its own. Before a key is extended, the products'
    depth is checked against the depth the lane and span cover: past it the
    lane widens in place, coefficients and lefts with it, and the span is
    checked again (OverflowError past PACKED_BITS_MAX).

    The count returned is the greatest depth of a kept key, the number of
    nonempty stacks. A chain has no more links than its key has letters,
    and a product's fields are below n, so the count stays below the height
    loop's cap of 2 * n * k; only a level-one key with no letter, whose
    chains never end, passes it, and that raises RuntimeError at once.
    """
    n = checked_int(n)
    if not level_one:
        return WalkSum.zero(), 0
    k = len(signs)
    level_one._check_crossings(k)
    letters = letter_counts(level_one)
    if not min(letters):
        raise RuntimeError(
            f"stack exceeded height cap {2 * n * k}; a level-one key with no letter stacks without end"
        )
    fields_a = level_one.field_max
    # a key of the series is a level-one key or a product, whose fields are below n
    layout, drl_test, row_bound, row_width = _pairing(level_one, max(fields_a, n - 1), n, level_one.layout.width)
    mass_one = level_one.mass
    low_one = min(level_one.low)
    high_one = low_one + level_one.span
    bits = level_one.bits
    # the first products have depth two: their span is checked before
    # anything is built, as the height loop's first multiply checks it
    first = _lane((mass_one * mass_one + mass_one).bit_length() + 2, bits)
    _check_span(first, _series_span(low_one, high_one, row_bound, 2))
    # the lane and span cover keys up to depth ``reach``, of summed mass ``mass``
    reach, mass = 1, mass_one
    level_one._widen(layout, bits)

    guard, bias, saturated, nonzero = _guards(layout, n)
    op = _operator(level_one, signs, row_width)
    offset, row_fields, row_size = op.offset, op.row_fields, op.row_size
    indices = range(len(level_one))

    def admitting() -> _Admitted:
        entries = zip(level_one.keys, level_one.coeffs, indices, op.columns, letters)
        return _Admitted((layout.width, bits), [((entry[0] + nonzero) & guard, entry) for entry in entries])

    admitted_by = admitting()
    count = len(level_one)
    slots = dict(zip(level_one.keys, range(count)))
    slot_of = slots.setdefault
    coeffs = list(level_one.coeffs)
    low = list(level_one.low)
    # a level-one key's row is its column plus the bias
    rows = [op.bias + column for column in op.columns]
    depth = [1] * count
    # levels[c] lists the keys of c letters; a product of a key adds at most
    # ``most`` letters, so the levels grow as the keys reach them
    most = max(letters)
    levels: list[list[int]] = [[] for _ in range(most + 1)]
    for x, c in zip(level_one.keys, letters):
        levels[c].append(x)
    appends = [xs.append for xs in levels]
    level = 0
    while level < len(levels):
        xs = levels[level]
        if xs and len(levels) <= level + most:
            grown = [[] for _ in range(level + most + 1 - len(levels))]
            levels += grown
            appends += [ys.append for ys in grown]
        for xb in xs:
            slot = slots[xb]
            pb = coeffs[slot]
            if not pb:
                continue
            admitted = admitted_by[(xb + saturated) & guard]
            if not admitted:
                continue
            db = depth[slot] + 1
            if db > reach:
                reach = db
                mass = mass * mass_one + mass_one
                wider = _lane(mass.bit_length() + 2, bits)
                _check_span(wider, _series_span(low_one, high_one, row_bound, reach))
                if wider != bits:
                    coeffs[:] = [_join(_split(p, bits), wider) for p in coeffs]
                    level_one._widen(layout, wider)
                    bits = wider
                    admitted_by = admitting()
                    admitted = admitted_by[(xb + saturated) & guard]
                    pb = coeffs[slot]
            rb = rows[slot]
            eb = low[slot] + offset
            exps = row_fields(rb.to_bytes(row_size, "little"))
            for xa, pa, i, column, c in admitted:
                x = xa + xb
                if drl_test and (x + bias) & guard:
                    continue
                e = eb + exps[i]
                p = pb if pa == 1 else -pb if pa == -1 else pa * pb
                at = slot_of(x, count)
                if at == count:
                    count += 1
                    coeffs.append(p)
                    low.append(e)
                    rows.append(rb + column)
                    depth.append(db)
                    appends[level + c](x)
                else:
                    old = low[at]
                    if e >= old:
                        coeffs[at] += p << bits * (e - old)
                    else:
                        coeffs[at] = (coeffs[at] << bits * (old - e)) + p
                        low[at] = e
                    if depth[at] < db:
                        depth[at] = db
        level += 1
    keys = list(slots)
    if 0 in coeffs:
        kept = [bool(p) for p in coeffs]
        keys, coeffs, low, depth = (list(compress(seq, kept)) for seq in (keys, coeffs, low, depth))
    if not keys:
        return WalkSum.zero(), 0
    heights = max(depth)
    # the field bound of the stack at each height, as multiply_walk_sums carries it
    field_max = bound = fields_a
    for _ in range(heights - 1):
        bound = min(bound + fields_a, n - 1)
        field_max = max(field_max, bound)
    summed = sum(mass_one ** h for h in range(1, heights + 1))
    span = _series_span(low_one, high_one, row_bound, heights)
    return WalkSum._packed(layout, bits, keys, coeffs, low, summed, field_max, span), heights


def _series_span(low: int, high: int, row_bound: int, depth: int) -> int:
    """A bound on the exponent spread of the terms of a series up to
    ``depth``: a depth-h term lies in [h low - (h - 1) row_bound, h high +
    (h - 1) row_bound], with [low, high] the level-one sum's exponents."""
    reordered = (depth - 1) * row_bound
    return max(high, depth * high + reordered) - min(low, depth * low - reordered)
