"""Deformed Burau matrices and the level-one walk generator.

The matrix attached to a crossing is the identity except for a 2x2 block:
[[a, b], [c, 0]] at a positive crossing and [[0, c], [b, a]] at a negative
one, with letters subscripted by the crossing ordinal. The braid matrix is
the ordered product over the word; dropping its first row and column gives
the reduced matrix R. The level-one walk sum is the quantum MacMahon form
sum over nonempty J of (-1)^(|J|-1) q^|J| det_q(R_J) = 1 - sum over all J
of det_q((-qR)_J). One recursion expands every principal minor at once:
at each column it leaves the column and its row out, or takes a free row,
so each partial product is computed once for all minors that share it.

The recursion runs on plain maps from keys to coefficient dicts and takes
the product of a partial product by one entry as a parameter. In a simple
walk each letter is used at most once (Armond, arXiv:1101.3810), so under
prune_simple (DRL at level 2) every partial product is a set of letters:
walk_generator keys them by letter bitmasks (_SimpleRule). Three
invariants of the walk model make that short: a braid matrix entry is a
set of paths with coefficient 1, so it is read as bare letter masks; the
DRL test of a pair is one AND, and after it two keys share a crossing only
as the left key's c and the right key's b; and the reordering form has
F[b][c] = 0. A pair's q-power is then two popcounts, one per crossing
sign. quantum_det and the unpruned generator, whose letter counts grow
past 1, multiply through the generic kernel and serve as the verification
path.

braid_matrix still multiplies through the kernel. Each of its entries is
a set of paths with coefficient 1, so a kernel-free build would only set
one letter slot per crossing. On top of the mask generator it measured
119 -> 222 jobs/s on the benchmark's table-n2n3 workload and 58 -> 125 on
markov-n2 (one 30 s run each, 2 vCPUs), but peak memory 24.2 -> 26.9 MB
and 21.1 -> 22.1 MB. At equal pass counts the memory is the same (22.8
and 22.7 MB after 20 passes, 25.8 and 26.0 MB after 40): the benchmark
keeps every polynomial it computes, so a faster engine runs more passes
in the same time and reads as a higher peak memory. The build waits for
the benchmark to stop keeping them.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from . import kernels
from .braid import BraidWord, NotAKnotError
from .laurent import LaurentPolynomial
from .weyl import WalkSum, kernel_product, letter_key, reordering_form, zero_key


@dataclass
class BurauMatrix:
    dimension: int
    entries: list[list[WalkSum]]


def _one(crossings: int) -> WalkSum:
    return WalkSum.single(zero_key(crossings), LaurentPolynomial.one())


def _letter(crossings: int, ordinal: int, kind: str) -> WalkSum:
    return WalkSum.single(letter_key(crossings, ordinal, kind), LaurentPolynomial.one())


def _identity(m: int, crossings: int) -> list[list[WalkSum]]:
    return [[_one(crossings) if u == v else WalkSum.zero() for v in range(m)] for u in range(m)]


def _block(crossings: int, ordinal: int, sign: int) -> tuple:
    """The 2x2 block ((top left, top right), (bottom left, bottom right)) of
    a crossing matrix, at rows and columns index - 1 and index."""
    a = _letter(crossings, ordinal, "a")
    b = _letter(crossings, ordinal, "b")
    c = _letter(crossings, ordinal, "c")
    if sign > 0:
        return (a, b), (c, WalkSum.zero())
    return (WalkSum.zero(), c), (b, a)


def generator_matrix(
    crossing_ordinal: int,
    index: int,
    sign: int,
    m: int,
    crossings: int | None = None,
) -> BurauMatrix:
    """The m x m crossing matrix for generator sigma_index^sign.

    ``crossings`` fixes the key width (total crossing count of the ambient
    braid); it defaults to ``crossing_ordinal``, which suffices for a
    matrix considered on its own.
    """
    if not 1 <= index <= m - 1:
        raise ValueError(f"generator index {index} out of range for {m} strands")
    k = crossings if crossings is not None else crossing_ordinal
    rows = _identity(m, k)
    i = index - 1
    rows[i][i : i + 2], rows[i + 1][i : i + 2] = _block(k, crossing_ordinal, sign)
    return BurauMatrix(m, rows)


def braid_matrix(braid: BraidWord) -> BurauMatrix:
    """Ordered product of the crossing matrices (first crossing leftmost).

    A crossing matrix is the identity outside its 2x2 block, so multiplying
    by it on the right rewrites only columns index - 1 and index.
    """
    k = braid.k
    signs = braid.signs()
    rows = _identity(braid.strands, k)
    for ordinal, (index, sign) in enumerate(braid.crossings, start=1):
        i = index - 1
        (tl, tr), (bl, br) = _block(k, ordinal, sign)
        for row in rows:
            left, right = row[i], row[i + 1]
            row[i] = kernel_product(left, tl, signs).merged_with(kernel_product(right, bl, signs))
            row[i + 1] = kernel_product(left, tr, signs).merged_with(kernel_product(right, br, signs))
    return BurauMatrix(braid.strands, rows)


def reduced_matrix(matrix: BurauMatrix) -> BurauMatrix:
    """Drop the first row and first column."""
    if matrix.dimension < 2:
        raise ValueError("cannot reduce a matrix of dimension < 2")
    return BurauMatrix(
        matrix.dimension - 1,
        [row[1:] for row in matrix.entries[1:]],
    )


def _items(ws: WalkSum, shift: int = 0, sign: int = 1) -> list:
    """A walk sum as (key, coefficient dict) pairs, each coefficient times
    sign * q^shift."""
    return [(key, {e + shift: sign * c for e, c in coeff.terms.items()}) for key, coeff in ws.entries.items()]


# ASCII binary digits to the counts 0 and 1
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")

# (sign, F[c][b]) for each crossing sign's reordering form F (see _SimpleRule)
_C_B = tuple((sign, reordering_form(sign)[1][0]) for sign in (1, -1))


class _SimpleRule:
    """Simple-walk products on letter bitmasks, for one sign vector, with
    each entry scaled by sign * q^shift.

    Under DRL at level 2 every key has, per crossing, counts (s, r, d) in
    {000, 100, 010, 110, 001}, so it is a set of letters: bit 3j + slot
    holds the letter of crossing j, with slot b = 0, c = 1, a = 2 as in the
    tuple keys. The product of two simple keys k1, k2 is k1 | k2, and it is
    simple unless k1 & k2 != 0 or (K >> 2) & (K | K >> 1) & M != 0, where
    K = k1 | k2 and M holds bit 0 of every crossing. Both tests are one:
    k1 & conflicts(k2), where conflicts(k2) holds k2's letters, every slot
    of a crossing where k2 has its a, and the a slot where k2 has b or c.

    Three invariants of the walk model keep the rest short:
    - a braid matrix entry is a set of paths, each with coefficient 1 and
      at most one letter per crossing, so an entry is its letter masks;
    - after the conflict test, two keys share a crossing only as the left
      key's c and the right key's b;
    - the reordering form F of either sign (weyl.reordering_form) has
      F[b][c] = 0.
    So of the form's nine terms only F[c][b] fires, and a pair's q-power
    is F+[c][b] * |(k1 >> 1) & k2 & B+| + F-[c][b] * |(k1 >> 1) & k2 & B-|,
    B+ and B- the b slots of the crossings of each sign: per left key two
    ANDs, then per pair two ANDs and two popcounts.
    """

    __slots__ = ("width", "crossings", "bits", "signed", "shift", "sign")

    def __init__(self, signs: tuple[int, ...], shift: int, sign: int):
        self.width = 3 * len(signs)
        self.crossings = sum(1 << 3 * j for j in range(len(signs)))
        self.bits = [1 << b for b in range(self.width)]
        # (F[c][b], B) for each crossing sign
        self.signed = [
            (weight, sum(1 << 3 * j for j, t in enumerate(signs) if (t > 0) == (s > 0))) for s, weight in _C_B
        ]
        self.shift, self.sign = shift, sign

    def entry(self, ws: WalkSum) -> list:
        """A braid matrix entry as (mask, conflicts) pairs."""
        crossings, bits = self.crossings, self.bits
        out = []
        for key in ws.entries:
            mask = sum(compress(bits, key))
            a = (mask >> 2) & crossings
            out.append((mask, mask | a * 7 | ((mask | mask >> 1) & crossings) << 2))
        return out

    def key(self, mask: int) -> tuple[int, ...]:
        """The tuple key of a letter mask."""
        return tuple(f"{mask:0{self.width}b}"[::-1].encode().translate(_DIGITS))


def _simple_products(partial: dict, entry: list, rule: _SimpleRule) -> dict:
    """partial * entry on simple walks: partial maps letter masks to
    coefficient dicts, entry is a list from _SimpleRule.entry."""
    (w_plus, b_plus), (w_minus, b_minus) = rule.signed
    shift, sign = rule.shift, rule.sign
    out: dict = {}
    cancelled = False
    for k1, c1 in partial.items():
        c_plus, c_minus = (k1 >> 1) & b_plus, (k1 >> 1) & b_minus
        terms1 = [(e + shift, sign * v) for e, v in c1.items()]
        for k2, conflicts in entry:
            if k1 & conflicts:
                continue
            delta = w_plus * (c_plus & k2).bit_count() + w_minus * (c_minus & k2).bit_count()
            key = k1 | k2
            acc = out.get(key)
            if acc is None:
                acc = out[key] = {}
            for e, v in terms1:
                e += delta
                v += acc.get(e, 0)
                if v:
                    acc[e] = v
                else:
                    del acc[e]
                    cancelled = True
    return {key: c for key, c in out.items() if c} if cancelled else out


def _kernel_products(partial: dict, entry: list, rule: tuple) -> dict:
    """partial * entry through the generic kernel; rule is (signs, DRL limit)."""
    signs, limit = rule
    return kernels.walk_products(list(partial.items()), entry, signs, limit)


def _minor_sum(entries, product, rule, optional, total, col, used, skipped, inv, partial) -> None:
    """Add into ``total`` det_q of every principal minor of ``entries`` that
    leaves out only indices in the bitmask ``optional``. At column ``col``:
    leave it out, if optional and its row is free, or take each free row
    whose column was not left out. Partial products and ``total`` map keys
    to coefficient dicts, and product(partial, entry, rule) multiplies a
    partial product by one entry. Module level, so that no closure cycle
    outlives a call.
    """
    if not partial:
        return
    if col == len(entries):
        sign = -1 if inv % 2 else 1
        for key, terms in partial.items():
            acc = total.get(key)
            if acc is None:
                acc = total[key] = {}
            for e, c in terms.items():
                e += inv
                v = acc.get(e, 0) + sign * c
                if v:
                    acc[e] = v
                else:
                    del acc[e]
        return
    bit = 1 << col
    if optional & bit and not used & bit:
        _minor_sum(entries, product, rule, optional, total, col + 1, used, skipped | bit, inv, partial)
    for row, line in enumerate(entries):
        row_bit = 1 << row
        if line[col] and not (used | skipped) & row_bit:
            # rows already taken that are greater than this one each add an inversion
            added = bin(used >> (row + 1)).count("1")
            taken = used | row_bit
            _minor_sum(
                entries, product, rule, optional, total, col + 1, taken, skipped, inv + added,
                product(partial, line[col], rule),
            )


def _walk_sum(total: dict, key=None, sign: int = 1) -> WalkSum:
    """A {key: coefficient dict} map as a walk sum, times sign, with keys
    mapped through ``key`` if given."""
    return WalkSum._raw({
        key(k) if key else k: LaurentPolynomial._raw({e: sign * c for e, c in terms.items()})
        for k, terms in total.items()
        if terms
    })


def quantum_det(matrix: BurauMatrix, signs: tuple[int, ...], prune_n: int | None = None) -> WalkSum:
    """Quantum determinant: sum over permutations of (-q)^inv(pi) times the
    column-ordered entry product. ``prune_n`` applies the duplicate-reduction
    filter after each partial multiplication."""
    total: dict = {}
    entries = [[_items(e) for e in row] for row in matrix.entries]
    one = {zero_key(len(signs)): {0: 1}}
    _minor_sum(entries, _kernel_products, (signs, prune_n or 0), 0, total, 0, 0, 0, 0, one)
    return _walk_sum(total)


def _permanent(sizes: list[list[int]], col: int = 0, used: int = 0) -> int:
    if col == len(sizes):
        return 1
    return sum(
        line[col] * _permanent(sizes, col + 1, used | 1 << row)
        for row, line in enumerate(sizes)
        if line[col] and not used & 1 << row
    )


def unpruned_walk_count(braid: BraidWord) -> int:
    """Number of walk monomials in the level-one determinant expansion,
    before any like-key cancellation or pruning.

    Distinct paths from u to v have distinct keys, so the count of words in
    a matrix entry is its entry size S[u][v], and the number of determinant
    products, summed over every principal minor J (the empty one counting
    1), is sum_J perm(S_J) = perm(I + S).
    """
    if not braid.is_knot_closure():
        raise NotAKnotError(f"closure of {braid} is not a knot")
    reduced = reduced_matrix(braid_matrix(braid))
    sizes = [[len(e) + (u == v) for v, e in enumerate(row)] for u, row in enumerate(reduced.entries)]
    return _permanent(sizes) - 1


def walk_generator(braid: BraidWord, prune_simple: bool = True) -> WalkSum:
    """The level-one walk sum of a braid whose closure is a knot:
    1 - sum over all J of det_q((-qR)_J), R the reduced braid matrix. The
    empty minor is 1 and det_q((-qR)_J) = (-q)^|J| det_q(R_J), so this is
    the sum over nonempty J of (-1)^(|J|-1) q^|J| det_q(R_J). Each entry is
    scaled by -q once and every index is optional in _minor_sum. With
    prune_simple, the duplicate-reduction filter at level 2 runs on each
    partial product, leaving exactly the simple walks, and partial products
    are letter bitmasks (_SimpleRule); without it they go through the
    generic kernel.
    """
    if not braid.is_knot_closure():
        raise NotAKnotError(f"closure of {braid} is not a knot")
    if braid.strands < 2:
        raise ValueError("walk generator needs at least 2 strands")
    signs = braid.signs()
    reduced = reduced_matrix(braid_matrix(braid)).entries
    if prune_simple:
        rule = _SimpleRule(signs, 1, -1)
        entries = [[rule.entry(e) for e in row] for row in reduced]
        product, one, key = _simple_products, 0, rule.key
    else:
        entries = [[_items(e, 1, -1) for e in row] for row in reduced]
        product, rule, one, key = _kernel_products, (signs, 0), zero_key(braid.k), None
    total = {one: {0: -1}}
    every = (1 << len(entries)) - 1
    _minor_sum(entries, product, rule, every, total, 0, 0, 0, 0, {one: {0: 1}})
    return _walk_sum(total, key, -1)
