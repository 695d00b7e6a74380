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
"""
from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, NotAKnotError
from .laurent import LaurentPolynomial
from .weyl import WalkSum, kernel_product, letter_key, zero_key


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


def _minor_sum(entries, signs, limit, optional, total, col, used, skipped, inv, partial) -> None:
    """Add into ``total`` det_q of every principal minor of ``entries`` that
    leaves out only indices in the bitmask ``optional``. At column ``col``:
    leave it out, if optional and its row is free, or take each free row
    whose column was not left out. ``limit`` > 0 applies the DRL filter to
    each partial product. Module level, so that no closure cycle outlives a call.
    """
    if not partial:
        return
    if col == len(entries):
        coeff = LaurentPolynomial.q_power(inv, -1 if inv % 2 else 1)
        for key, c in partial.scaled(coeff).entries.items():
            total.add_into(key, c)
        return
    bit = 1 << col
    if optional & bit and not used & bit:
        _minor_sum(entries, signs, limit, optional, total, col + 1, used, skipped | bit, inv, partial)
    for row, line in enumerate(entries):
        row_bit = 1 << row
        if line[col] and not (used | skipped) & row_bit:
            # rows already taken that are greater than this one each add an inversion
            added = bin(used >> (row + 1)).count("1")
            product = kernel_product(partial, line[col], signs, limit)
            taken = used | row_bit
            _minor_sum(entries, signs, limit, optional, total, col + 1, taken, skipped, inv + added, product)


def quantum_det(matrix: BurauMatrix, signs: tuple[int, ...], prune_n: int | None = None) -> WalkSum:
    """Quantum determinant: sum over permutations of (-q)^inv(pi) times the
    column-ordered entry product. ``prune_n`` applies the duplicate-reduction
    filter after each partial multiplication."""
    total = WalkSum.zero()
    _minor_sum(matrix.entries, signs, prune_n or 0, 0, total, 0, 0, 0, 0, _one(len(signs)))
    return total


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
    partial product, leaving exactly the simple walks.
    """
    if not braid.is_knot_closure():
        raise NotAKnotError(f"closure of {braid} is not a knot")
    if braid.strands < 2:
        raise ValueError("walk generator needs at least 2 strands")
    signs = braid.signs()
    minus_q, minus_one = LaurentPolynomial.q_power(1, -1), LaurentPolynomial.constant(-1)
    scaled = [[e.scaled(minus_q) for e in row] for row in reduced_matrix(braid_matrix(braid)).entries]
    total = WalkSum.single(zero_key(braid.k), minus_one)
    every = (1 << len(scaled)) - 1
    _minor_sum(scaled, signs, 2 if prune_simple else 0, every, total, 0, 0, 0, 0, _one(braid.k))
    return total.scaled(minus_one)
