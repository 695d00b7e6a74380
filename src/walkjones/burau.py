"""Deformed Burau matrices and the simple-walk generator.

The matrix attached to a crossing is the identity except for a 2x2 block:
[[a, b], [c, 0]] at a positive crossing and [[0, c], [b, a]] at a negative
one, with letters subscripted by the crossing ordinal. The braid matrix is
the ordered product over the word; dropping its first row and column gives
the reduced matrix whose quantum determinant expansion enumerates walk
weights.
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


def quantum_det(matrix: BurauMatrix, signs: tuple[int, ...], prune_n: int | None = None) -> WalkSum:
    """Quantum determinant: sum over permutations of (-q)^inv(pi) times the
    column-ordered entry product. ``prune_n`` applies the duplicate-reduction
    filter after each partial multiplication."""
    n = matrix.dimension
    ent = matrix.entries
    result = WalkSum.zero()
    limit = prune_n or 0

    def expand(col: int, used: int, inv: int, partial: WalkSum) -> None:
        if not partial:
            return
        if col == n:
            coeff = LaurentPolynomial.q_power(inv, -1 if inv % 2 else 1)
            for key, c in partial.scaled(coeff).entries.items():
                result.add_into(key, c)
            return
        for row in range(n):
            bit = 1 << row
            if used & bit:
                continue
            entry = ent[row][col]
            if not entry:
                continue
            # rows already chosen that are greater than this one each add an inversion
            added = sum(1 for r in range(row + 1, n) if used & (1 << r))
            expand(col + 1, used | bit, inv + added, kernel_product(partial, entry, signs, limit))

    k = len(signs)
    expand(0, 0, 0, _one(k))
    return result


def unpruned_walk_count(braid: BraidWord) -> int:
    """Number of walk monomials in the level-one determinant expansion,
    before any like-key cancellation or pruning.

    Distinct paths from u to v have distinct keys, so the count of words in
    a matrix entry is its entry size, and the number of determinant products
    is the permanent of the entry-size submatrix, summed over subsets.
    """
    if not braid.is_knot_closure():
        raise NotAKnotError(f"closure of {braid} is not a knot")
    reduced = reduced_matrix(braid_matrix(braid))
    sizes = [[len(e) for e in row] for row in reduced.entries]
    n = reduced.dimension

    def permanent(rows: list[int], cols: list[int]) -> int:
        if not cols:
            return 1
        col = cols[0]
        return sum(
            sizes[r][col] * permanent(rows[:i] + rows[i + 1 :], cols[1:])
            for i, r in enumerate(rows)
            if sizes[r][col]
        )

    total = 0
    for mask in range(1, 1 << n):
        picked = [i for i in range(n) if mask & (1 << i)]
        total += permanent(picked, picked)
    return total


def walk_generator(braid: BraidWord, prune_simple: bool = True) -> WalkSum:
    """The level-one walk sum of a braid whose closure is a knot.

    Expands, over every nonempty subset J of the reduced strand range, the
    quantum determinant of the J-submatrix of q * reduced braid matrix with
    sign (-1)^(|J|-1); the q scaling contributes q^|J| per determinant term.
    With prune_simple, the duplicate-reduction filter at level 2 runs during
    accumulation, leaving exactly the simple walks.
    """
    if not braid.is_knot_closure():
        raise NotAKnotError(f"closure of {braid} is not a knot")
    m = braid.strands
    if m < 2:
        raise ValueError("walk generator needs at least 2 strands")
    signs = braid.signs()
    reduced = reduced_matrix(braid_matrix(braid))
    size = reduced.dimension
    prune_n = 2 if prune_simple else None
    total = WalkSum.zero()
    for mask in range(1, 1 << size):
        picked = [i for i in range(size) if mask & (1 << i)]
        sub = BurauMatrix(
            len(picked),
            [[reduced.entries[u][v] for v in picked] for u in picked],
        )
        det = quantum_det(sub, signs, prune_n)
        scale = LaurentPolynomial.q_power(len(picked), -1 if (len(picked) - 1) % 2 else 1)
        for key, coeff in det.scaled(scale).entries.items():
            total.add_into(key, coeff)
    return total
