"""Crossing matrices, braid matrix, quantum determinant, walk generator."""
import random

import pytest

from conftest import key_from_letters
from walkjones.braid import BraidWord, NotAKnotError, parse_braid
from walkjones.burau import (
    BurauMatrix,
    braid_matrix,
    generator_matrix,
    quantum_det,
    reduced_matrix,
    unpruned_walk_count,
    walk_generator,
)
from walkjones.laurent import LaurentPolynomial
from walkjones.weyl import WalkSum, kernel_product, zero_key

P = LaurentPolynomial.parse


def ws(crossings: int, *words: str) -> WalkSum:
    """Walk sum with unit coefficients from words like 'a1 b2'; '' is the empty word."""
    out = WalkSum.zero()
    for word in words:
        out.add_into(key_from_letters(crossings, word), LaurentPolynomial.one())
    return out


def entries_of(matrix):
    return [[matrix.entries[u][v] for v in range(matrix.dimension)] for u in range(matrix.dimension)]


def test_generator_matrix_negative_in_b3():
    m = generator_matrix(1, 1, -1, 3, crossings=4)
    assert entries_of(m) == [
        [ws(4), ws(4, "c1"), ws(4)],
        [ws(4, "b1"), ws(4, "a1"), ws(4)],
        [ws(4), ws(4), ws(4, "")],
    ]


def test_generator_matrix_positive_second_index():
    m = generator_matrix(2, 2, 1, 3, crossings=4)
    assert entries_of(m) == [
        [ws(4, ""), ws(4), ws(4)],
        [ws(4), ws(4, "a2"), ws(4, "b2")],
        [ws(4), ws(4, "c2"), ws(4)],
    ]


def test_generator_matrix_is_block_on_two_strands():
    m = generator_matrix(1, 1, 1, 2)
    assert entries_of(m) == [[ws(1, "a1"), ws(1, "b1")], [ws(1, "c1"), ws(1)]]


def test_generator_matrix_bad_index():
    with pytest.raises(ValueError):
        generator_matrix(1, 3, 1, 3)


def test_braid_matrix_figure_eight_matches_display(fig8):
    m = braid_matrix(fig8)
    expected = [
        [ws(4, "c1 a2 b3"), ws(4, "c1 b2 c4", "c1 a2 a3 a4"), ws(4, "c1 a2 a3 b4")],
        [ws(4, "a1 a2 b3"), ws(4, "a1 b2 c4", "b1 c3 a4", "a1 a2 a3 a4"), ws(4, "b1 c3 b4", "a1 a2 a3 b4")],
        [ws(4, "c2 b3"), ws(4, "c2 a3 a4"), ws(4, "c2 a3 b4")],
    ]
    assert entries_of(m) == expected


def reference_matmul(a: BurauMatrix, b: BurauMatrix, signs) -> BurauMatrix:
    """The full m x m product of two matrices of walk sums."""
    m = a.dimension
    out = []
    for u in range(m):
        row = []
        for v in range(m):
            acc = WalkSum.zero()
            for w in range(m):
                left = a.entries[u][w]
                right = b.entries[w][v]
                if left and right:
                    acc = acc.merged_with(kernel_product(left, right, signs))
            row.append(acc)
        out.append(row)
    return BurauMatrix(m, out)


def test_braid_matrix_matches_generator_product_random():
    rng = random.Random(73)
    for _ in range(60):
        m = rng.randint(2, 6)
        crossings = tuple(
            (rng.randint(1, m - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))
        )
        braid = BraidWord(crossings, m)
        k, signs = braid.k, braid.signs()
        expected = BurauMatrix(m, [[ws(k, "") if u == v else ws(k) for v in range(m)] for u in range(m)])
        for ordinal, (index, sign) in enumerate(crossings, start=1):
            expected = reference_matmul(expected, generator_matrix(ordinal, index, sign, m, crossings=k), signs)
        assert entries_of(braid_matrix(braid)) == entries_of(expected), braid


def test_braid_matrix_trivial():
    m = braid_matrix(parse_braid("", strands=2))
    assert entries_of(m) == [[ws(0, ""), ws(0)], [ws(0), ws(0, "")]]


def test_braid_matrix_trefoil_corner():
    m = braid_matrix(parse_braid("1 1 1"))
    assert m.entries[1][1] == ws(3, "c1 a2 b3")


def test_reduced_matrix_figure_eight(fig8):
    r = reduced_matrix(braid_matrix(fig8))
    assert r.dimension == 2
    assert entries_of(r) == [
        [ws(4, "a1 b2 c4", "b1 c3 a4", "a1 a2 a3 a4"), ws(4, "b1 c3 b4", "a1 a2 a3 b4")],
        [ws(4, "c2 a3 a4"), ws(4, "c2 a3 b4")],
    ]


def test_reduced_matrix_of_generator_is_zero_entry():
    r = reduced_matrix(generator_matrix(1, 1, 1, 2))
    assert r.dimension == 1
    assert r.entries[0][0] == WalkSum.zero()


def test_reduced_matrix_identity():
    ident = braid_matrix(parse_braid("", strands=3))
    r = reduced_matrix(ident)
    assert entries_of(r) == [[ws(0, ""), ws(0)], [ws(0), ws(0, "")]]


def test_reduced_matrix_dimension_one_rejected():
    with pytest.raises(ValueError):
        reduced_matrix(BurauMatrix(1, [[WalkSum.zero()]]))


def test_quantum_det_one_by_one():
    entry = ws(2, "a1 b2")
    m = BurauMatrix(1, [[entry]])
    assert quantum_det(m, (1, 1)) == entry


def test_quantum_det_two_by_two_formula():
    # det_q [[a1, b1], [c1, 0]] = a1*0 - q c1 b1 = -q c1 b1 (key has s=r=1)
    m = generator_matrix(1, 1, 1, 2)
    det = quantum_det(m, (1,))
    assert len(det) == 1
    assert det.entries[key_from_letters(1, "b1 c1")] == P("-q^-1")
    # c1 b1 reorders to q^-2 b1 c1, and the permutation sign contributes -q


def test_quantum_det_figure_eight_full_subset(fig8, fig8_signs):
    # J = {2,3}: (-1)^(|J|-1) q^|J| det_q of the reduced matrix reproduces
    # -q^2 e11 e22 + q^3 e21 e12
    r = reduced_matrix(braid_matrix(fig8))
    det = quantum_det(r, fig8_signs)
    scaled = det.scaled(P("-q^2"))
    from walkjones.weyl import multiply_walk_sums

    e11, e12 = r.entries[0]
    e21, e22 = r.entries[1]
    direct = multiply_walk_sums(e11, e22, fig8_signs).scaled(P("-q^2")).merged_with(
        multiply_walk_sums(e21, e12, fig8_signs).scaled(P("q^3"))
    )
    assert scaled == direct


def test_walk_generator_figure_eight_unpruned_matches_paper_sum(fig8, fig8_signs):
    # the nine displayed walk monomials, normal-form reduced and merged
    from walkjones.oracle import FreeWord, free_normalize

    def letters(text):
        return tuple((tok[0], int(tok[1:])) for tok in text.split())

    monomials = [
        ("q^3", "c2 a3 a4 a1 a2 a3 b4"),
        ("-q^2", "a1 a2 a3 a4 c2 a3 b4"),
        ("q", "a1 a2 a3 a4"),
        ("q^3", "c2 a3 a4 b1 c3 b4"),
        ("-q^2", "b1 c3 a4 c2 a3 b4"),
        ("q", "b1 c3 a4"),
        ("-q^2", "a1 b2 c4 c2 a3 b4"),
        ("q", "c2 a3 b4"),
        ("q", "a1 b2 c4"),
    ]
    expected = WalkSum.zero()
    for coeff, text in monomials:
        m = free_normalize(FreeWord(letters(text), P(coeff)), fig8_signs)
        expected.add_into(m.key, m.coeff)
    assert walk_generator(fig8, prune_simple=False) == expected


def test_walk_generator_figure_eight_pruned(fig8):
    pruned = walk_generator(fig8, prune_simple=True)
    assert len(pruned) == 5
    q = P("q")
    for word in ("a1 a2 a3 a4", "b1 c3 a4", "c2 a3 b4", "a1 b2 c4"):
        assert pruned.entries[key_from_letters(4, word)] == q
    assert pruned.entries[key_from_letters(4, "a1 b2 c2 a3 b4 c4")] == P("-1")


def test_walk_generator_single_positive_crossing_is_empty():
    assert not walk_generator(parse_braid("1"), prune_simple=True)
    assert not walk_generator(parse_braid("1"), prune_simple=False)


def test_walk_generator_rejects_links():
    with pytest.raises(NotAKnotError):
        walk_generator(parse_braid("1 1"))


def test_walk_generator_prune_equals_filtered(fig8):
    full = walk_generator(fig8, prune_simple=False)
    assert full.filtered(2) == walk_generator(fig8, prune_simple=True)


def test_unpruned_walk_count():
    assert unpruned_walk_count(parse_braid("-1 2 -1 2")) == 9
    assert unpruned_walk_count(parse_braid("1 1 1")) == 1
    assert unpruned_walk_count(parse_braid("-1 -1 -1")) == 3
