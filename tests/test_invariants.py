"""Knot invariance of J_3 on random knot-closure braids outside the table.

Markov's theorem: closures of two braids are the same knot iff the braids
are related by conjugation and (de)stabilization; the mirror image
substitutes q -> 1/q. Each example runs the whole pipeline, the DRL-pruned
stack multiply included, on braids of 2-4 strands and up to 8 crossings;
the R-matrix state sum of test_rmatrix checks the same braids directly,
and the reduced Burau representation gives the knot determinant, which
|J_2(-1)| must equal.
"""
from itertools import permutations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import rotations, with_relator
from test_rmatrix import engine_times_quantum_dimension, rmatrix_trace
from walkjones.braid import BraidWord
from walkjones.cjp import colored_jones, rewrites
from walkjones.table import knot_lookup

COLOR = 3
INVARIANTS = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)


@st.composite
def knot_braids(draw):
    strands = draw(st.integers(2, 4))
    letter = st.tuples(st.integers(1, strands - 1), st.sampled_from((1, -1)))
    braid = BraidWord(tuple(draw(st.lists(letter, max_size=8))), strands)
    assume(braid.is_knot_closure())
    return braid


def jones(braid: BraidWord):
    return colored_jones(braid, COLOR).polynomial


@INVARIANTS
@given(knot_braids(), st.data())
def test_conjugation_invariance(braid, data):
    # conjugate by one generator, then rotate the word cyclically
    g = data.draw(st.integers(1, braid.strands - 1))
    sign = data.draw(st.sampled_from((1, -1)))
    word = ((g, sign),) + braid.crossings + ((g, -sign),)
    r = data.draw(st.integers(0, len(word) - 1))
    moved = BraidWord(word[r:] + word[:r], braid.strands)
    assert jones(moved) == jones(braid)
    # a rotation reaches the engine as the source's word; a braid relator
    # inserted into the moved word is a move the reducer cannot undo
    if braid.strands >= 3:
        index = data.draw(st.integers(1, braid.strands - 2))
        position = data.draw(st.integers(0, moved.k))
        related = with_relator(moved, index, position, data.draw(st.booleans()))
        assert related.reduced() not in rotations(braid.reduced())
        assert jones(related) == jones(braid)
        for color in (2, 4):
            assert colored_jones(related, color).polynomial == colored_jones(braid, color).polynomial
    # so is a move of the orientation descent (cjp.rewrites) on the moved
    # word, where it leaves a word that is no rotation of the source's
    rewritten = [w for w in rewrites(moved) if w != moved.rotated(1) and w.reduced() not in rotations(braid.reduced())]
    if rewritten:
        assert jones(data.draw(st.sampled_from(rewritten))) == jones(braid)


@INVARIANTS
@given(knot_braids(), st.sampled_from((1, -1)))
def test_stabilization_invariance(braid, sign):
    # the reducer takes a new top or bottom strand away; a braid relator on
    # the bottom two strands, appended with its first letter of the
    # stabilization's sign, cancels against nothing and keeps sigma_1 four
    # times, so the engine runs the bottom stabilization itself
    stabilized = BraidWord(braid.crossings + ((braid.strands, sign),), braid.strands + 1)
    lifted = BraidWord(((1, sign),) + tuple((i + 1, s) for i, s in braid.crossings), braid.strands + 1)
    assert jones(stabilized) == jones(lifted) == jones(braid)
    related = with_relator(lifted, 1, lifted.k, sign < 0)
    assert sum(i == 1 for i, _ in related.reduced().crossings) == 4
    assert jones(related) == jones(braid)


@INVARIANTS
@given(knot_braids())
def test_mirror_inverts_q(braid):
    assert jones(braid.mirror()) == jones(braid).invert_var()
    assert colored_jones(braid, COLOR, mirror_opt=False, drl=False).polynomial == jones(braid)


@INVARIANTS
@given(knot_braids())
def test_color_one_is_one(braid):
    # every level-one key carries an a letter, so the first height is zero
    for drl in (True, False):
        assert colored_jones(braid, 1, mirror_opt=False, drl=drl).polynomial == 1


@INVARIANTS
@given(knot_braids())
def test_rmatrix_agrees(braid):
    assert rmatrix_trace(braid, COLOR) == engine_times_quantum_dimension(braid, COLOR)


@INVARIANTS
@given(knot_braids())
def test_flip_invariance(braid):
    # sigma_i -> sigma_(m-i) is conjugation by the half twist
    flipped = BraidWord(tuple((braid.strands - i, s) for i, s in braid.crossings), braid.strands)
    assert jones(flipped) == jones(braid)


def laurent_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for ex, cx in x.items():
        for ey, cy in y.items():
            out[ex + ey] = out.get(ex + ey, 0) + cx * cy
    return {e: c for e, c in out.items() if c}


def laurent_sum(terms) -> dict:
    out: dict = {}
    for x in terms:
        for e, c in x.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def reduced_burau(braid: BraidWord) -> list:
    """The reduced Burau matrix, of dimension m - 1, with entries in Z[t, 1/t]
    as {exponent: coefficient}: sigma_i acts on rows and columns i - 1, i,
    i + 1 (1-based) by [[1, t, 0], [0, -t, 0], [0, 1, 1]] and its inverse
    by [[1, 1, 0], [0, -1/t, 0], [0, 1/t, 1]], cut to the rows that exist."""
    n = braid.strands - 1
    blocks = {
        1: [[{0: 1}, {1: 1}, {}], [{}, {1: -1}, {}], [{}, {0: 1}, {0: 1}]],
        -1: [[{0: 1}, {0: 1}, {}], [{}, {-1: -1}, {}], [{}, {-1: 1}, {0: 1}]],
    }
    matrix = [[{0: 1} if u == v else {} for v in range(n)] for u in range(n)]
    for i, sign in braid.crossings:
        step = [[{0: 1} if u == v else {} for v in range(n)] for u in range(n)]
        for a, line in enumerate(blocks[sign]):
            for b, entry in enumerate(line):
                if 0 <= i - 2 + a < n and 0 <= i - 2 + b < n:
                    step[i - 2 + a][i - 2 + b] = entry
        matrix = [[laurent_sum(laurent_mul(row[x], step[x][v]) for x in range(n)) for v in range(n)] for row in matrix]
    return matrix


def alexander(braid: BraidWord) -> list:
    """The Alexander polynomial's coefficients, lowest degree first, up to
    a unit: det(I - reduced Burau) = Alexander(t) times 1 + t + ... +
    t^(m-1) up to a unit; the division is done on polynomials because the
    divisor vanishes at t = -1 for even m."""
    burau = reduced_burau(braid)
    n = len(burau)
    minus = [[laurent_sum([{0: 1} if u == v else {}, {e: -c for e, c in burau[u][v].items()}]) for v in range(n)]
             for u in range(n)]
    det: dict = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        product = {0: -1 if inversions % 2 else 1}
        for u, v in enumerate(perm):
            product = laurent_mul(product, minus[u][v])
        det = laurent_sum([det, product])
    low = min(det)
    dividend = [det.get(e, 0) for e in range(low, max(det) + 1)]
    quotient = []
    while len(dividend) >= braid.strands:  # divide by 1 + t + ... + t^(m-1), highest term first
        lead = dividend[-1]
        quotient.append(lead)
        for j in range(braid.strands):
            dividend[len(dividend) - 1 - j] -= lead
        dividend.pop()
    assert not any(dividend), "det(I - Burau) is not divisible by 1 + t + ... + t^(m-1)"
    coeffs = quotient[::-1]
    while not coeffs[-1]:
        coeffs.pop()
    while not coeffs[0]:
        coeffs.pop(0)
    return coeffs


def knot_determinant(braid: BraidWord) -> int:
    """|Alexander(-1)|."""
    return abs(sum(c * (-1) ** e for e, c in enumerate(alexander(braid))))


@pytest.mark.parametrize("name, det", [("3_1", 3), ("4_1", 5), ("5_1", 5), ("5_2", 7), ("6_1", 9), ("7_1", 7)])
def test_knot_determinant_of_table_knots(name, det):
    assert knot_determinant(knot_lookup(name).braid_word()) == det


@INVARIANTS
@given(knot_braids())
def test_jones_at_minus_one_is_determinant(braid):
    j2 = colored_jones(braid, 2).polynomial
    assert abs(sum(c * (-1) ** e for e, c in j2.terms.items())) == knot_determinant(braid)
