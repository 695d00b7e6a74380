"""Knot invariance of J_3 on random knot-closure braids outside the table.

Markov's theorem: closures of two braids are the same knot iff the braids
are related by conjugation and (de)stabilization; the mirror image
substitutes q -> 1/q. Each example runs the whole pipeline, the DRL-pruned
stack multiply included, on braids of 2-4 strands and up to 8 crossings;
the R-matrix state sum of test_rmatrix checks the same braids directly.
"""
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from test_rmatrix import engine_times_quantum_dimension, rmatrix_trace
from walkjones.braid import BraidWord
from walkjones.cjp import colored_jones

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


@INVARIANTS
@given(knot_braids(), st.sampled_from((1, -1)))
def test_stabilization_invariance(braid, sign):
    stabilized = BraidWord(braid.crossings + ((braid.strands, sign),), braid.strands + 1)
    assert jones(stabilized) == jones(braid)


@INVARIANTS
@given(knot_braids())
def test_mirror_inverts_q(braid):
    assert jones(braid.mirror()) == jones(braid).invert_var()
    assert colored_jones(braid, COLOR, mirror_opt=False, drl=False).polynomial == jones(braid)


@INVARIANTS
@given(knot_braids())
def test_rmatrix_agrees(braid):
    assert rmatrix_trace(braid, COLOR) == engine_times_quantum_dimension(braid, COLOR)
