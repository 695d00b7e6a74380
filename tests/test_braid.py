"""Braid word parsing and closure combinatorics."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import composite_word, markov_moved
from walkjones.braid import BraidWord, parse_braid
from walkjones.cjp import cut_candidates
from test_table import _splits
from walkjones.table import load_table


def rand_braid(rng, max_strands=5, max_len=10):
    m = rng.randint(2, max_strands)
    k = rng.randint(1, max_len)
    crossings = tuple((rng.randint(1, m - 1), rng.choice((1, -1))) for _ in range(k))
    return BraidWord(crossings, m)


def test_parse_figure_eight():
    b = parse_braid("-1 2 -1 2")
    assert b.k == 4
    assert b.strands == 3
    assert b.crossings == ((1, -1), (2, 1), (1, -1), (2, 1))


def test_parse_trefoil():
    b = parse_braid("1 1 1")
    assert b.k == 3 and b.strands == 2


def test_parse_zero_token_rejected():
    with pytest.raises(ValueError):
        parse_braid("0 2")


def test_parse_commas_allowed():
    assert parse_braid("1, -2, 1, -2") == parse_braid("1 -2 1 -2")


def test_parse_strands_override():
    b = parse_braid("1 1 1", strands=4)
    assert b.strands == 4
    with pytest.raises(ValueError):
        parse_braid("1 2 3", strands=2)


def test_parse_empty_with_override():
    b = parse_braid("", strands=3)
    assert b.k == 0 and b.strands == 3
    assert parse_braid("").strands == 1


def test_closure_permutation_figure_eight():
    assert parse_braid("-1 2 -1 2").closure_permutation() == (3, 1, 2)


def test_closure_permutation_trivial():
    assert parse_braid("", strands=1).closure_permutation() == (1,)


def test_closure_permutation_two_crossings_cancel():
    assert parse_braid("1 1").closure_permutation() == (1, 2)


def test_is_knot_closure():
    assert parse_braid("-1 2 -1 2").is_knot_closure()
    assert not parse_braid("1 1").is_knot_closure()
    assert parse_braid("", strands=1).is_knot_closure()
    # an m-cycle needs m - 1 transpositions; fewer crossings answer at once,
    # whatever the strand count
    assert parse_braid("1 2").is_knot_closure()
    assert not parse_braid("1", strands=3).is_knot_closure()
    assert not parse_braid("1", strands=1 << 64).is_knot_closure()
    assert not parse_braid(str(1 << 64)).is_knot_closure()


def test_writhe():
    assert parse_braid("-1 2 -1 2").writhe() == 0
    assert parse_braid("1 1 1").writhe() == 3
    assert parse_braid("-1").writhe() == -1


def test_mirror():
    assert parse_braid("-1 2 -1 2").mirror() == parse_braid("1 -2 1 -2")
    assert parse_braid("1 1 1").mirror() == parse_braid("-1 -1 -1")


def test_mirror_involution_random():
    rng = random.Random(5)
    for _ in range(200):
        b = rand_braid(rng)
        assert b.mirror().mirror() == b


def test_mirror_preserves_permutation_and_negates_writhe():
    rng = random.Random(6)
    for _ in range(200):
        b = rand_braid(rng)
        assert b.mirror().closure_permutation() == b.closure_permutation()
        assert b.mirror().writhe() == -b.writhe()


def test_knot_closure_parity():
    # an m-cycle is an odd/even permutation per m-1, so k = m-1 (mod 2)
    rng = random.Random(8)
    seen = 0
    for _ in range(500):
        b = rand_braid(rng)
        if b.is_knot_closure():
            seen += 1
            assert (b.k - (b.strands - 1)) % 2 == 0
            assert (b.writhe() - b.strands + 1) % 2 == 0
    assert seen > 50


def test_bad_construction():
    with pytest.raises(ValueError):
        BraidWord(((3, 1),), 3)
    with pytest.raises(ValueError):
        BraidWord(((1, 2),), 3)
    with pytest.raises(ValueError):
        BraidWord((), 0)


def test_text_roundtrip():
    b = parse_braid("-1 2 -1 2")
    assert parse_braid(b.text()) == b


@pytest.mark.parametrize("text, strands, reduced, reduced_strands", [
    ("1", None, "", 1),  # an unknot on two strands destabilizes to one
    ("1 1 1 2", None, "1 1 1", 2),
    ("-1 1 1 2 1 1", None, "1 1 1", 2),  # a pair across the ends, then a pair inside
    ("2 1 1 2 1 -2", None, "1 1 1", 2),  # a conjugation spanning the ends, then a stabilization
    ("1 -2 1 -2", None, "1 -2 1 -2", 3),  # the top index appears twice
    ("-1 2 2 2", None, "1 1 1", 2),  # a stabilization on the bottom strand, indices moved down
    ("2 -1 -2 2 3 3 3", None, "1 1 1", 2),  # a bottom stabilization lets a pair cancel, then another
    ("1 -1", None, "", 2),  # two components stay two: the top index is gone, not single
    ("1 1 1", 3, "1 1 1", 3),  # the unused top strand is a split component, not a stabilization
    ("1", 3, "", 2),  # a bottom stabilization beside a split top strand: two components stay two
])
def test_reduced_examples(text, strands, reduced, reduced_strands):
    b = parse_braid(text, strands)
    got = b.reduced()
    assert (got.text(), got.strands) == (reduced, reduced_strands)
    assert got.is_knot_closure() == b.is_knot_closure()
    assert got.reduced() == got


def test_reduced_is_idempotent_and_keeps_the_closure_type():
    rng = random.Random(11)
    for _ in range(400):
        b = rand_braid(rng, max_strands=4, max_len=8)
        got = b.reduced()
        assert got.reduced() == got
        assert got.is_knot_closure() == b.is_knot_closure()
        assert got.k <= b.k and got.strands <= b.strands
        assert (b.k - got.k - (b.strands - got.strands)) % 2 == 0


def test_reduced_leaves_table_braids_and_their_flips_unchanged():
    # so the table workloads run exactly the words they ran before reduction
    for rec in load_table():
        b = rec.braid_word()
        assert b.reduced() == b and b.flip().reduced() == b.flip(), rec.name


def test_reduced_undoes_markov_moves():
    rng = random.Random(20)
    for rec in load_table():
        b = rec.braid_word()
        moved = markov_moved(rng, b)
        assert moved.is_knot_closure() and moved.strands >= b.strands + 2, rec.name
        got = moved.reduced()
        assert (got.strands, got.k) == (b.strands, b.k), rec.name
        assert got in {b.rotated(r) for r in range(b.k)}, rec.name
        assert got.reduced() == got and got.is_knot_closure(), rec.name


@st.composite
def knot_words(draw):
    # a random word, then letters of random sign, each on two neighbouring
    # strands in different cycles of the closure, which it joins, until
    # the closure is one cycle
    strands = draw(st.integers(2, 7))
    sign = st.sampled_from((1, -1))
    braid = BraidWord(tuple(draw(st.lists(st.tuples(st.integers(1, strands - 1), sign), max_size=12))), strands)
    while not braid.is_knot_closure():
        perm = braid.closure_permutation()
        cycle, at = {1}, perm[0]
        while at != 1:
            cycle.add(at)
            at = perm[at - 1]
        i = next(i for i in range(1, strands) if (i in cycle) != (i + 1 in cycle))
        braid = BraidWord(braid.crossings + ((i, draw(sign)),), strands)
    return braid


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
)
@given(knot_words())
def test_knot_writhe_parity(braid):
    # a knot closure on m strands is an m-cycle, the product of one
    # transposition per crossing, so k = m - 1 (mod 2), and writhe = k
    # (mod 2): the framing exponent (N-1)(writhe - m + 1)/2 of colored_jones
    # is an integer on every word the engine may run, since reduction, the
    # cut rotations, the flip and the mirror keep a knot a knot
    reduced = braid.reduced()
    for word in (braid, reduced, reduced.flip(), reduced.mirror(), *cut_candidates(reduced)):
        assert word.is_knot_closure(), word
        assert (word.writhe() - word.strands + 1) % 2 == 0, word


@pytest.mark.parametrize("text, u, v", [
    ("1 1 1 -2 -2 -2", "1 1 1", "-1 -1 -1"),  # the square knot
    ("-2 -2 1 1 1 -2", "1 1 1", "-1 -1 -1"),  # rotated: the factors start at the sigma_1 block
    ("1 1 1 -2 -2 -2 3 3 3", "1 1 1", "-1 -1 -1 2 2 2"),  # the 9_35 entry splits at the least strand
    ("1 1 1 2", "1 1 1", "1"),  # a stabilized word: the second factor closes to the unknot
])
def test_split_examples(text, u, v):
    b = parse_braid(text)
    first, second = b.split()
    assert (first.text(), second.text()) == (u, v)
    assert (first.strands, second.strands) == (2, b.strands - 1)


@pytest.mark.parametrize("text", ["1 1 1", "-1 2 -1 2", "1 1 1 2 -1 2", "1 2 -1 2 1 -2 1 2", ""])
def test_split_none(text):
    assert parse_braid(text).split() is None


def test_composite_words_split_into_knots():
    # seeded words interleaved from two knot words by far commutations and
    # rotated: the split finds a cut, each factor closes to a knot, and the
    # factors share out the crossings and the writhe, with one strand
    # shared; a factor that splits again splits into knots too
    rng = random.Random(26)
    for _ in range(60):
        word = composite_word(rng, rng.randint(3, 5))
        pending = [word]
        while pending:
            b = pending.pop()
            u, v = b.split()
            assert u.is_knot_closure() and v.is_knot_closure(), b
            assert (u.k + v.k, u.writhe() + v.writhe(), u.strands + v.strands) == (b.k, b.writhe(), b.strands + 1)
            pending += [f for f in (u, v) if f.split() is not None]


def test_split_finds_the_split_table_entries():
    # the engine's test, read on the reduced word, finds the entries that
    # tests/test_table.py's independent search over rotations and cuts does
    records = load_table()
    found = [r.name for r in records if r.braid_word().reduced().split() is not None]
    assert found == [r.name for r in records if _splits(r.braid_word())] == ["9_35", "9_37"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(knot_words())
def test_split_factors_close_to_knots(braid):
    parts = braid.reduced().split()
    if parts is not None:
        u, v = parts
        assert u.is_knot_closure() and v.is_knot_closure(), braid
        assert u.k + v.k == braid.reduced().k
