"""End-to-end colored Jones pipeline: anchors, symmetries, Markov moves."""
import random

import pytest

from conftest import markov_moved, rotations, with_relator
from walkjones import cjp
from walkjones.braid import BraidWord, NotAKnotError, parse_braid
from walkjones.cjp import choose_orientation, colored_jones, cut_candidates, simple_walk_count
from walkjones.laurent import LaurentPolynomial
from walkjones.table import load_table

P = LaurentPolynomial.parse
ONE = LaurentPolynomial.one()


def test_figure_eight_jones():
    result = colored_jones(parse_braid("-1 2 -1 2"), 2)
    assert result.polynomial == P("q^-2 - q^-1 + 1 - q + q^2")
    assert result.framing_exponent == -1


def test_trefoil_jones():
    result = colored_jones(parse_braid("1 1 1"), 2)
    assert result.polynomial == P("q + q^3 - q^4")
    assert result.framing_exponent == 1
    assert result.simple_walk_count == 1
    assert result.heights_summed == 1


def test_trefoil_color_three():
    result = colored_jones(parse_braid("1 1 1"), 3)
    assert result.polynomial == P("q^2 + q^5 - q^7 + q^8 - q^9 - q^10 + q^11")


def test_figure_eight_without_mirror_matches_hand_run():
    result = colored_jones(parse_braid("-1 2 -1 2"), 2, mirror_opt=False)
    assert result.polynomial == P("q^-2 - q^-1 + 1 - q + q^2")
    assert not result.mirror_used
    assert result.heights_summed == 2
    assert result.simple_walk_count == 5


@pytest.mark.parametrize("text", ["1", "-1", "1 2", "-1 2"])
@pytest.mark.parametrize("color", [1, 2, 3, 5, 10])
def test_unknot_braids(text, color):
    assert colored_jones(parse_braid(text), color).polynomial == ONE


def test_trivial_braid_shortcut():
    result = colored_jones(parse_braid("", strands=1), 7)
    assert result.polynomial == ONE
    assert result.heights_summed == 0


def test_color_one_is_one():
    for text in ("1 1 1", "-1 2 -1 2", "1 1 1 2 -1 2"):
        result = colored_jones(parse_braid(text), 1)
        assert result.polynomial == ONE
        assert result.framing_exponent == 0


def test_simple_walk_counts():
    assert simple_walk_count(parse_braid("-1 2 -1 2")) == 5
    assert simple_walk_count(parse_braid("1 1 1")) == 1
    assert simple_walk_count(parse_braid("-1 -1 -1")) == 3


def test_one_strand_unknot_has_no_walks():
    # the word colored_jones accepts as the one-strand unknot, with its
    # simple_walk_count of 0, has no level-one walks to count
    b = parse_braid("")
    assert simple_walk_count(b) == 0
    assert colored_jones(b, 4).simple_walk_count == 0
    for color in (2, 4):
        assert choose_orientation(b, color) == (b, False, {b: 0})


def test_choose_orientation_prefers_fewer_walks():
    chosen, inverted, _ = choose_orientation(parse_braid("-1 -1 -1"))
    assert inverted and chosen == parse_braid("1 1 1")
    chosen, inverted, _ = choose_orientation(parse_braid("1 1 1"))
    assert not inverted and chosen == parse_braid("1 1 1")


def test_choose_orientation_tie_keeps_original():
    b = parse_braid("1 1 2 -1")  # unknot braid whose mirror ties at 3 simple walks
    assert simple_walk_count(b) == simple_walk_count(b.mirror()) == 3
    chosen, inverted, _ = choose_orientation(b)
    assert not inverted and chosen == b


def test_cut_candidates_close_to_the_input_knot():
    for rec in load_table():
        b = rec.braid_word()
        words = cut_candidates(b)
        assert words[0] == b
        for w in words:
            assert w.is_knot_closure(), rec.name
            assert (w.strands, w.writhe(), w.k) == (b.strands, b.writhe(), b.k), rec.name


def test_cut_candidates_one_per_sigma_one_gap():
    # sigma_1 sits at 0, 3 and 5 in the word and at 1, 2 and 4 in its flip
    b = parse_braid("1 2 2 -1 2 1")
    assert [w.text() for w in cut_candidates(b)] == [
        "1 2 2 -1 2 1", "-1 2 1 1 2 2", "1 1 2 2 -1 2",
        "2 1 1 -2 1 2", "1 -2 1 2 2 1", "1 2 2 1 1 -2",
    ]


def test_cut_candidates_drop_duplicates():
    assert cut_candidates(parse_braid("1 1 1 1 1 1 1 1 1")) == [parse_braid("1 1 1 1 1 1 1 1 1")]
    # cutting at the second sigma_1 gives the input word again
    assert [w.text() for w in cut_candidates(parse_braid("-1 2 -1 2"))] == ["-1 2 -1 2", "-2 1 -2 1", "1 -2 1 -2"]


def test_walk_count_constant_within_each_sigma_one_gap():
    # the reason one cut per gap suffices: passing a sigma_i with i >= 2
    # never changes the count, on every rotation of every bundled braid
    for rec in load_table():
        for word in (rec.braid_word(), rec.braid_word().flip()):
            starts = [r for r, (i, _) in enumerate(word.crossings) if i == 1]
            for r in range(word.k):
                gap = next((s for s in starts if s >= r), starts[0])
                assert simple_walk_count(word.rotated(r)) == simple_walk_count(word.rotated(gap)), (rec.name, r)


def test_search_tie_keeps_input_word():
    # 6_2: the input word and its cut "1 -2 1 1 1 -2" both have the fewest walks
    b = parse_braid("1 1 1 -2 1 -2")
    counts = [simple_walk_count(w) for c in cut_candidates(b) for w in (c, c.mirror())]
    assert counts.count(min(counts)) == 2 and counts[0] == min(counts)
    assert choose_orientation(b, 4)[:2] == (b, False)
    # the figure eight's mirror ties with its flip and one cut of the flip
    b = parse_braid("-1 2 -1 2")
    assert [simple_walk_count(w) for c in cut_candidates(b) for w in (c, c.mirror())] == [5, 2, 2, 5, 2, 5]
    assert choose_orientation(b, 4)[:2] == (b.mirror(), True)


def test_search_finds_a_cheaper_cut():
    b = parse_braid("1 1 2 -1 2 2 3 -2 3 4 -3 4")  # 9_5
    assert simple_walk_count(b.mirror()) < simple_walk_count(b)
    assert choose_orientation(b, 3)[:2] == (b.mirror(), True)
    chosen, mirrored, _ = choose_orientation(b, 4)
    assert simple_walk_count(chosen) == 23 < simple_walk_count(b.mirror())
    assert chosen in cut_candidates(b) and not mirrored
    result = colored_jones(b, 4)
    assert result.braid_used == chosen and result.simple_walk_count == 23


def test_result_carries_every_measured_walk_count():
    b = parse_braid("1 1 2 -1 2 2 3 -2 3 4 -3 4")  # 9_5
    assert colored_jones(b, 3).walk_counts == {b: 47, b.mirror(): 45}
    words = [w for c in cut_candidates(b) for w in (c, c.mirror())]
    counts = colored_jones(b, 4).walk_counts
    assert list(counts) == list(dict.fromkeys(words))
    assert counts == {w: simple_walk_count(w) for w in words}
    assert colored_jones(b, 4, mirror_opt=False).walk_counts == {}


@pytest.mark.parametrize("color", [3, 4, 5])
def test_generator_runs_per_job(monkeypatch, color):
    # the search scores its candidates without the generator; below it the
    # braid and its mirror still cost one generator run each
    calls = []
    original = cjp.walk_generator

    def counted(braid, *args, **kwargs):
        calls.append(braid)
        return original(braid, *args, **kwargs)

    monkeypatch.setattr(cjp, "walk_generator", counted)
    for text in ("1 1 1", "-1 2 -1 2", "1 1 1 -2 1 -2", "1 1 2 -1 2 2 3 -2 3 4 -3 4"):
        calls.clear()
        braid = parse_braid(text)
        result = colored_jones(braid, color)
        scored = [] if color >= cjp.SEARCH_FROM_COLOR else [braid, braid.mirror()]
        assert calls == scored + [result.braid_used], text


def test_search_counts_are_generator_lengths_on_every_cut_word(monkeypatch):
    # walk_counts holds every distinct cut word and mirror of the table, so
    # this pins simple_walk_count to len(walk_generator) on all of them, and
    # braid_used and walk_counts to what scoring by generator runs gives
    records = load_table()
    searched = [choose_orientation(rec.braid_word(), 4) for rec in records]
    monkeypatch.setattr(cjp, "simple_walk_count", cjp._generator_walk_count)
    for rec, found in zip(records, searched):
        chosen, mirrored, counts = choose_orientation(rec.braid_word(), 4)
        assert found == (chosen, mirrored, counts) and list(found[2]) == list(counts), rec.name


def test_search_matches_two_candidate_run_at_four(monkeypatch):
    records = load_table()
    searched = [colored_jones(rec.braid_word(), 4) for rec in records]
    monkeypatch.setattr(cjp, "SEARCH_FROM_COLOR", 5)
    for rec, found in zip(records, searched):
        plain = colored_jones(rec.braid_word(), 4)
        assert found.polynomial == plain.polynomial, rec.name
        assert found.simple_walk_count <= plain.simple_walk_count, rec.name


def test_mirror_relation_small_knots():
    for text in ("1 1 1", "-1 2 -1 2", "1 1 1 2 -1 2", "1 1 1 1 1"):
        b = parse_braid(text)
        for color in (2, 3):
            direct = colored_jones(b, color, mirror_opt=False).polynomial
            mirrored = colored_jones(b.mirror(), color, mirror_opt=False).polynomial
            assert direct == mirrored.invert_var()


def test_mirror_opt_never_changes_polynomial():
    for text in ("1 1 1", "-1 2 -1 2", "-1 -1 -1", "1 1 1 2 -1 2"):
        b = parse_braid(text)
        for color in (2, 3):
            on = colored_jones(b, color, mirror_opt=True).polynomial
            off = colored_jones(b, color, mirror_opt=False).polynomial
            assert on == off


def conjugated(b: BraidWord, index: int, sign: int) -> BraidWord:
    return BraidWord(((index, sign),) + b.crossings + ((index, -sign),), b.strands)


def stabilized(b: BraidWord, sign: int) -> BraidWord:
    return BraidWord(b.crossings + ((b.strands, sign),), b.strands + 1)


@pytest.mark.parametrize("text", ["1 1 1", "-1 2 -1 2"])
@pytest.mark.parametrize("color", [2, 3])
def test_markov_invariance(text, color):
    # each moved word on 3 or more strands also gets a braid relator at a
    # seeded place, which the reducer cannot undo as it undoes the moves
    rng = random.Random(f"{text} {color}")
    b = parse_braid(text)
    base = colored_jones(b, color).polynomial
    moved = [conjugated(b, index, sign) for index in range(1, b.strands) for sign in (1, -1)]
    moved += [stabilized(b, sign) for sign in (1, -1)]
    for word in moved:
        assert colored_jones(word, color).polynomial == base
        if word.strands >= 3:
            index, position = rng.randint(1, word.strands - 2), rng.randint(0, word.k)
            related = with_relator(word, index, position, rng.random() < 0.5)
            assert related.reduced() not in rotations(b.reduced()), related
            assert colored_jones(related, color).polynomial == base, related


def test_reduction_keeps_the_polynomials_of_moved_braids():
    # every third table knot, moved by conjugations, a pair across the ends
    # and 2-3 stabilizations; the engine runs the reduced word
    rng = random.Random(21)
    for rec in load_table()[::3]:
        b = rec.braid_word()
        moved = markov_moved(rng, b)
        for color in (2, 3):
            result = colored_jones(moved, color)
            assert result.polynomial == colored_jones(b, color).polynomial, (rec.name, color)
            assert (result.braid_used.strands, result.braid_used.k) == (b.strands, b.k), rec.name
        unpruned = colored_jones(moved, 2, drl=False).polynomial
        assert unpruned == colored_jones(b, 2).polynomial, rec.name


@pytest.mark.parametrize("text", ["1 1 1", "-1 2 -1 2", "1 1 1 2 -1 2"])
@pytest.mark.parametrize("color", [2, 3])
def test_drl_soundness_small(text, color):
    b = parse_braid(text)
    with_drl = colored_jones(b, color, drl=True).polynomial
    without = colored_jones(b, color, drl=False, mirror_opt=False).polynomial
    assert with_drl == without


def test_rejects_non_knots():
    with pytest.raises(NotAKnotError):
        colored_jones(parse_braid("1 1"), 2)


def test_writhe_parity_checked_without_asserts(monkeypatch):
    # the Hopf link passes a faked knot test but has odd writhe - m + 1; the
    # check must raise even under python -O, which strips asserts
    monkeypatch.setattr(BraidWord, "is_knot_closure", lambda self: True)
    with pytest.raises(RuntimeError, match="writhe"):
        colored_jones(parse_braid("1 1"), 2)


def test_rejects_bad_color():
    with pytest.raises(ValueError):
        colored_jones(parse_braid("1 1 1"), 0)


@pytest.mark.parametrize("color", [2.0, 3.5, "3"])
def test_rejects_color_that_is_not_an_integer(color):
    # a float once reached the packed multiply and failed there with an
    # AttributeError; an int subclass such as bool is still a color
    with pytest.raises(TypeError, match="color"):
        colored_jones(parse_braid("1 1 1"), color)
    assert colored_jones(parse_braid("1 1 1"), True).polynomial == ONE


def test_choose_orientation_checks_color_as_colored_jones_does():
    b = parse_braid("1 1 1")
    for color, error in ((0, ValueError), (-3, ValueError), (4.5, TypeError), ("3", TypeError)):
        with pytest.raises(error, match="color"):
            choose_orientation(b, color)
    assert choose_orientation(b, True) == choose_orientation(b, 1)


def test_height_cap_guard(monkeypatch):
    # a stack that never shrinks passes the cap of 2 * color * crossings
    monkeypatch.setattr(cjp, "multiply_walk_sums", lambda level_one, stack, signs, n: stack)
    with pytest.raises(RuntimeError, match="height cap 12"):
        colored_jones(parse_braid("1 1 1"), 2)


def test_figure_eight_matches_cyclotomic_expansion():
    # the figure-eight colored Jones has the closed form
    # sum_k prod_{j<=k} (q^n + q^-n - q^j - q^-j); an independent route
    # through none of the walk machinery
    fig8 = parse_braid("-1 2 -1 2")
    for n in (2, 3, 4, 5):
        formula = ONE
        prod = ONE
        for j in range(1, n):
            prod = prod * LaurentPolynomial({n: 1, -n: 1, j: -1, -j: -1})
            formula = formula + prod
        assert colored_jones(fig8, n).polynomial == formula


def test_framing_exponent_matches_used_orientation():
    for text in ("1", "-1 2 -1 2", "1 1 1 2 -1 2", "1 1 2 -1 -3 2 -3"):
        b = parse_braid(text)
        result = colored_jones(b, 4)
        used = result.braid_used
        # the engine runs the reduced word: "1" reduces to the empty word on one strand
        assert used.writhe() == (-1 if result.mirror_used else 1) * b.reduced().writhe()
        assert 2 * result.framing_exponent == 3 * (used.writhe() - used.strands + 1)
