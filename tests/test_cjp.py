"""End-to-end colored Jones pipeline: anchors, symmetries, Markov moves."""
import random

import pytest

from conftest import composite_word, knot_factor, markov_moved, rotations, with_relator
from walk_helpers import per_height_jones, stack_values
from walkjones import cjp
from walkjones.braid import BraidWord, NotAKnotError, parse_braid
from walkjones.burau import WalkCounter, walk_generator
from walkjones.cjp import choose_orientation, colored_jones, cut_candidates, simple_walk_count
from walkjones.laurent import LaurentPolynomial
from walkjones.table import load_table
from walkjones.weyl import WalkSum, add_walk_sums, letter_counts, multiply_walk_sums, zero_key

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
        # the level-one sum evaluates to zero at color 1, so no height is summed
        assert result.heights_summed == 0


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
    # the reason one cut per gap suffices, and the descent takes a far
    # commutation's count or that of a rotation past a sigma_i with i >= 2
    # from the word it moves: passing a sigma_i with i >= 2 never changes
    # the count, nor does swapping two far letters, on every rotation and
    # far commutation of every bundled braid, its flip and 300 seeded
    # random knot words; every rewrite cjp._moves marks as keeping the
    # count is one of these
    rng = random.Random(37)
    words = [(rec.name, w) for rec in load_table() for w in (rec.braid_word(), rec.braid_word().flip())]
    words += [(None, knot_factor(rng, 2 + i % 6)) for i in range(300)]
    swaps = kept = 0
    for name, word in words:
        count = simple_walk_count(word)
        c = word.crossings
        starts = [r for r, (i, _) in enumerate(c) if i == 1]
        for r in range(word.k):
            gap = next((s for s in starts if s >= r), starts[0])
            assert simple_walk_count(word.rotated(r)) == simple_walk_count(word.rotated(gap)), (name, word.text(), r)
        for p in range(word.k - 1):
            if abs(c[p][0] - c[p + 1][0]) > 1:
                swapped = BraidWord(c[:p] + (c[p + 1], c[p]) + c[p + 2:], word.strands)
                assert simple_walk_count(swapped) == count, (name, word.text(), p)
                swaps += 1
        for moved, same in cjp._moves(word).items():
            if same:
                assert simple_walk_count(moved) == count, (name, word.text(), moved.text())
                kept += 1
    assert swaps > 100 and kept > swaps


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
    chosen, mirrored, counts = choose_orientation(b, 4)
    # the cut search's winner has 23 walks, and the descent from it finds 19
    cut = parse_braid("1 2 -1 2 2 3 -2 3 4 -3 4 1")
    assert cut in cut_candidates(b) and counts[cut] == 23 < simple_walk_count(b.mirror())
    assert chosen == parse_braid("1 2 -1 2 -3 2 3 3 4 -3 4 1") and not mirrored
    assert simple_walk_count(chosen) == 19 and chosen not in cut_candidates(b)
    result = colored_jones(b, 4)
    assert result.braid_used == chosen and result.simple_walk_count == 19


@pytest.fixture
def counted(monkeypatch):
    """The words cjp runs its walk counter on from now, in order."""
    words = []

    def recording_counter(strands, crossings):
        counter = WalkCounter(strands, crossings)
        return lambda word: words.append(word) or counter(word)

    monkeypatch.setattr(cjp, "WalkCounter", recording_counter)
    return words


def test_result_carries_every_measured_walk_count(counted):
    b = parse_braid("1 1 2 -1 2 2 3 -2 3 4 -3 4")  # 9_5
    assert colored_jones(b, 3).walk_counts == {b: 47, b.mirror(): 45}
    # every word the call counts, in order: the cut words and mirrors,
    # then the descent's words, braid_used among them
    counted.clear()
    words = list(dict.fromkeys(w for c in cut_candidates(b) for w in (c, c.mirror())))
    result = colored_jones(b, 4)
    counts = result.walk_counts
    # the descent takes some counts from the word one move before (see
    # cjp._descend): those words are in the counts, in order, but the
    # counter never runs on them
    assert counted == [w for w in counts if w in counted] and counted[: len(words)] == words
    assert len(counts) == len(words) + cjp.DESCENT_COUNTS > len(counted)
    assert counts == {w: simple_walk_count(w) for w in counts}
    assert counts[result.braid_used] == result.simple_walk_count == min(counts.values())
    assert colored_jones(b, 4, mirror_opt=False).walk_counts == {}


def test_rewrites_are_the_moves_on_one_word():
    # rotation by one, far commutation, the braid relation and its mixed form
    assert [w.text() for w in cjp.rewrites(parse_braid("1 2 1 3"))] == ["2 1 3 1", "2 1 2 3", "1 2 3 1"]
    assert [w.text() for w in cjp.rewrites(parse_braid("-1 -2 -1 -2"))] == ["-2 -1 -2 -1", "-2 -1 -2 -2", "-1 -1 -2 -1"]
    assert [w.text() for w in cjp.rewrites(parse_braid("1 -2 -1 2"))] == ["-2 -1 2 1", "-2 -1 2 2", "1 1 -2 -1"]
    # sigma_1 sigma_2^-1 sigma_1: no move at that place
    assert [w.text() for w in cjp.rewrites(parse_braid("1 -2 1"))] == ["-2 1 1"]
    assert cjp.rewrites(parse_braid("1 1 1")) == []


def test_rewrites_keep_the_knot_and_its_size():
    for rec in load_table():
        b = rec.braid_word()
        for w in cjp.rewrites(b):
            assert w.is_knot_closure(), rec.name
            assert (w.strands, w.writhe(), w.k) == (b.strands, b.writhe(), b.k), rec.name


def test_descent_runs_the_counter_on_what_it_cannot_carry(counted):
    # 9_2 at N = 4: 18 cut words and mirrors, and a descent of 30 words of
    # which 16 are a far commutation or a rotation past a sigma_i with
    # i >= 2 away from the word they came from, so the counter runs 32 times
    braid = next(rec.braid_word() for rec in load_table() if rec.name == "9_2")
    counts = colored_jones(braid, 4).walk_counts
    assert len(counts) == 18 + cjp.DESCENT_COUNTS
    assert len(counted) == 32


@pytest.mark.parametrize("name", ["9_2", "9_5"])
def test_descent_words_have_the_same_polynomial(name):
    # every word the descent counts for 9_2 and 9_5 at N = 4, run as given
    braid = next(rec.braid_word() for rec in load_table() if rec.name == name)
    counts = colored_jones(braid, 4).walk_counts
    cut = list(dict.fromkeys(w for c in cut_candidates(braid) for w in (c, c.mirror())))
    descent = list(counts)[len(cut):]
    assert len(descent) == cjp.DESCENT_COUNTS
    expected = colored_jones(braid, 4, mirror_opt=False).polynomial
    for word in descent:
        assert colored_jones(word, 4, mirror_opt=False).polynomial == expected, word.text()


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
    # the square knot splits: one set of runs per factor, in order
    for text in ("1 1 1", "-1 2 -1 2", "1 1 1 -2 1 -2", "1 1 2 -1 2 2 3 -2 3 4 -3 4", "1 1 1 -2 -2 -2"):
        calls.clear()
        braid = parse_braid(text)
        result = colored_jones(braid, color)
        parts = braid.split()
        runs = list(zip(parts, result.factors)) if parts else [(braid, result)]
        assert len(runs) == (2 if text == "1 1 1 -2 -2 -2" else 1)
        expected = []
        for word, ran in runs:
            expected += [] if color >= cjp.SEARCH_FROM_COLOR else [word, word.mirror()]
            expected.append(ran.braid_used)
        assert calls == expected, text


def test_search_counts_are_generator_lengths_on_every_cut_word(monkeypatch):
    # walk_counts holds every distinct cut word and mirror of the table and
    # every word a descent counts, so this pins simple_walk_count to
    # len(walk_generator) on all of them, and braid_used and walk_counts to
    # what scoring by generator runs gives
    records = load_table()
    searched = [choose_orientation(rec.braid_word(), 4) for rec in records]
    monkeypatch.setattr(cjp, "WalkCounter", lambda strands, crossings: cjp._generator_walk_count)
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


def test_split_result_is_the_product_of_its_factors():
    # the square knot, 3_1 # mirror 3_1, runs as its two trefoils
    braid = parse_braid("1 1 1 -2 -2 -2")
    trefoil = parse_braid("1 1 1")
    for color in (2, 3, 4):
        result = colored_jones(braid, color)
        left, right = colored_jones(trefoil, color), colored_jones(trefoil.mirror(), color)
        assert result.factors == [left, right]
        assert result.polynomial == left.polynomial * right.polynomial
        assert result.polynomial == result.polynomial.invert_var()  # amphichiral
        assert (result.braid_used, result.mirror_used, result.walk_counts) == (braid, False, {})
        assert result.framing_exponent == 1 - color  # (N - 1)(writhe - m + 1) / 2 of the reduced input
        assert result.heights_summed == left.heights_summed + right.heights_summed
        assert result.simple_walk_count == left.simple_walk_count + right.simple_walk_count == 2


def test_split_factor_that_reduces_to_one_strand():
    # splits at strand 2 into 1 1 -1, the unknot, and 2 3 3 3, a trefoil
    result = colored_jones(parse_braid("1 1 2 -1 3 3 3"), 3)
    assert [f.braid_used.strands for f in result.factors] == [1, 2]
    assert result.polynomial == colored_jones(parse_braid("1 1 1"), 3).polynomial


def test_equal_factors_run_once(monkeypatch):
    # the 9_35 entry is three trefoils, the middle one mirrored: the first
    # and last factor are one word, which runs once, and factors still
    # lists one result per factor, in order
    calls = []
    generator = cjp.walk_generator
    monkeypatch.setattr(cjp, "walk_generator", lambda braid, **kw: calls.append(braid) or generator(braid, **kw))
    trefoil = parse_braid("1 1 1")
    for color in (2, 3, 4, 5):
        calls.clear()
        result = colored_jones(parse_braid("1 1 1 -2 -2 -2 3 3 3"), color)
        # per distinct word, below SEARCH_FROM_COLOR two orientation runs
        # and the loop's, from it the loop's alone
        assert len(calls) == (3 if color < cjp.SEARCH_FROM_COLOR else 1) * 2, color
        assert result.factors == [colored_jones(word, color) for word in (trefoil, trefoil.mirror(), trefoil)]
        assert result.heights_summed == sum(f.heights_summed for f in result.factors)
        assert result.simple_walk_count == 3


def test_split_words_match_the_unsplit_loop():
    # seeded composite words on 3-5 strands, shuffled by far commutations
    # and rotated: the product of the factors' J_N is the J_N of the whole
    # word run as one word, and each factor runs a word with fewer strands
    rng = random.Random(27)
    for _ in range(15):
        word = composite_word(rng, rng.randint(3, 5))
        for color in (2, 3, 4):
            result = colored_jones(word, color)
            whole = cjp._cjp(word.reduced(), color, True, True)
            assert result.polynomial == whole.polynomial, (word, color)
            assert result.factors and all(f.braid_used.strands < word.strands for f in result.factors), word
            assert not any(f.factors or f.braid_used.split() for f in result.factors), word


def test_unsplit_table_jobs_run_one_word(monkeypatch):
    # every table knot but the two split entries runs as before the split
    # step: no factors, the orientation choose_orientation makes from the
    # reduced word, and the generator runs of one orientation and one loop.
    # An empty product ends each height loop after its first height, and a
    # series that stops at the level-one sum does the same on the words
    # whose walks have more than one letter count.
    calls = []
    generator = cjp.walk_generator
    monkeypatch.setattr(cjp, "walk_generator", lambda braid, **kw: calls.append(braid) or generator(braid, **kw))
    monkeypatch.setattr(cjp, "multiply_walk_sums", lambda *args: WalkSum.zero())
    monkeypatch.setattr(cjp, "walk_series", lambda level_one, signs, n: (level_one, 1))
    monkeypatch.setattr(cjp, "evaluate_walk_sum", lambda *args: LaurentPolynomial.zero())
    records = [rec for rec in load_table() if rec.name not in ("9_35", "9_37")]
    assert len(records) == 82
    for rec in records:
        braid = rec.braid_word().reduced()
        for color in (2, 3, 4, 5):
            chosen, mirrored, counts = choose_orientation(braid, color)
            calls.clear()
            result = colored_jones(rec.braid_word(), color)
            assert result.factors == [], rec.name
            assert (result.braid_used, result.mirror_used, result.walk_counts) == (chosen, mirrored, counts), rec.name
            scored = [] if color >= cjp.SEARCH_FROM_COLOR else [braid, braid.mirror()]
            assert calls == scored + [chosen], (rec.name, color)


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
@pytest.mark.parametrize("color", [2, 3, 4])
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


HIGH_COLOR_JOBS = (("9_1", 6), ("9_2", 4), ("9_5", 4), ("9_35", 5))


def loop_words(braid, n):
    """The words colored_jones runs its height loops on: the word
    choose_orientation picks from each unsplit factor of two or more
    strands."""
    words = cjp._unsplit_words(braid.reduced())
    return [choose_orientation(word, n)[0] for word in words if word.strands > 1]


def test_zero_stacks_under_drl_only_trail():
    # the loop evaluates once, on the sum of its stacks, and no longer stops
    # at a stack that evaluates to zero. That gives the per-height loop's
    # polynomial because under DRL such a stack is followed only by more
    # of them: none occurs on the table's loop words, and on random knot
    # words, as given, the zeros trail (as on "-4 2 -5 4 -1 3 -5 2 1" at
    # N = 2, whose last of two stacks evaluates to zero, or on
    # "3 -4 3 1 2 1 4 -1" at N = 2, both of whose stacks do)
    for n in (2, 3, 4):
        for rec in load_table():
            for word in loop_words(rec.braid_word(), n):
                values = list(stack_values(word, n))
                assert values and not any(value.is_zero() for value in values), (rec.name, n)
    rng = random.Random(31)
    trailing = 0
    for i in range(50):
        word = knot_factor(rng, 2 + i % 5)
        for n in (2, 3, 4):
            zeros = [value.is_zero() for value in stack_values(word, n)]
            first = zeros.index(True) if True in zeros else len(zeros)
            assert zeros and all(zeros[first:]), (word.text(), n, zeros)
            trailing += first < len(zeros)
    assert trailing


def test_summed_loop_matches_per_height_oracle():
    # colored_jones against the loop that evaluates each height on its own,
    # run on the word, mirror and factors colored_jones chose: the same
    # polynomial and the same heights, on the table at N = 2..4 and on the
    # high-color bench jobs
    table = load_table()
    by_name = {rec.name: rec for rec in table}
    jobs = [(rec, n) for n in (2, 3, 4) for rec in table] + [(by_name[name], n) for name, n in HIGH_COLOR_JOBS]
    for rec, n in jobs:
        result = colored_jones(rec.braid_word(), n)
        polynomial = ONE
        for run in result.factors or [result]:
            value, heights = per_height_jones(run.braid_used, n)
            assert heights == run.heights_summed, (rec.name, n)
            polynomial = polynomial * (value.invert_var() if run.mirror_used else value)
        assert polynomial == result.polynomial, (rec.name, n)


def series_runs(monkeypatch):
    """The walk_series calls colored_jones makes from now on, as (level-one
    sum, color) pairs."""
    runs = []
    series = cjp.walk_series
    monkeypatch.setattr(cjp, "walk_series", lambda level_one, signs, n: runs.append((level_one, n)) or series(level_one, signs, n))
    return runs


def test_series_matches_per_height_oracle_on_the_table_at_five(monkeypatch):
    # every table knot on three or more strands, and T(3,7), at N = 5: the
    # series gives the polynomial and the stack count of the loop that
    # evaluates each height on its own, run on the words colored_jones chose
    runs = series_runs(monkeypatch)
    jobs = [(rec.name, rec.braid_word()) for rec in load_table() if rec.braid_word().strands > 2]
    jobs.append(("T(3,7)", parse_braid(" ".join(["1 2"] * 7))))
    for name, braid in jobs:
        result = colored_jones(braid, 5)
        polynomial = ONE
        for run in result.factors or [result]:
            value, heights = per_height_jones(run.braid_used, 5)
            assert heights == run.heights_summed, name
            polynomial = polynomial * (value.invert_var() if run.mirror_used else value)
        assert polynomial == result.polynomial, name
    assert len(runs) >= len(jobs) - 2


def stack_count(word, n):
    """The number of nonempty stacks of the DRL height loop on a word run as
    given, built by multiply_walk_sums one height at a time."""
    level_one = stack = walk_generator(word)
    count = 0
    while stack:
        count += 1
        stack = multiply_walk_sums(level_one, stack, word.signs(), n)
    return count


def test_series_matches_per_height_oracle_on_random_words(monkeypatch):
    # seeded knot words on 2-6 strands at N = 2..4, run as given: the
    # polynomial of the per-height loop, and one height per nonempty stack
    # (a stack that evaluates to zero still counts, and under DRL such
    # stacks only trail; see test_zero_stacks_under_drl_only_trail)
    runs = series_runs(monkeypatch)
    rng = random.Random(31)
    for i in range(300):
        word = knot_factor(rng, 2 + i % 5)
        for n in (2, 3, 4):
            result = cjp._cjp(word, n, False, True)
            assert result.polynomial == per_height_jones(word, n)[0], (word.text(), n)
            assert result.heights_summed == stack_count(word, n), (word.text(), n)
    multi_size = [level_one for level_one, _ in runs]
    assert len(multi_size) > 400 and all(len(set(letter_counts(ws))) > 1 for ws in multi_size)


def test_one_letter_count_runs_the_height_loop(monkeypatch):
    # on two strands every simple walk has the same letter count, so the
    # stacks are key-disjoint and the height loop runs; on 9_2 the counts
    # differ and the series runs instead
    runs = series_runs(monkeypatch)
    assert colored_jones(parse_braid("1 1 1 1 1 1 1 1 1"), 4).heights_summed > 1
    assert runs == []
    (nine_two,) = [rec.braid_word() for rec in load_table() if rec.name == "9_2"]
    assert colored_jones(nine_two, 4).heights_summed > 1
    assert len(runs) == 1


def test_height_cap_guard_on_the_series(monkeypatch):
    # a level-one key with no letter would stack without end, as a stack
    # that never shrinks does in the height loop: the series raises the
    # loop's RuntimeError
    generator = cjp.walk_generator

    def with_empty_key(braid, **kw):
        return add_walk_sums([generator(braid, **kw), WalkSum.single(zero_key(braid.k), ONE)])

    monkeypatch.setattr(cjp, "walk_generator", with_empty_key)
    with pytest.raises(RuntimeError, match="height cap 16"):
        colored_jones(parse_braid("-1 2 -1 2"), 2)


def test_search_builds_one_counter(monkeypatch):
    # every word the search counts shares the braid's strands and crossings,
    # so one counter serves the cut words, their mirrors and the descent
    built = []
    monkeypatch.setattr(cjp, "WalkCounter", lambda *args: built.append(args) or WalkCounter(*args))
    b = parse_braid("1 1 2 -1 2 2 3 -2 3 4 -3 4")  # 9_5
    counts = choose_orientation(b, 4)[2]
    assert built == [(5, 12)] and len(counts) > 2 * len(cut_candidates(b))
    built.clear()
    choose_orientation(b, 3)
    assert built == []


def test_height_cap_guard(monkeypatch):
    # a stack that never shrinks passes the cap of 2 * color * crossings
    monkeypatch.setattr(cjp, "multiply_walk_sums", lambda level_one, stack, signs, n: stack)
    with pytest.raises(RuntimeError, match="height cap 12"):
        colored_jones(parse_braid("1 1 1"), 2)


def test_height_loop_budget_fails_fast():
    # at color 8 DRL prunes little on T(2,15): its third multiply would form
    # 7.6 million pairs, so the loop stops before it
    with pytest.raises(OverflowError) as exc:
        colored_jones(parse_braid("1 " * 15), 8)
    assert str(exc.value) == (
        "height 3 would form 7621432 pairs with 20593 keys held, past the height loop's budget of 2097152"
    )


def test_height_loop_budget_counts_pairs_and_held_keys(monkeypatch):
    # 9_1 at N = 6 holds 9 643 keys before its last multiply, which forms
    # 6 405 x 21 pairs: a budget of exactly that runs it, and one less stops it
    braid = parse_braid("1 1 1 1 1 1 1 1 1")
    monkeypatch.setattr(cjp, "HEIGHT_WORK_MAX", 134505 + 9643)
    assert colored_jones(braid, 6).heights_summed == 5
    monkeypatch.setattr(cjp, "HEIGHT_WORK_MAX", 134505 + 9642)
    with pytest.raises(OverflowError, match="^height 6 would form 134505 pairs with 9643 keys held, "):
        colored_jones(braid, 6)
    # the loop without DRL, which keeps one stack at a time, has no budget
    trefoil = parse_braid("1 1 1")
    expected = colored_jones(trefoil, 3).polynomial
    monkeypatch.setattr(cjp, "HEIGHT_WORK_MAX", 0)
    with pytest.raises(OverflowError, match="^height 2 "):
        colored_jones(trefoil, 3)
    assert colored_jones(trefoil, 3, drl=False).polynomial == expected


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
