"""Bundled knot table integrity."""
import pytest

from test_invariants import alexander
from walk_helpers import filtered
from walkjones.braid import BraidWord, parse_braid
from walkjones.table import knot_lookup, load_table


@pytest.fixture(scope="module")
def records():
    return load_table()


def test_names_unique(records):
    names = [r.name for r in records]
    assert len(names) == len(set(names))


def test_census_counts(records):
    by_crossings = {}
    for r in records:
        by_crossings[r.crossings] = by_crossings.get(r.crossings, 0) + 1
    assert by_crossings == {3: 1, 4: 1, 5: 2, 6: 3, 7: 7, 8: 21, 9: 49}


def test_every_record_closes_to_a_knot(records):
    for r in records:
        b = r.braid_word()
        assert b.is_knot_closure(), r.name
        assert (b.k - (b.strands - 1)) % 2 == 0, r.name


def test_pinned_anchor_braids(records):
    assert knot_lookup("4_1", records).braid == "-1 2 -1 2"
    assert knot_lookup("3_1", records).braid == "1 1 1"
    assert knot_lookup("5_1", records).braid == "1 1 1 1 1"


def test_lookup_unknown_names_near_matches(records):
    with pytest.raises(KeyError) as err:
        knot_lookup("99_99", records)
    assert "99_99" in str(err.value)
    with pytest.raises(KeyError) as err:
        knot_lookup("4_11", records)
    assert "4_1" in str(err.value)


def test_crossing_labels_match_names(records):
    for r in records:
        assert r.name.split("_")[0] == str(r.crossings), r.name


def test_pruned_walks_equal_filtered_walks_table_wide(records):
    from walkjones.burau import walk_generator

    for rec in records:
        braid = rec.braid_word()
        full = walk_generator(braid, prune_simple=False)
        assert filtered(full, 2) == walk_generator(braid, prune_simple=True), rec.name
        width = 3 * braid.k
        assert all(len(key) == width for key in full.entries), rec.name


def _factor(crossings) -> BraidWord:
    """A factor of a split word as a braid of its own, on the strands its
    generators touch."""
    low = min(idx for idx, _ in crossings)
    high = max(idx for idx, _ in crossings)
    return BraidWord(tuple((idx - low + 1, sign) for idx, sign in crossings), high - low + 2)


def _splits(braid: BraidWord) -> bool:
    """True iff some rotation of the word is w1 w2, with every generator
    index of w1 below every one of w2 (or every one above), and both
    closures knotted; the closure is then the connected sum
    closure(w1) # closure(w2), so not prime. A factor counts as knotted
    when its Alexander polynomial is not 1, which decides it below 11
    crossings. A Markov-stabilized word, whose lone generator closes to the
    unknot, does not split."""
    crossings = braid.crossings
    for start in range(len(crossings)):
        word = crossings[start:] + crossings[:start]
        for cut in range(1, len(word)):
            w1, w2 = word[:cut], word[cut:]
            i1 = [idx for idx, _ in w1]
            i2 = [idx for idx, _ in w2]
            if max(i1) < min(i2) or min(i1) > max(i2):
                if len(alexander(_factor(w1))) > 1 and len(alexander(_factor(w2))) > 1:
                    return True
    return False


def test_splits_needs_two_knotted_factors():
    assert _splits(parse_braid("1 1 1 -2 -2 -2"))  # square knot, 3_1 # mirror 3_1
    assert not _splits(parse_braid("1 1 1 2"))  # stabilized trefoil
    assert not _splits(parse_braid("-1 2 -1 2"))  # 4_1


def test_split_entries_are_known(records):
    # the 9_35 and 9_37 entries close to connected sums, not to the prime
    # knots they are named after; any other split entry is a new defect
    split = [r.name for r in records if _splits(r.braid_word())]
    assert split == ["9_35", "9_37"]


def test_9_2_entry_is_not_9_2(records):
    # 9_2's Alexander polynomial is 4 - 7t + 4t^2, of span 2; the entry
    # shares its determinant, 15, but not its Alexander polynomial
    coeffs = alexander(knot_lookup("9_2", records).braid_word())
    assert coeffs in ([-1, 3, -2, 1, -1, 1, -2, 3, -1], [1, -3, 2, -1, 1, -1, 2, -3, 1])  # span 8


def test_jones_polynomials_distinct(records):
    from walkjones.cjp import colored_jones

    jones = {colored_jones(r.braid_word(), 2).polynomial for r in records}
    assert len(jones) == len(records) == 84


def test_table_override(tmp_path, records):
    path = tmp_path / "mini.csv"
    path.write_text("name,crossings,braid\nk1,3,1 1 1\n")
    mini = load_table(path)
    assert len(mini) == 1
    assert mini[0].name == "k1"
    assert knot_lookup("k1", mini).braid == "1 1 1"
