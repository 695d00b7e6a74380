"""Crossing matrices, braid matrix, quantum determinant, walk generator."""
import gc
import random

import pytest

from conftest import key_from_letters, knot_factor, rand_key, rand_signs
from walk_helpers import (
    filtered, generator_matrix, kernel_product, matrix_unpruned_walk_count, occupancy_walk_count, scaled, summed,
    unit_product, walk_sum,
)
from walkjones import burau, cjp, colored_jones, knot_lookup
from walkjones.braid import BraidWord, NotAKnotError, parse_braid
from walkjones.burau import (
    BurauMatrix,
    _add_minor,
    _items,
    _kernel_products,
    _minor_sum,
    _simple_products,
    _simple_walks,
    _SimpleRule,
    _walk_sum,
    braid_matrix,
    quantum_det,
    reduced_matrix,
    simple_walk_count,
    unpruned_walk_count,
    walk_generator,
)
from walkjones.laurent import LaurentPolynomial
from walkjones.cjp import cut_candidates
from walkjones.table import load_table
from walkjones.weyl import WalkSum, drl_keep, reordering_form, zero_key

P = LaurentPolynomial.parse


def ws(crossings: int, *words: str) -> dict:
    """A braid-matrix entry, a kernel map {key: coefficient dict}, with unit
    coefficients from words like 'a1 b2'; '' is the empty word."""
    return {key_from_letters(crossings, word): {0: 1} for word in words}


def as_map(walks: WalkSum) -> dict:
    """A walk sum as a kernel map {key: coefficient dict}."""
    return {key: coeff.terms for key, coeff in walks.entries.items()}


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
    """The full m x m product of two matrices of kernel maps."""
    m = a.dimension
    out = []
    for u in range(m):
        row = []
        for v in range(m):
            products = (kernel_product(walk_sum(a.entries[u][w]), walk_sum(b.entries[w][v]), signs) for w in range(m))
            row.append(as_map(summed(item for product in products for item in product.entries.items())))
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
    assert r.entries[0][0] == {}


def test_reduced_matrix_identity():
    ident = braid_matrix(parse_braid("", strands=3))
    r = reduced_matrix(ident)
    assert entries_of(r) == [[ws(0, ""), ws(0)], [ws(0), ws(0, "")]]


def test_reduced_matrix_dimension_one_rejected():
    with pytest.raises(ValueError):
        reduced_matrix(BurauMatrix(1, [[{}]]))
    with pytest.raises(ValueError):
        braid_matrix(parse_braid("", strands=1), reduced=True)


def reduced_build_words() -> list:
    """Every table braid, its mirror and its flip, then 120 seeded random
    knot braids on 2-7 strands."""
    words = [w for rec in load_table() for b in [rec.braid_word()] for w in (b, b.mirror(), b.flip())]
    rng = random.Random(3501)
    words += [knot_factor(rng, m) for m in range(2, 8) for _ in range(20)]
    return words


def ordered(matrix: BurauMatrix) -> list:
    """A matrix's entries with their keys, coefficient dicts and the order
    of both, since _simple_walks' item order follows the dict order."""
    return [[[(key, list(terms.items())) for key, terms in entry.items()] for entry in row] for row in matrix.entries]


def test_reduced_build_equals_the_cut_full_matrix():
    words = reduced_build_words()
    assert {w.strands for w in words} == set(range(2, 8))
    for word in words:
        direct, cut = braid_matrix(word, reduced=True), reduced_matrix(braid_matrix(word))
        assert direct.dimension == cut.dimension == word.strands - 1, word
        assert ordered(direct) == ordered(cut), word


def test_walk_generator_reads_the_same_matrix_as_the_full_build(monkeypatch):
    # the generators with braid_matrix's reduced build replaced by the full
    # product cut by reduced_matrix
    words = reduced_build_words()
    direct = [(_simple_walks(w), walk_generator(w), walk_generator(w, prune_simple=False)) for w in words]
    full = burau.braid_matrix

    def cut(braid, reduced=False):
        return reduced_matrix(full(braid)) if reduced else full(braid)

    monkeypatch.setattr(burau, "braid_matrix", cut)
    for word, (walks, pruned, unpruned) in zip(words, direct):
        assert walks == _simple_walks(word), word
        assert pruned == walk_generator(word), word
        oracle = walk_generator(word, prune_simple=False)
        assert unpruned == oracle and list(unpruned.entries) == list(oracle.entries), word


def test_every_generator_run_builds_through_the_module_attribute(monkeypatch):
    # the traced benchmark times the generator's matrix build by wrapping
    # burau.braid_matrix; each of a job's three generator runs must call it
    calls = []
    generators = []
    build, generate = burau.braid_matrix, cjp.walk_generator

    def counted_build(*args, **kwargs):
        calls.append(kwargs)
        return build(*args, **kwargs)

    def counted_generate(*args, **kwargs):
        generators.append(args[0])
        return generate(*args, **kwargs)

    monkeypatch.setattr(burau, "braid_matrix", counted_build)
    monkeypatch.setattr(cjp, "walk_generator", counted_generate)
    colored_jones(knot_lookup("4_1").braid_word(), 2)
    assert len(generators) == 3
    assert calls == [{"reduced": True}] * 3


def test_quantum_det_one_by_one():
    entry = ws(2, "a1 b2")
    m = BurauMatrix(1, [[entry]])
    assert quantum_det(m, (1, 1)) == walk_sum(entry)


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
    scaled_det = scaled(det, P("-q^2"))
    from walkjones.weyl import multiply_walk_sums

    e11, e12 = map(walk_sum, r.entries[0])
    e21, e22 = map(walk_sum, r.entries[1])
    direct = summed([
        *scaled(multiply_walk_sums(e11, e22, fig8_signs), P("-q^2")).entries.items(),
        *scaled(multiply_walk_sums(e21, e12, fig8_signs), P("q^3")).entries.items(),
    ])
    assert scaled_det == direct


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
    normalized = [free_normalize(FreeWord(letters(text), P(coeff)), fig8_signs) for coeff, text in monomials]
    expected = summed((m.key, m.coeff) for m in normalized)
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
    assert filtered(full, 2) == walk_generator(fig8, prune_simple=True)


def test_simple_walk_count_is_generator_length_random():
    rng = random.Random(67)
    for m in range(2, 8):
        found = 0
        while found < 34:
            crossings = tuple(
                (rng.randint(1, m - 1), rng.choice((1, -1))) for _ in range(rng.randint(m - 1, 12))
            )
            braid = BraidWord(crossings, m)
            if not braid.is_knot_closure():
                continue
            found += 1
            for word in (braid, braid.reduced()):
                expected = len(walk_generator(word)) if word.strands > 1 else 0
                assert simple_walk_count(word) == expected, (word.text(), m)


def test_packed_count_matches_the_state_by_state_count():
    # the packed transfer against the dict over (start, occupied set)
    # states: seeded random knot braids on 2-7 strands, the one-crossing
    # words (sigma_1^-1's lane reaches the bound 2^(k-1) of a k-bit lane),
    # and (sigma_1 ... sigma_12)^2 on 13 strands, whose starts fill lanes of
    # up to C(12, 6) = 924 per held set
    words = [parse_braid("1"), parse_braid("-1"), parse_braid(" ".join(map(str, [*range(1, 13)] * 2)))]
    rng = random.Random(30)
    for m in range(2, 8):
        found = 0
        while found < 20:
            braid = BraidWord(tuple((rng.randint(1, m - 1), rng.choice((1, -1))) for _ in range(rng.randint(m - 1, 16))), m)
            if braid.is_knot_closure():
                words.append(braid)
                found += 1
    for word in words:
        assert simple_walk_count(word) == occupancy_walk_count(word), (word.text(), word.strands)
    assert [simple_walk_count(w) for w in words[:3]] == [0, 1, 6]


def test_simple_walk_count_rejects_links_and_is_zero_on_one_strand():
    with pytest.raises(NotAKnotError):
        simple_walk_count(parse_braid("1 1"))
    with pytest.raises(NotAKnotError):
        simple_walk_count(parse_braid("1 2", strands=4))
    assert simple_walk_count(parse_braid("")) == 0
    assert simple_walk_count(parse_braid("1")) == 0


def test_unpruned_walk_count():
    assert unpruned_walk_count(parse_braid("-1 2 -1 2")) == 9
    assert unpruned_walk_count(parse_braid("1 1 1")) == 1
    assert unpruned_walk_count(parse_braid("-1 -1 -1")) == 3


def reference_unpruned_walk_count(braid: BraidWord) -> int:
    """Sum over nonempty subsets J of the permanent of the entry-size J-minor."""
    reduced = reduced_matrix(braid_matrix(braid))
    sizes = [[len(e) for e in row] for row in reduced.entries]

    def permanent(rows, cols):
        if not cols:
            return 1
        return sum(
            sizes[r][cols[0]] * permanent(rows[:i] + rows[i + 1 :], cols[1:])
            for i, r in enumerate(rows)
            if sizes[r][cols[0]]
        )

    n = reduced.dimension
    return sum(
        permanent(picked, picked)
        for picked in ([i for i in range(n) if mask & (1 << i)] for mask in range(1, 1 << n))
    )


def test_unpruned_walk_count_matches_reference_on_table():
    for rec in load_table():
        braid = rec.braid_word()
        for b in (braid, braid.mirror()):
            assert unpruned_walk_count(b) == reference_unpruned_walk_count(b), (rec.name, b)


def test_unpruned_walk_count_matches_the_braid_matrix_count():
    # the path counts built on ints against the entry sizes of the braid
    # matrix itself, on every table word, its mirror, and seeded random
    # knot words on 2-7 strands
    words = [w for rec in load_table() for w in (rec.braid_word(), rec.braid_word().mirror())]
    rng = random.Random(32)
    words += [knot_factor(rng, 2 + i % 6) for i in range(120)]
    for word in words:
        assert unpruned_walk_count(word) == matrix_unpruned_walk_count(word), word.text()
    with pytest.raises(ValueError):
        unpruned_walk_count(parse_braid(""))


def reference_quantum_det(matrix: BurauMatrix, signs, prune_n=None) -> WalkSum:
    """Quantum determinant expanded on its own: every permutation, (-q)^inv."""
    n = matrix.dimension
    ent = matrix.entries
    result = []
    limit = prune_n or 0

    def expand(col: int, used: int, inv: int, partial: WalkSum) -> None:
        if not partial:
            return
        if col == n:
            coeff = LaurentPolynomial.q_power(inv, -1 if inv % 2 else 1)
            result.extend(scaled(partial, coeff).entries.items())
            return
        for row in range(n):
            bit = 1 << row
            if used & bit:
                continue
            entry = ent[row][col]
            if not entry:
                continue
            added = sum(1 for r in range(row + 1, n) if used & (1 << r))
            expand(col + 1, used | bit, inv + added, kernel_product(partial, walk_sum(entry), signs, limit))

    expand(0, 0, 0, WalkSum.single(zero_key(len(signs)), LaurentPolynomial.one()))
    return summed(result)


def reference_walk_generator(braid: BraidWord, prune_simple: bool = True) -> WalkSum:
    """Sum over nonempty subsets J of (-1)^(|J|-1) q^|J| det_q(R_J), one
    submatrix and one determinant per subset."""
    signs = braid.signs()
    reduced = reduced_matrix(braid_matrix(braid))
    size = reduced.dimension
    prune_n = 2 if prune_simple else None
    total = []
    for mask in range(1, 1 << size):
        picked = [i for i in range(size) if mask & (1 << i)]
        sub = BurauMatrix(len(picked), [[reduced.entries[u][v] for v in picked] for u in picked])
        det = reference_quantum_det(sub, signs, prune_n)
        scale = LaurentPolynomial.q_power(len(picked), -1 if (len(picked) - 1) % 2 else 1)
        total.extend(scaled(det, scale).entries.items())
    return summed(total)


def has_a_letter(key: tuple) -> bool:
    return any(key[2::3])


def assert_generator_matches_reference(braid: BraidWord) -> None:
    for prune in (True, False) if braid.strands <= 5 else (True,):
        level_one = walk_generator(braid, prune)
        assert level_one == reference_walk_generator(braid, prune), (braid, prune)
        # so the level-one sum evaluates to zero at color 1 (cjp.colored_jones)
        assert all(map(has_a_letter, level_one.entries)), (braid, prune)


def test_walk_generator_matches_reference_on_table():
    for rec in load_table():
        braid = rec.braid_word()
        assert_generator_matches_reference(braid)
        assert_generator_matches_reference(braid.mirror())


def test_walk_generator_matches_reference_random():
    rng = random.Random(41)
    for m in range(2, 8):
        found = 0
        while found < 11:
            crossings = tuple(
                (rng.randint(1, m - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))
            )
            braid = BraidWord(crossings, m)
            if braid.is_knot_closure():
                assert_generator_matches_reference(braid)
                found += 1


def test_quantum_det_matches_reference_random():
    rng = random.Random(59)
    for _ in range(80):
        k = rng.randint(1, 3)
        signs = rand_signs(rng, k)
        n = rng.randint(1, 4)
        entries = []
        for _ in range(n):
            row = []
            for _ in range(n):
                monomials = []
                for _ in range(rng.choice((0, 0, 1, 2, 3))):
                    coeff = LaurentPolynomial({rng.randint(-3, 3): rng.randint(-4, 4) or 1})
                    monomials.append((rand_key(rng, k, 1), coeff))
                row.append(as_map(summed(monomials)))
            entries.append(row)
        matrix = BurauMatrix(n, entries)
        for prune_n in (None, 2):
            assert quantum_det(matrix, signs, prune_n) == reference_quantum_det(matrix, signs, prune_n)


@pytest.mark.parametrize(
    "call",
    [
        lambda braid: walk_generator(braid, prune_simple=True),
        lambda braid: walk_generator(braid, prune_simple=False),
        lambda braid: quantum_det(reduced_matrix(braid_matrix(braid)), braid.signs(), 2),
        unpruned_walk_count,
    ],
    ids=["walk_generator_pruned", "walk_generator_unpruned", "quantum_det", "unpruned_walk_count"],
)
def test_generator_leaves_no_reference_cycles(call):
    braid = parse_braid("1 -2 1 -2 3 -2 3")  # a 4-strand knot
    call(braid)
    gc.disable()
    try:
        gc.collect()
        call(braid)
        assert gc.collect() == 0
    finally:
        gc.enable()


# Per-crossing (s, r, d) states of a simple key: {000, 100, 010, 110, 001}.
SIMPLE_STATES = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))


def simple_product(left: tuple, right: tuple, signs: tuple) -> WalkSum:
    """left * right with unit coefficients through the letter-mask product."""
    rule = _SimpleRule(signs)
    ((mask, _),) = rule.entry({left: {0: 1}})
    product = _simple_products([(mask, 0)], rule.entry({right: {0: 1}}), rule)
    # a product that passes the conflict test is simple, so from_masks takes it
    return WalkSum.from_masks(len(signs), [(key, e, 1) for key, e in product])


def kernel_rule_product(left: tuple, right: tuple, signs: tuple) -> WalkSum:
    """The same product by the kernel's rule, kept if drl_keep at level 2."""
    key, delta = unit_product(left, right, signs)
    return WalkSum.single(key, LaurentPolynomial.q_power(delta)) if drl_keep(key, 2) else WalkSum.zero()


@pytest.mark.parametrize("sign", [1, -1])
def test_simple_product_matches_kernel_rule_on_every_state_pair(sign):
    # _SimpleRule reads only F[c][b]: F[b][c], the one other term that two
    # keys admitted together can reach, must be 0
    assert reordering_form(sign)[0][1] == 0
    kept = 0
    for left in SIMPLE_STATES:
        for right in SIMPLE_STATES:
            product = simple_product(left, right, (sign,))
            assert product == kernel_rule_product(left, right, (sign,)), (left, right)
            kept += bool(product)
    # the pairs that share no letter and put no a beside a b or c
    assert kept == 11


def test_simple_product_matches_kernel_rule_random():
    rng = random.Random(83)
    for _ in range(400):
        k = rng.randint(1, 9)
        signs = rand_signs(rng, k)
        left, right = (sum((rng.choice(SIMPLE_STATES) for _ in range(k)), ()) for _ in range(2))
        assert simple_product(left, right, signs) == kernel_rule_product(left, right, signs), (left, right, signs)


def generic_walk_generator(braid: BraidWord, matrix: BurauMatrix | None = None) -> WalkSum:
    """walk_generator's pruned sum through the generic kernel recursion;
    ``matrix`` is the braid's braid_matrix if already built."""
    one = zero_key(braid.k)
    reduced = reduced_matrix(matrix or braid_matrix(braid)).entries
    entries = [[_items(e, 1, -1) for e in row] for row in reduced]
    total: dict = {}
    every = (1 << len(entries)) - 1
    _minor_sum(entries, _kernel_products, (braid.signs(), 2), _add_minor, every, total, 0, 0, 0, 0, {one: {0: 1}})
    return _walk_sum(total, -1)


def assert_entries_are_paths(word: BraidWord, matrix: BurauMatrix) -> None:
    """Every entry of the braid matrix is a set of paths: each key has the
    coefficient exactly 1 at q^0 and at most one letter per crossing.
    braid_matrix sums two products by a dict union and _SimpleRule.entry
    reads an entry as bare letter masks, both on this invariant."""
    for row in matrix.entries:
        for entry in row:
            for key, terms in entry.items():
                assert terms == {0: 1}, (word, key)
                assert all(sum(key[j : j + 3]) <= 1 for j in range(0, len(key), 3)), (word, key)


def test_braid_matrix_entries_are_paths():
    # the table braids and their mirrors, then seeded random knot braids on
    # 2-7 strands
    words = [w for rec in load_table() for w in (rec.braid_word(), rec.braid_word().mirror())]
    rng = random.Random(1801)
    target = len(words) + 120
    while len(words) < target:
        m = rng.randint(2, 7)
        braid = BraidWord(tuple((rng.randint(1, m - 1), rng.choice((1, -1))) for _ in range(rng.randint(1, 14))), m)
        if braid.is_knot_closure():
            words.append(braid)
    assert {w.strands for w in words} == set(range(2, 8))
    for word in words:
        assert_entries_are_paths(word, braid_matrix(word))


def test_simple_generator_matches_generic_recursion_on_every_cut():
    # every word the search from N = 4 runs: each cut of each table braid
    # and of its flip, and each one's mirror
    words = [w for rec in load_table() for cut in cut_candidates(rec.braid_word()) for w in (cut, cut.mirror())]
    assert len(words) == 988
    for word in words:
        matrix = braid_matrix(word)
        assert_entries_are_paths(word, matrix)
        level_one = walk_generator(word)
        assert level_one == generic_walk_generator(word, matrix), word
        assert all(map(has_a_letter, level_one.entries)), word


def test_simple_generator_matches_generic_recursion_on_stabilized_words():
    rng = random.Random(97)
    records = load_table()
    for target in range(3, 8):
        for rec in rng.sample(records, 10):
            word = list(rec.braid_word().crossings)
            m = rec.braid_word().strands
            while m < target:
                word.append((m, rng.choice((1, -1))))
                m += 1
            r = rng.randrange(len(word))
            braid = BraidWord(tuple(word[r:] + word[:r]), m)
            assert braid.is_knot_closure()
            assert walk_generator(braid) == generic_walk_generator(braid), braid


def assert_born_packed(word: BraidWord) -> None:
    """The level-one sum comes back packed with the bounds the height loop's
    fast paths read: field bound 1, and mass equal to its length, so that
    every coefficient is +-q^e. Its decoded entries are the unpruned
    generator's after DRL at level 2."""
    level_one = walk_generator(word)
    assert level_one == filtered(walk_generator(word, prune_simple=False), 2), word
    if not level_one:
        return
    assert level_one.field_max == 1 and level_one.mass == len(level_one), word
    assert all(abs(c) == 1 for coeff in level_one.entries.values() for c in coeff.terms.values()), word


def test_level_one_sum_is_born_packed_with_exact_bounds():
    # every word the search from N = 4 runs and each one's mirror, then
    # seeded random knot braids on 2-6 strands
    for rec in load_table():
        for cut in cut_candidates(rec.braid_word()):
            assert_born_packed(cut)
            assert_born_packed(cut.mirror())
    rng = random.Random(1601)
    found = 0
    while found < 150:
        m = rng.randint(2, 6)
        braid = BraidWord(tuple((rng.randint(1, m - 1), rng.choice((1, -1))) for _ in range(rng.randint(1, 12))), m)
        if braid.is_knot_closure():
            assert_born_packed(braid)
            found += 1


def replay(word: BraidWord, mask: int) -> tuple[int, int]:
    """(J, inv) of the path system a simple walk's letter mask stands for,
    read by replaying the mask through the word: J as a bitmask of reduced
    matrix indices (strand s is index s - 1) and inv the inversion count of
    the permutation pi that takes each path's start strand to its end one.
    A strand starts occupied when the first crossing it meets has a letter
    leaving it; from there on, every occupied strand must leave each
    crossing it meets by exactly one letter of the mask, and an empty one
    by none."""
    m = word.strands
    # per crossing on strands i, i + 1: {strand: {slot of a letter leaving
    # it: the strand that letter leads to}}, slot b = 0, c = 1, a = 2
    exits = []
    for index, sign in word.crossings:
        i = index - 1
        exits.append({i: {2: i, 0: i + 1}, i + 1: {1: i}} if sign > 0 else {i: {1: i + 1}, i + 1: {0: i, 2: i + 1}})
    on = [None] * m
    for s in range(m):
        j = next(j for j, by_strand in enumerate(exits) if s in by_strand)
        if any(mask >> 3 * j + slot & 1 for slot in exits[j][s]):
            on[s] = s
    start = [s for s in range(m) if on[s] is not None]
    for j, by_strand in enumerate(exits):
        moved = {}
        for s, leaves in by_strand.items():
            taken = [to for slot, to in leaves.items() if mask >> 3 * j + slot & 1]
            assert len(taken) == (on[s] is not None), (word, mask, j, s)
            for to in taken:
                assert to not in moved, (word, mask, j)
                moved[to] = on[s]
        for s in by_strand:
            on[s] = moved.get(s)
    end = {path: s for s, path in enumerate(on) if path is not None}
    assert sorted(end.values()) == start and 0 not in start, (word, mask)
    inv = sum(end[u] > end[v] for u in start for v in start if u < v)
    return sum(1 << s - 1 for s in start), inv


def assert_simple_walks_fixed_by_letters(word: BraidWord) -> None:
    walks = _simple_walks(word)
    assert len({mask for mask, _, _ in walks}) == len(walks), word
    for mask, _, sign in walks:
        used, inv = replay(word, mask)
        assert used and sign == (1 if (used.bit_count() + inv) % 2 else -1), (word, mask)


def test_simple_walks_are_fixed_by_their_letters():
    # the module docstring's argument, pinned: each level-one item's mask
    # replays to one path system, whose J and inversion count give the
    # item's sign -(-1)^(|J| + inv), and no two items share a mask. On
    # every word the search from N = 4 runs and each one's mirror, then on
    # seeded random knot braids on 2-7 strands, some Markov-stabilized
    for rec in load_table():
        for cut in cut_candidates(rec.braid_word()):
            assert_simple_walks_fixed_by_letters(cut)
            assert_simple_walks_fixed_by_letters(cut.mirror())
    rng = random.Random(1701)
    found = 0
    while found < 120:
        m = rng.randint(2, 6)
        crossings = tuple((rng.randint(1, m - 1), rng.choice((1, -1))) for _ in range(rng.randint(1, 11)))
        if found % 3 == 0:
            crossings += ((m, rng.choice((1, -1))),)
            m += 1
        braid = BraidWord(crossings, m)
        if braid.is_knot_closure():
            assert_simple_walks_fixed_by_letters(braid)
            found += 1
