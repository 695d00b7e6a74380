"""Normal-form monomial algebra: products, pruning, evaluation."""
import random
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import key_from_letters, mono, rand_key, rand_mono, rand_signs
from walk_helpers import evaluate_monomial, filtered, kernel_product, mono_mul, packed_from_masks, summed
from walkjones import cli, kernels, weyl
from walkjones.braid import parse_braid
from walkjones.burau import _simple_walks, walk_generator
from walkjones.cjp import colored_jones
from walkjones.laurent import LaurentPolynomial
from walkjones.oracle import FreeWord, KeyedMonomial, _swap_exponent, free_normalize
from walkjones.table import load_table
from walkjones.weyl import (
    WalkSum,
    add_walk_sums,
    drl_keep,
    evaluate_walk_sum,
    letter_counts,
    multiply_walk_sums,
    reordering_form,
    walk_series,
    zero_key,
)

P = LaurentPolynomial.parse


@pytest.mark.parametrize("sign", [1, -1])
def test_reordering_form_is_the_oracle_swap_rule(sign):
    # F[t][u] in (s, r, d) = (b, c, a) order: the three pairs out of normal
    # order take the oracle's swap exponent, and no other pair moves
    form = reordering_form(sign)
    kinds = "bca"
    swapped = {("c", "b"), ("a", "b"), ("a", "c")}
    for t, left in enumerate(kinds):
        for u, right in enumerate(kinds):
            expected = _swap_exponent(left, right, sign) if (left, right) in swapped else 0
            assert form[t][u] == expected, (left, right)


def test_mono_mul_positive_a_then_c():
    # a * c = q * (c a) at a positive crossing
    out = mono_mul(mono(1, "a1"), mono(1, "c1"), (1,))
    assert out.key == key_from_letters(1, "a1 c1")
    assert out.coeff == P("q")


def test_mono_mul_distinct_crossings_commute():
    out = mono_mul(mono(2, "a1"), mono(2, "b2"), (1, 1))
    assert out.key == key_from_letters(2, "a1 b2")
    assert out.coeff == P("1")


def test_mono_mul_figure_eight_two_path_walk(fig8_signs):
    # (q c2 a3 b4) * (q a1 b2 c4): the b2/c2 reorder at positive crossing 2
    # costs q^-2, so the coefficients collapse to 1
    left = mono(4, "c2 a3 b4", "q")
    right = mono(4, "a1 b2 c4", "q")
    out = mono_mul(left, right, fig8_signs)
    assert out.key == key_from_letters(4, "a1 b2 c2 a3 b4 c4")
    assert out.coeff == P("1")


def test_mono_mul_length_mismatch():
    with pytest.raises(ValueError):
        mono_mul(mono(1, "a1"), mono(2, "a1"), (1, 1))


def fold_letters(letters, signs):
    """Multiply single-letter monomials left to right with mono_mul."""
    k = len(signs)
    acc = KeyedMonomial(zero_key(k), LaurentPolynomial.one())
    for kind, crossing in letters:
        acc = mono_mul(acc, mono(k, f"{kind}{crossing}"), signs)
    return acc


def test_mono_mul_matches_free_normalize_random():
    rng = random.Random(31)
    for _ in range(1000):
        k = rng.randint(1, 4)
        signs = rand_signs(rng, k)
        letters = tuple(
            (rng.choice("abc"), rng.randint(1, k)) for _ in range(rng.randint(0, 12))
        )
        folded = fold_letters(letters, signs)
        normalized = free_normalize(FreeWord(letters, LaurentPolynomial.one()), signs)
        assert folded == normalized


def test_mono_mul_associative_random():
    rng = random.Random(32)
    for _ in range(1000):
        k = rng.randint(1, 4)
        signs = rand_signs(rng, k)
        m1, m2, m3 = (rand_mono(rng, k) for _ in range(3))
        left = mono_mul(mono_mul(m1, m2, signs), m3, signs)
        right = mono_mul(m1, mono_mul(m2, m3, signs), signs)
        assert left == right


def test_drl_keep_examples():
    assert not drl_keep(key_from_letters(1, "c1 a1"), 2)
    assert drl_keep(key_from_letters(3, "a1 b2 c3"), 2)
    assert not drl_keep(key_from_letters(2, "a1"), 1)
    assert drl_keep(zero_key(3), 1)


@pytest.mark.parametrize("n", [0, -3])
def test_filtered_rejects_color_below_one(n):
    walks = WalkSum.single(key_from_letters(1, "a1"), P("q"))
    for ws in (walks, WalkSum.zero()):
        with pytest.raises(ValueError, match=f"color must be >= 1, got {n}"):
            filtered(ws, n)
    with pytest.raises(ValueError, match=f"color must be >= 1, got {n}"):
        drl_keep(zero_key(1), n)


@pytest.mark.parametrize("bad", [4.5, 1.5, 2.5, "3"])
def test_colors_and_limits_must_be_integers(bad):
    # one check, weyl.checked_int, for every color and DRL limit: a float
    # once reached bit_length, an &, or passed drl_keep outright
    walks = WalkSum.single(key_from_letters(1, "a1"), P("q"))
    calls = (
        lambda: evaluate_walk_sum(walks, (1,), bad),
        lambda: drl_keep(zero_key(1), bad),
        lambda: filtered(walks, bad),
        lambda: filtered(WalkSum.zero(), bad),
    )
    for call in calls:
        with pytest.raises(TypeError, match="color must be an integer"):
            call()
    with pytest.raises(TypeError, match="DRL limit must be an integer"):
        multiply_walk_sums(walks, walks, (1,), bad)
    # an int subclass such as bool is still an integer
    assert drl_keep(zero_key(1), True)
    assert multiply_walk_sums(walks, walks, (1,), False) == multiply_walk_sums(walks, walks, (1,), 0)


def test_drl_keep_monotone_random():
    rng = random.Random(33)
    for _ in range(500):
        k = rng.randint(1, 4)
        key = list(zero_key(k))
        n = rng.randint(1, 4)
        alive = True
        for _ in range(10):
            key[rng.randrange(3 * k)] += 1
            now = drl_keep(tuple(key), n)
            assert not (now and not alive), "adding letters revived a pruned key"
            alive = now


def test_evaluate_single_negative_a():
    out = evaluate_monomial(mono(1, "a1", "q"), (-1,), 2)
    assert out == P("-1 + q")


def test_evaluate_trefoil_walk():
    out = evaluate_monomial(mono(3, "c1 a2 b3", "q"), (1, 1, 1), 2)
    assert out == P("q^2 - q^3")


def test_evaluate_empty_word():
    out = evaluate_monomial(mono(2, "", "1"), (1, -1), 5)
    assert out == P("1")


def test_evaluate_is_linear_in_coefficient():
    rng = random.Random(34)
    for _ in range(300):
        k = rng.randint(1, 3)
        signs = rand_signs(rng, k)
        m = rand_mono(rng, k)
        gamma = LaurentPolynomial({rng.randint(-3, 3): rng.randint(-4, 4) or 1})
        n = rng.randint(1, 4)
        scaled = KeyedMonomial(m.key, m.coeff * gamma)
        assert evaluate_monomial(scaled, signs, n) == gamma * evaluate_monomial(m, signs, n)


def test_evaluate_multiplicative_on_disjoint_supports():
    rng = random.Random(35)
    for _ in range(300):
        k = 4
        signs = rand_signs(rng, k)
        key1 = [0] * (3 * k)
        key2 = [0] * (3 * k)
        for slot in range(6):
            key1[slot] = rng.randint(0, 2)       # crossings 1..2
            key2[slot + 6] = rng.randint(0, 2)   # crossings 3..4
        m1 = KeyedMonomial(tuple(key1), LaurentPolynomial.one())
        m2 = KeyedMonomial(tuple(key2), LaurentPolynomial.one())
        prod = mono_mul(m1, m2, signs)
        n = rng.randint(1, 4)
        assert evaluate_monomial(prod, signs, n) == (
            evaluate_monomial(m1, signs, n) * evaluate_monomial(m2, signs, n)
        )


def test_paired_key_zero_at_two_nonzero_at_three(fig8_signs):
    # the two-letter crossing-3 load (one c, one a) kills the color-2
    # evaluation but not the color-3 one
    paired = mono(4, "c2 a3 a4 b1 c3 b4", "q^3")
    assert evaluate_monomial(paired, fig8_signs, 2).is_zero()
    assert not evaluate_monomial(paired, fig8_signs, 3).is_zero()


def test_evaluate_walk_sum_figure_eight_level_one(fig8, fig8_signs):
    level_one = walk_generator(fig8, prune_simple=True)
    assert evaluate_walk_sum(level_one, fig8_signs, 2) == P("q^-1 - 4 + 5*q - 3*q^2 + q^3")


def test_evaluate_walk_sum_figure_eight_level_two(fig8, fig8_signs):
    level_one = walk_generator(fig8, prune_simple=True)
    stacked = multiply_walk_sums(level_one, level_one, fig8_signs, 2)
    assert evaluate_walk_sum(stacked, fig8_signs, 2) == P("2 - 4*q + 2*q^2")


def test_evaluate_walk_sum_empty():
    assert evaluate_walk_sum(WalkSum.zero(), (1, 1), 3).is_zero()


def test_multiply_walk_sums_figure_eight_square(fig8, fig8_signs):
    level_one = walk_generator(fig8, prune_simple=True)
    stacked = multiply_walk_sums(level_one, level_one, fig8_signs, 2)
    assert len(stacked) == 1
    key = key_from_letters(4, "a1 b2 c2 a3 b4 c4")
    assert stacked.entries[key] == P("2")


def test_multiply_walk_sums_trefoil_square():
    signs = (1, 1, 1)
    walk = WalkSum.single(key_from_letters(3, "c1 a2 b3"), P("q"))
    out = multiply_walk_sums(walk, walk, signs, 3)
    assert len(out) == 1
    key = key_from_letters(3, "c1 c1 a2 a2 b3 b3")
    assert out.entries[key] == P("q^2")


def test_multiply_by_empty_is_empty():
    walk = WalkSum.single(key_from_letters(2, "a1"), P("q"))
    assert not multiply_walk_sums(walk, WalkSum.zero(), (1, 1))
    assert not multiply_walk_sums(WalkSum.zero(), walk, (1, 1))


def test_multiply_walk_sums_order_independent_result():
    rng = random.Random(36)
    for _ in range(100):
        k = rng.randint(1, 3)
        signs = rand_signs(rng, k)
        monos_a = [rand_mono(rng, k) for _ in range(rng.randint(1, 4))]
        monos_b = [rand_mono(rng, k) for _ in range(rng.randint(1, 4))]
        a1 = summed((m.key, m.coeff) for m in monos_a)
        a2 = summed((m.key, m.coeff) for m in reversed(monos_a))
        b = summed((m.key, m.coeff) for m in monos_b)
        n = rng.randint(1, 3)
        if rng.random() >= 0.5:
            n = 0  # no DRL limit
        assert multiply_walk_sums(a1, b, signs, n) == multiply_walk_sums(a2, b, signs, n)


def reference_evaluate_walk_sum(ws, signs, n):
    """Term-by-term evaluation: every factor (1 - q^e) applied to a
    coefficient dict, then the monomials summed."""
    total: dict[int, int] = {}
    for key, coeff in ws.entries.items():
        shift = 0
        factor_exps: list[int] = []
        zero = False
        for j, sign in enumerate(signs):
            r = key[3 * j + 1]
            d = key[3 * j + 2]
            if d and r < n <= r + d:
                zero = True
                break
            if sign > 0:
                shift += r * (n - 1 - d)
                factor_exps.extend(n - 1 - r - h for h in range(d))
            else:
                shift -= r * (n - 1)
                factor_exps.extend(r + l + 1 - n for l in range(d))
        if zero:
            continue
        out = dict(coeff.terms)
        for e in factor_exps:
            nxt: dict[int, int] = {}
            for ea, ca in out.items():
                nxt[ea] = nxt.get(ea, 0) + ca
                nxt[ea + e] = nxt.get(ea + e, 0) - ca
            out = {x: c for x, c in nxt.items() if c}
        for e, c in out.items():
            total[e + shift] = total.get(e + shift, 0) + c
    return LaurentPolynomial({e: c for e, c in total.items() if c})


def rand_coeff(rng, max_bits):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[rng.randint(-6, 6)] = rng.randint(-(1 << max_bits), 1 << max_bits) or 1
    return LaurentPolynomial(terms)


def rand_walk_sum(rng, k, n, size, max_bits):
    return summed(
        (tuple(rng.randint(0, n + 1) for _ in range(3 * k)), rand_coeff(rng, max_bits)) for _ in range(size)
    )


def test_packed_evaluate_matches_reference_random():
    rng = random.Random(37)
    for _ in range(400):
        k = rng.randint(1, 4)
        n = rng.randint(1, 5)
        signs = rand_signs(rng, k)
        ws = rand_walk_sum(rng, k, n, rng.randint(0, 8), rng.choice((3, 20, 80)))
        assert evaluate_walk_sum(ws, signs, n) == reference_evaluate_walk_sum(ws, signs, n)


def test_packed_evaluate_cancels_to_exact_coefficients():
    # two keys evaluating to the same polynomial with coefficients near
    # +-2^80 cancel down to a small remainder
    signs = (1, -1)
    big = 1 << 80
    ws = WalkSum({
        (0, 1, 1, 0, 0, 0): P(f"{big + 3}*q^-2 - {big}*q^4"),
        (1, 1, 1, 0, 0, 0): P(f"-{big}*q^-2 + {big}*q^4"),
    })
    assert evaluate_walk_sum(ws, signs, 4) == reference_evaluate_walk_sum(ws, signs, 4)
    assert evaluate_walk_sum(ws, signs, 4) == P("3*q^-2").shift(2) * P("1 - q^2")


def test_packed_evaluate_zero_factor_keys():
    # r < n <= r + d puts a (1 - q^0) factor in the product, at either sign
    for sign in (1, -1):
        ws = WalkSum({(0, 1, 2): P("5*q^-3 + 7*q^9"), (0, 0, 3): P("q")})
        assert evaluate_walk_sum(ws, (sign,), 3).is_zero()
        assert reference_evaluate_walk_sum(ws, (sign,), 3).is_zero()


def test_packed_evaluate_unpruned_keys_past_color():
    # keys with r >= n, as drl=False stacks carry: at a negative crossing the
    # factor exponents r + l + 1 - n are positive, at a positive one negative
    for signs in ((1,), (-1,), (1, -1), (-1, 1)):
        k = len(signs)
        for n in (1, 2, 3):
            for r in (n, n + 2):
                for d in (1, 3):
                    key = (1, r, d) * k
                    ws = WalkSum({key: P("-2*q^-1 + 3*q^2"), zero_key(k): P("4")})
                    assert evaluate_walk_sum(ws, signs, n) == reference_evaluate_walk_sum(ws, signs, n)


def test_evaluate_monomial_matches_reference_random():
    rng = random.Random(38)
    for _ in range(200):
        k = rng.randint(1, 3)
        n = rng.randint(1, 4)
        signs = rand_signs(rng, k)
        m = KeyedMonomial(rand_key(rng, k, n + 1), rand_coeff(rng, 40))
        expected = reference_evaluate_walk_sum(WalkSum.single(m.key, m.coeff), signs, n)
        assert evaluate_monomial(m, signs, n) == expected


def test_evaluate_rejects_bad_input():
    with pytest.raises(ValueError):
        evaluate_walk_sum(WalkSum.single((0, 0, 1), P("1")), (1, 1), 2)
    with pytest.raises(ValueError):
        evaluate_walk_sum(WalkSum.zero(), (1,), 0)


SIMPLE_COUNTS = ((0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0))


def rand_left(rng, k, simple, size=None, max_bits=4):
    monomials = []
    for _ in range(rng.randint(1, 12) if size is None else size):
        if simple:
            key = tuple(x for _ in range(k) for x in rng.choice(SIMPLE_COUNTS))
        else:
            key = rand_key(rng, k, 2)
        monomials.append((key, rand_coeff(rng, max_bits)))
    return summed(monomials)


def rand_stack(rng, k, n, filtered, size, max_bits):
    """Random keys with counts up to n - 1, or up to n + 1 when not filtered
    (so some fail drl_keep); filtered keeps only keys passing drl_keep."""
    monomials = []
    for _ in range(size):
        key = rand_key(rng, k, n - 1 if filtered else n + 1)
        if not filtered or drl_keep(key, n):
            monomials.append((key, rand_coeff(rng, max_bits)))
    return summed(monomials)


@pytest.fixture
def key_formats(monkeypatch):
    """The struct codes of the key layouts the packed multiply builds (rows
    are unpacked with struct codes too, so those are not recorded)."""
    seen = set()
    init = weyl._Keys.__init__

    def recording(self, k, width):
        seen.add(weyl._KEY_CODES[width])
        init(self, k, width)

    monkeypatch.setattr(weyl._Keys, "__init__", recording)
    return seen


# Per-crossing letter masks of a simple key: none, b, c, b and c, a.
SIMPLE_MASKS = (0b000, 0b001, 0b010, 0b011, 0b100)


def rand_mask_left(rng, k, unit, clash, max_bits=4):
    """A left operand packed from letter masks: coefficients +-q^e when
    unit, else random; with clash, one mask puts an a beside a b, which
    makes a moved field 2. A unit sum with no clash is a level-one sum, born
    packed by WalkSum.from_masks; the others are packed by the test helper
    packed_from_masks."""
    walks = {}
    for _ in range(rng.randint(1, 12)):
        mask = sum(rng.choice(SIMPLE_MASKS) << 3 * j for j in range(k))
        walks[mask] = {rng.randint(-6, 6): rng.choice((1, -1))} if unit else rand_coeff(rng, max_bits).terms
    if clash:
        walks[0b101 << 3 * rng.randrange(k)] = {0: rng.choice((1, -1))}
    if unit and not clash:
        left = WalkSum.from_masks(k, [(mask, e, c) for mask, terms in walks.items() for e, c in terms.items()])
    else:
        left = packed_from_masks(k, walks)
    assert left.field_max == (2 if clash else 1)
    if unit:
        assert left.mass == len(left)
    return left


@pytest.mark.parametrize("simple, max_bits", [(False, 1024), (False, 2), (True, 1024), (True, 2)])
def test_masked_multiply_matches_kernel_product(simple, max_bits, key_formats, monkeypatch):
    # 0-5 crossings, colors 1-6, DRL-filtered and unfiltered stacks, empty
    # operands, and multi-term coefficients with exponents -6..6: widths up
    # to +-2^1024 (+-2^80 among them), or only up to +-4, which gives the
    # narrowest packing digits. Each case also runs with no DRL limit
    # (n = 0), and neither limit calls the kernel. Simple lefts are also
    # packed from letter masks (field bound 1, so the prefilter is exact
    # and the DRL test is skipped): born packed with +-q^e coefficients,
    # or packed by the test helper with general coefficients or a field
    # of 2; the stack is also a product built at limit n + 2, whose fields
    # reach n. A field of 2 and such a stack make every admitted pair run
    # the DRL test.
    walk_products = kernels.walk_products
    calls = []
    monkeypatch.setattr(kernels, "walk_products", lambda *args: calls.append(args) or walk_products(*args))
    rng = random.Random(39 + simple + max_bits)
    widths = tuple(b for b in (2, 20, 80, 1024) if b <= max_bits)
    for case in range(600):
        k = rng.randint(0, 5)
        n = rng.randint(1, 6)
        signs = rand_signs(rng, k)
        bits = rng.choice(widths)
        if simple and k and case % 3:
            left = rand_mask_left(rng, k, case % 3 == 1, case % 4 == 0, bits)
        else:
            left = rand_left(rng, k, simple, rng.randint(0, 12), bits)
        stack = rand_stack(rng, k, n, case % 2 == 0, rng.randint(0, 30), bits)
        if simple and case % 5 == 0:
            stack = multiply_walk_sums(rand_mask_left(rng, k, True, False) if k else left, stack, signs, n + 2)
        for limit in (n, 0):
            product = multiply_walk_sums(left, stack, signs, limit)
            assert not calls
            assert product == kernel_product(left, stack, signs, limit)
            calls.clear()
    assert key_formats == {"B"}


@pytest.mark.parametrize("n, max_count, code", [
    (3, 70, "H"),        # counts past 63 leave 8-bit fields
    (128, 2, "H"),       # a color of 128 needs a 16-bit bias
    (130, 140, "H"),
    (40000, 3, "I"),
    (1 << 40, 3, "Q"),
])
def test_packed_multiply_wide_fields(n, max_count, code, key_formats):
    # counts stay small enough that reordering q-powers, and so the packed
    # coefficients, stay small; the formats are those of the multiply, as
    # its operands are packed at their own narrowest fields when built
    rng = random.Random(n + max_count)
    for _ in range(40):
        k = rng.randint(1, 3)
        signs = rand_signs(rng, k)
        monomials = ([], [])
        for side in (0, 1, 1):
            for _ in range(rng.randint(1, 4)):
                key = tuple(rng.choice((0, 1, max_count // 2, max_count)) for _ in range(3 * k))
                monomials[side].append((key, rand_coeff(rng, 20)))
        left, stack = map(summed, monomials)
        key_formats.clear()
        product = multiply_walk_sums(left, stack, signs, n)
        assert key_formats == {code}
        assert product == kernel_product(left, stack, signs, n)


def test_packed_multiply_drops_cancelled_keys():
    # (1 + x)(x - 1) = x^2 - 1: the two x products cancel, and the packed
    # product holds no entry for them, as the evaluation loop and len() see it
    x = key_from_letters(2, "a1 c2")
    a = WalkSum({zero_key(2): P("1"), x: P("1")})
    b = WalkSum({x: P("1"), zero_key(2): P("-1")})
    for n in (0, 5):
        product = multiply_walk_sums(a, b, (1, -1), n)
        assert len(product) == 2
        assert product == kernel_product(a, b, (1, -1), n)
        assert x not in product.entries


def test_packed_multiply_rejects_bad_input():
    one = WalkSum.single((0, 0, 1), P("q"))
    with pytest.raises(ValueError):
        multiply_walk_sums(one, WalkSum.single((0, 1, 0, 0, 0, 0), P("1")), (1, 1), 2)
    with pytest.raises(ValueError, match="DRL limit must be >= 0, got -1"):
        multiply_walk_sums(one, one, (1,), -1)
    with pytest.raises(OverflowError):
        huge = WalkSum.single((1 << 62, 0, 0), P("1"))
        multiply_walk_sums(huge, one, (1,), 2)


def test_constructor_drops_zero_coefficients():
    x, y = key_from_letters(2, "a1 c2"), key_from_letters(2, "b1")
    ws = WalkSum({x: P("0"), y: P("2*q - q^3")})
    assert len(ws) == 1 and ws.entries == {y: P("2*q - q^3")}
    for empty in (WalkSum({x: P("0")}), WalkSum({}), WalkSum(), WalkSum.zero()):
        assert not empty and len(empty) == 0 and empty.entries == {}
        assert empty == WalkSum.zero()


def test_constructor_measures_exact_bounds():
    # mass: the sum of |c| over every term; field bound: twice the largest
    # count; span: highest minus lowest exponent of all terms
    ws = WalkSum({(1, 0, 2, 0, 3, 0): P("3*q^-2 - 5*q"), (0, 0, 0, 4, 0, 1): P("-2*q^4")})
    assert (ws.mass, ws.field_max, ws.span) == (10, 8, 6)
    assert ws.rows is None and ws.rows_for is None and ws.reorder is None
    # the packed lists decode back to the map
    ws._entries = None
    assert ws.entries == {(1, 0, 2, 0, 3, 0): P("3*q^-2 - 5*q"), (0, 0, 0, 4, 0, 1): P("-2*q^4")}


@pytest.mark.parametrize("count, width", [(0, 8), (63, 8), (64, 16), (1 << 14, 32), (1 << 30, 64), ((1 << 62) - 1, 64)])
def test_constructor_packs_at_the_narrowest_key_fields(count, width):
    ws = WalkSum({(count, 0, 1): P("1")})
    assert ws.layout.width == width and ws.layout.k == 1
    assert ws.entries == {(count, 0, 1): P("1")}


@pytest.mark.parametrize("coeff, bits", [(1, 64), ((1 << 62) - 2, 64), ((1 << 62) - 1, 128), ((1 << 126) - 2, 128), ((1 << 126) - 1, 256)])
def test_constructor_packs_at_the_narrowest_lane(coeff, bits):
    ws = WalkSum({(0, 1, 0): LaurentPolynomial({-3: coeff}), (1, 0, 0): P("q^2")})
    assert ws.mass == coeff + 1 and ws.bits == bits
    ws._entries = None
    assert ws.entries == {(0, 1, 0): LaurentPolynomial({-3: coeff}), (1, 0, 0): P("q^2")}


def test_lane_codec_round_trips_random():
    # seeded coefficients of 1 to 3 000 terms on bases -50 .. 50, at each
    # lane: digits up to +-(2^(B-1) - 1), zeros inside, and a top digit of
    # either sign. Each packs to its value at q = 2^B, unpacks to itself,
    # also with zero low digits (a shift, as tests/test_laurent.py does),
    # and re-lanes 64 -> 128 -> 256 to what packing at the wider lane gives
    rng = random.Random(28)
    for case in range(120):
        size = 3000 if case < 3 else int(3000 ** rng.random())
        start = rng.choice((64, 128, 256))
        top = (1 << (start - 1)) - 1
        digits = [rng.choice((0, top, -top, rng.randint(-top, top), rng.randint(-9, 9))) for _ in range(size)]
        digits[0] = digits[0] or 1
        digits[-1] = rng.choice((-top, top, -rng.randint(1, top), rng.randint(1, 9)))
        base = rng.randint(-50, 50)
        coeff = LaurentPolynomial({base + i: d for i, d in enumerate(digits)})
        value = 0
        for d in reversed(digits):
            value = (value << start) + d
        assert weyl._pack(coeff, start) == (value, base)
        assert weyl._unpack(value, start, base) == coeff
        zeros = rng.randint(1, 3)
        assert weyl._unpack(value << start * zeros, start, base - zeros) == coeff
        packed, bits = value, start
        while bits < 256:
            packed, bits = weyl._join(weyl._split(packed, bits), 2 * bits), 2 * bits
            assert weyl._pack(coeff, bits) == (packed, base)
            assert weyl._unpack(packed, bits, base) == coeff


def test_constructor_rejects_bad_keys():
    with pytest.raises(ValueError):
        WalkSum({(0, 0, 1): P("1"), (0, 0, 0, 0, 0, 1): P("1")})
    with pytest.raises(ValueError):
        WalkSum({(0, 1): P("1")})
    with pytest.raises(OverflowError):
        WalkSum({(0, 0, 0): P("1"), (0, 1 << 62, 0): P("q")})


def test_multiply_widens_its_operands_in_place_keeping_their_values():
    # a color of 200 needs 16-bit fields and coefficients near 2^70 a
    # 256-bit lane: both operands are widened, and read the same after
    signs = (1, -1)
    left = WalkSum({key_from_letters(2, "a1 c2"): P(f"{1 << 70}*q - 3")})
    stack = WalkSum({key_from_letters(2, "b1 b2"): P("q^-1 + 2"), zero_key(2): P(f"{1 << 70}")})
    before = [(dict(ws.entries), ws.layout.width, ws.bits) for ws in (left, stack)]
    product = multiply_walk_sums(left, stack, signs, 200)
    assert [(ws.layout.width, ws.bits) for ws in (left, stack)] == [(16, 256), (16, 256)]
    for ws, (entries, width, bits) in zip((left, stack), before):
        assert (width, bits) == (8, 128)
        ws._entries = None
        assert ws.entries == entries and len(ws) == len(entries)
        assert evaluate_walk_sum(ws, signs, 3) == reference_evaluate_walk_sum(WalkSum(entries), signs, 3)
    assert product == kernel_product(WalkSum(before[0][0]), WalkSum(before[1][0]), signs, 200)


def test_masked_multiply_sound_on_unfiltered_stacks():
    # n = 0 sets no DRL limit, as for the kernel
    rng = random.Random(41)
    for _ in range(150):
        k = rng.randint(1, 4)
        n = rng.randint(0, 4)
        signs = rand_signs(rng, k)
        left = rand_left(rng, k, rng.random() < 0.5)
        stack = rand_walk_sum(rng, k, n, rng.randint(1, 20), 5)
        assert multiply_walk_sums(left, stack, signs, n) == kernel_product(left, stack, signs, n)


@pytest.fixture
def lanes(monkeypatch):
    """The lane widths the packed arithmetic packs coefficients at."""
    seen = set()
    pack = weyl._pack

    def recording(terms, bits):
        seen.add(bits)
        return pack(terms, bits)

    monkeypatch.setattr(weyl, "_pack", recording)
    return seen


def test_grouped_evaluate_matches_reference_random(lanes):
    # counts up to n + 2 at both crossing signs give zero factors
    # (r < n <= r + d) and keys past the color (r >= n, as without DRL);
    # each key's twin with other b counts shares its factor multiset and
    # shift. Coefficients up to 2^120 widen the lane to 128 bits, and with
    # enough factors the group sums to 256. Crossing counts 1-11 end the
    # last run table both on and off a run boundary (runs of weyl._RUN),
    # and each sum also holds, for every run, a key whose one zero factor
    # sits at a crossing of that run.
    rng = random.Random(42)
    for case in range(440):
        k = 1 + case % 11
        n = rng.randint(1, 6)
        signs = rand_signs(rng, k)
        monomials = []
        for _ in range(rng.randint(1, 6)):
            key = [rng.randint(0, n + 2) for _ in range(3 * k)]
            monomials.append((tuple(key), rand_coeff(rng, rng.choice((3, 70, 120)))))
            key[0] += 1
            monomials.append((tuple(key), rand_coeff(rng, 3)))
        for first in range(0, k, weyl._RUN):
            # d = 1 and r = n - 1 at crossing j: a (1 - q^0) factor
            j = rng.randrange(first, min(first + weyl._RUN, k))
            key = [rng.randint(0, 1) if slot % 3 else rng.randint(0, 2) for slot in range(3 * k)]
            key[3 * j + 1: 3 * j + 3] = [n - 1, 1]
            monomials.append((tuple(key), rand_coeff(rng, 20)))
        ws = summed(monomials)
        assert evaluate_walk_sum(ws, signs, n) == reference_evaluate_walk_sum(ws, signs, n)
    assert {64, 128, 256} <= lanes


def test_evaluate_reads_wide_counts_and_64_bit_keys():
    # one a at each of 256 crossings of one sign gives 256 factors with one
    # exponent, a count that takes 16 bits, and at negative crossings 256
    # sign flips; a product at a DRL limit past 2^32 lays its keys out at
    # 64-bit fields, which evaluation reads at 32 bits
    ws = WalkSum({(0, 0, 1) * 256: P("3*q - 1"), (0, 1, 1) * 256: P("q^-2"), zero_key(256): P("5")})
    for sign in (1, -1):
        for n in (2, 3):
            assert evaluate_walk_sum(ws, (sign,) * 256, n) == reference_evaluate_walk_sum(ws, (sign,) * 256, n)
    # two a at each of 130 negative crossings: counts of 130 fit 8 bits, but
    # the key's 260 sign flips do not
    ws = WalkSum({(0, 0, 2) * 130: P("q + 2"), zero_key(130): P("1")})
    assert evaluate_walk_sum(ws, (-1,) * 130, 4) == reference_evaluate_walk_sum(ws, (-1,) * 130, 4)
    signs = (1, -1)
    left = WalkSum({key_from_letters(2, "a1 c2"): P("q - 3"), key_from_letters(2, "b1"): P("2")})
    product = multiply_walk_sums(left, left, signs, 1 << 40)
    assert product.layout.width == 64
    for n in (2, 3):
        assert evaluate_walk_sum(product, signs, n) == reference_evaluate_walk_sum(product, signs, n)


@pytest.mark.parametrize("drl", [True, False])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_packed_height_chain_matches_kernel_chain(n, drl, lanes):
    # five heights of the colored_jones loop: the stack stays packed from
    # multiply to multiply, and each height is evaluated before anything
    # decodes it, against the same chain built with kernel_product;
    # coefficients up to 2^70 make the lane double along the chain
    rng = random.Random(43 + n + 10 * drl)
    limit = n if drl else 0
    for _ in range(6):
        k = rng.randint(1, 3)
        signs = rand_signs(rng, k)
        left = rand_left(rng, k, True, rng.randint(1, 4), rng.choice((2, 70)))
        stack = reference = filtered(left, n) if drl else left
        for _ in range(5):
            assert evaluate_walk_sum(stack, signs, n) == reference_evaluate_walk_sum(reference, signs, n)
            assert stack == reference
            stack = multiply_walk_sums(left, stack, signs, limit)
            reference = kernel_product(left, reference, signs, limit)
    assert {64, 128, 256} <= lanes


def test_packed_chain_widens_key_fields(key_formats):
    # without a DRL limit the fields of a stack grow with its height, and
    # the keys move from 8-bit to 16-bit fields on the third product
    signs = (1, -1)
    left = WalkSum({(20, 3, 1, 0, 2, 20): P("q - 2"), (1, 20, 0, 20, 0, 1): P("3*q^-1")})
    stack = reference = left
    for _ in range(3):
        stack = multiply_walk_sums(left, stack, signs)
        reference = kernel_product(left, reference, signs)
    for n in (2, 5):
        assert evaluate_walk_sum(stack, signs, n) == reference_evaluate_walk_sum(reference, signs, n)
    assert stack == reference
    assert key_formats == {"B", "H"}


@pytest.fixture
def row_builds(monkeypatch):
    """The row widths of every reordering row built from moved fields,
    rather than carried on a product."""
    seen = []
    row = weyl._Reorder.row

    def recording(self, fields):
        seen.append(self.width)
        return row(self, fields)

    monkeypatch.setattr(weyl._Reorder, "row", recording)
    return seen


def grown_left(rng, k):
    # counts of 12 put the bound on the reordering q-power of a product
    # past 2^15 within six heights without DRL, so the rows widen
    return summed(
        (tuple(rng.choice((0, 1, 12)) for _ in range(3 * k)), rand_coeff(rng, 20)) for _ in range(rng.randint(1, 2))
    )


@pytest.mark.parametrize("drl", [True, False])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rows_carried_along_height_chain(n, drl, row_builds):
    # six heights of the colored_jones loop against the kernel_product
    # chain, every height checked. The first stack is a plain sum, so its
    # rows are built from its fields; from then on each product carries
    # the rows of its keys, and no row is built again unless the row width
    # grows. Without DRL the fields grow with the height, and so does the
    # width, from 16 to 32 bits.
    rng = random.Random(44 + n + 10 * drl)
    limit = n if drl else 0
    grown = False
    for _ in range(6):
        k = rng.randint(1, 3)
        signs = rand_signs(rng, k)
        left = rand_left(rng, k, True, rng.randint(1, 4), 20) if drl else grown_left(rng, k)
        stack = reference = filtered(left, n) if drl else left
        widths = []
        for height in range(6):
            built = len(row_builds)
            stack = multiply_walk_sums(left, stack, signs, limit)
            reference = kernel_product(left, reference, signs, limit)
            assert stack == reference
            if not stack:
                break
            width = stack.rows_for.width
            assert (len(row_builds) > built) == (height == 0 or width > widths[-1])
            assert set(row_builds[built:]) <= {width}
            widths.append(width)
        grown |= len(set(widths)) > 1
    assert grown != drl


def test_rows_rebuilt_for_another_operator(row_builds):
    # a stack whose rows were built against one level-one sum, multiplied
    # by the same sum at a higher DRL limit, by another sum of the same
    # size, by the same sum at other signs, and by a sum with two more
    # monomials: each product matches the kernel, and for each of the last
    # three the carried rows are rebuilt, not reused.
    rng = random.Random(47)
    for _ in range(40):
        k = rng.randint(1, 3)
        n = rng.randint(3, 6)
        signs = rand_signs(rng, k)
        size = rng.randint(2, 5)
        left = rand_left(rng, k, True, size, 20)
        stack = multiply_walk_sums(left, filtered(left, n), signs, n)
        reference = kernel_product(left, filtered(left, n), signs, n)
        if not stack:
            continue
        assert multiply_walk_sums(left, stack, signs, n + 2) == kernel_product(left, reference, signs, n + 2)
        other = rand_left(rng, k, True, size, 20)
        flipped = tuple(-s for s in signs)
        changed = rand_left(rng, k, True, size, 20)
        changed = summed([*changed.entries.items(), (zero_key(k), P("q^2")), (rand_key(rng, k, 1), P("-3"))])
        for second, at in ((other, signs), (left, flipped), (changed, signs)):
            built = len(row_builds)
            product = multiply_walk_sums(second, stack, at, n)
            assert product == kernel_product(second, reference, at, n)
            if product:
                assert len(row_builds) > built
                assert product.rows_for is second.reorder


def test_columns_built_once_per_level_one_entry(monkeypatch):
    # one operator per job, holding one column per level-one entry, however
    # many heights the stack climbs
    operators = []
    init = weyl._Reorder.__init__

    def recording_init(self, *args):
        operators.append(self)
        init(self, *args)

    monkeypatch.setattr(weyl._Reorder, "__init__", recording_init)
    for text, n in (("1 1 1", 6), ("-1 2 -1 2", 5), ("1 1 2 -1 -3 2 -3", 4), ("1 1 1 2 -1 2 3 -2 3", 4)):
        operators.clear()
        result = colored_jones(parse_braid(text), n)
        assert result.heights_summed >= 3
        (op,) = operators
        assert len(op.columns) == result.simple_walk_count


LOOP_JOBS = (("1 1 1", 6), ("-1 2 -1 2", 5), ("1 1 2 -1 -3 2 -3", 4), ("1 1 1 2 -1 2 3 -2 3", 4))


def test_admitted_lefts_listed_once_per_signature(monkeypatch):
    # the operator keeps its admitted lists from height to height, so one
    # colored_jones call lists the lefts a saturation signature admits once
    listed = []
    missing = weyl._Admitted.__missing__
    monkeypatch.setattr(weyl._Admitted, "__missing__", lambda self, sig: listed.append(sig) or missing(self, sig))
    for text, n in LOOP_JOBS:
        listed.clear()
        assert colored_jones(parse_braid(text), n).heights_summed >= 3
        assert listed and len(listed) == len(set(listed)), text


def test_admitted_table_built_once_without_drl(monkeypatch):
    # without DRL the effective limit grows with the stack's fields, but the
    # admitted lists do not depend on it: one call builds one table
    built = []
    init = weyl._Admitted.__init__
    monkeypatch.setattr(weyl._Admitted, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    result = colored_jones(parse_braid("1 1 2 -1 -3 2 -3"), 3, drl=False)
    assert result.heights_summed >= 3
    assert len(built) == 1


@pytest.fixture
def grid_fills(monkeypatch):
    """The factor grids built, and the (run, masked key) and (sign, code)
    pairs that their run sums and cells were filled for."""
    built, runs, cells = [], [], []
    init = weyl._FactorGrid.__init__
    monkeypatch.setattr(weyl._FactorGrid, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    run_missing = weyl._RunSums.__missing__
    monkeypatch.setattr(
        weyl._RunSums, "__missing__", lambda self, x: runs.append((self.shift, x)) or run_missing(self, x)
    )
    cell_missing = weyl._FactorGrid.__missing__
    monkeypatch.setattr(
        weyl._FactorGrid, "__missing__",
        lambda self, code: cells.append((self.positive, code)) or cell_missing(self, code),
    )
    return built, runs, cells


def test_class_tables_fill_once_per_loop(grid_fills):
    # under DRL the loop evaluates the sum of its stacks once: one
    # colored_jones call builds one grid per crossing sign, and no run sum
    # or grid cell is filled twice
    built, runs, cells = grid_fills
    for text, n in LOOP_JOBS:
        for fills in grid_fills:
            fills.clear()
        assert colored_jones(parse_braid(text), n).heights_summed >= 3
        assert sorted(grid.positive for grid in built) == [False, True], text
        assert runs and len(runs) == len(set(runs)), text
        assert cells and len(cells) == len(set(cells)), text


@pytest.mark.parametrize("text, n", [("1 1 2 -1 -3 2 -3", 3), ("-1 2 -1 2", 4), ("1 1 1", 5)])
def test_class_tables_without_drl_built_per_height(grid_fills, text, n):
    # without DRL each height is evaluated on its own, down to the stack
    # that evaluates to zero and stops the loop, and builds its own grids
    braid = parse_braid(text)
    built = grid_fills[0]
    result = colored_jones(braid, n, drl=False)
    assert len(built) == 2 * (result.heights_summed + 1)
    assert result.polynomial == colored_jones(braid, n).polynomial


def test_add_walk_sums_rejects_shared_keys():
    # sums that share no key join whole, each key at its own base exponent;
    # a key met twice raises, whichever operands hold it
    x, y, z = key_from_letters(2, "a1"), key_from_letters(2, "b1 c2"), key_from_letters(2, "a2")
    sums = [WalkSum({x: P("q^-3 + 2*q^-1"), y: P("5")}), WalkSum({z: P("q^2 - q^4")})]
    total = add_walk_sums(sums)
    assert total.entries == {x: P("q^-3 + 2*q^-1"), y: P("5"), z: P("q^2 - q^4")}
    assert min(total.low) == -3 and total.mass == sum(ws.mass for ws in sums)
    assert total.span >= 7 and total.field_max == 2
    assert add_walk_sums([]) == add_walk_sums([WalkSum.zero()]) == WalkSum.zero()
    for shared in ([sums[0], sums[0]], [*sums, WalkSum({x: P("7")})], [sums[1], WalkSum.zero(), WalkSum({z: P("1")})]):
        with pytest.raises(ValueError, match="share a key"):
            add_walk_sums(shared)


def test_add_walk_sums_mixes_key_widths_and_lanes():
    # a count of 100 takes 16-bit fields and a coefficient near 2^70 a
    # 128-bit lane; the narrow operand's keys and lane follow the wide one's
    x, y, z = key_from_letters(2, "a1 b2"), (0, 100, 1, 0, 0, 0), key_from_letters(2, "c1")
    narrow = WalkSum({x: P("q - 2"), zero_key(2): P("3")})
    wide = WalkSum({y: P(f"{1 << 70}*q^3"), z: P("q^-2")})
    assert (narrow.layout.width, narrow.bits, wide.layout.width, wide.bits) == (8, 64, 16, 128)
    total = add_walk_sums([narrow, wide])
    assert (total.layout.width, total.bits, total.field_max) == (16, 128, 200)
    assert total.entries == {x: P("q - 2"), zero_key(2): P("3"), y: P(f"{1 << 70}*q^3"), z: P("q^-2")}
    # the operands are left as they were
    assert (narrow.layout.width, narrow.bits) == (8, 64)
    # a sum whose mass needs a narrower lane than its widest operand's
    widened = WalkSum({z: P("q")})
    widened._widen(weyl._Keys(2, 32), 256)
    total = add_walk_sums([widened, narrow])
    assert (total.layout.width, total.bits) == (32, 64) and total.entries == {z: P("q"), x: P("q - 2"), zero_key(2): P("3")}


def test_add_walk_sums_widens_the_lane_for_the_summed_mass():
    # each operand's mass fits the 64-bit lane (below 2^62), their sum does
    # not: the lane follows the summed mass, and no digit overflows
    big = (1 << 62) - 2
    x, y = key_from_letters(1, "a1"), key_from_letters(1, "b1")
    a, b = WalkSum({x: P(f"{big}*q^2")}), WalkSum({y: P(f"{big}*q^-2 + 1")})
    assert (a.bits, b.bits) == (64, 64)
    total = add_walk_sums([a, b])
    assert total.bits == 128 and total.entries == {x: P(f"{big}*q^2"), y: P(f"{big}*q^-2 + 1")}
    assert evaluate_walk_sum(total, (1,), 3) == evaluate_walk_sum(a, (1,), 3) + evaluate_walk_sum(b, (1,), 3)


def test_add_walk_sums_matches_summed_entries_random():
    # key-disjoint sums on random coefficients, lanes and key widths (70 b
    # letters, which evaluation ignores, take 16-bit fields); evaluation is
    # additive, so the sum evaluates to the sum of the evaluations
    rng = random.Random(53)
    for _ in range(150):
        k = rng.randint(1, 3)
        n = rng.randint(1, 4)
        signs = rand_signs(rng, k)
        pool = list(dict.fromkeys(rand_key(rng, k, n) for _ in range(rng.randint(1, 12))))
        pool += [(70,) + key[1:] for key in pool if rng.random() < 0.3]
        pool = list(dict.fromkeys(pool))
        rng.shuffle(pool)
        cuts = sorted(rng.sample(range(1, len(pool)), min(len(pool) - 1, rng.randint(0, 4))))
        parts = [pool[i:j] for i, j in zip([0] + cuts, cuts + [len(pool)])]
        sums = [summed((key, rand_coeff(rng, rng.choice((3, 70)))) for key in part) for part in parts]
        total = add_walk_sums(sums)
        assert total == summed(item for ws in sums for item in ws.entries.items())
        assert total.mass == sum(ws.mass for ws in sums)
        assert total.field_max == max(ws.field_max for ws in sums)
        assert total.span >= WalkSum(total.entries).span
        assert evaluate_walk_sum(total, signs, n) == sum(
            (evaluate_walk_sum(ws, signs, n) for ws in sums), LaurentPolynomial.zero()
        )


def test_add_walk_sums_rejects_other_crossing_counts_and_huge_spans():
    with pytest.raises(ValueError):
        add_walk_sums([WalkSum({zero_key(1): P("1")}), WalkSum({zero_key(2): P("1")})])
    far = 1 << 30
    with pytest.raises(OverflowError, match="packed budget"):
        add_walk_sums([WalkSum({zero_key(1): P(f"q^{far}")}), WalkSum({key_from_letters(1, "a1"): P("1")})])


def test_letter_counts_read_off_packed_keys():
    # popcounts on level-one sums (every field 0 or 1), unpacked fields on
    # any other: both give s + r + d summed over the crossings
    rng = random.Random(71)
    for _ in range(100):
        k = rng.randint(1, 5)
        for ws in (rand_mask_left(rng, k, True, False), rand_mask_left(rng, k, False, True), rand_stack(rng, k, 5, False, 6, 3)):
            assert letter_counts(ws) == [sum(ws.layout.key(x)) for x in ws.keys]
    assert letter_counts(WalkSum.zero()) == []


def height_stacks(left, signs, n):
    """The stacks left, left * left, ... of the DRL height loop at color n,
    built by multiply_walk_sums until one is empty."""
    stacks, stack = [], left
    while stack:
        stacks.append(stack)
        stack = multiply_walk_sums(left, stack, signs, n)
    return stacks


@pytest.mark.parametrize("unit", [True, False])
def test_walk_series_matches_summed_stacks_random(unit):
    # the series of a left with letter counts of mixed sizes against the
    # stacks built one height at a time and summed: the same entries, the
    # same stack count, the summed mass and field bound, and a span bound
    # that holds; a left with an empty key never stops stacking
    seed = random.Random(73 + unit)
    for _ in range(200):
        state = seed.random()
        k, n, clash = seed.randint(1, 4), seed.randint(2, 4), seed.random() < 0.3
        signs = rand_signs(seed, k)
        left, again = (rand_mask_left(random.Random(state), k, unit, clash) for _ in range(2))
        if 0 in letter_counts(left):
            with pytest.raises(RuntimeError, match=f"height cap {2 * n * k}"):
                walk_series(left, signs, n)
            continue
        series, heights = walk_series(left, signs, n)
        stacks = height_stacks(again, signs, n)
        assert series == summed(item for ws in stacks for item in ws.entries.items())
        assert heights == len(stacks)
        assert series.mass == sum(ws.mass for ws in stacks)
        assert series.field_max == max(ws.field_max for ws in stacks)
        assert series.span >= WalkSum(series.entries).span
        assert evaluate_walk_sum(series, signs, n) == sum(
            (evaluate_walk_sum(ws, signs, n) for ws in stacks), LaurentPolynomial.zero()
        )


def test_walk_series_widens_its_lane_partway():
    # the figure-eight's five simple walks at 2^27 times their coefficient:
    # the summed mass of two stacks fits the 64-bit lane and that of three
    # does not, so the lane first doubles once keys of depth two are
    # extended, re-laning the coefficients made so far, and again as the
    # depth grows
    braid = parse_braid("-1 2 -1 2")
    signs, n = braid.signs(), 5

    def level_one():
        return packed_from_masks(braid.k, {mask: {e: sign << 27} for mask, e, sign in _simple_walks(braid)})

    left = level_one()
    assert left.bits == 64 and (left.mass + left.mass**2).bit_length() + 2 <= 64
    series, heights = walk_series(left, signs, n)
    stacks = height_stacks(level_one(), signs, n)
    assert heights == len(stacks) >= 3
    assert series.bits == left.bits >= weyl._lane(series.mass.bit_length() + 2) > 64
    assert series == summed(item for ws in stacks for item in ws.entries.items())


def test_walk_series_checks_the_span_as_it_deepens():
    # the level-one sum fits the packed budget, but the products of depth
    # two double its exponent range to past 2^24 powers of q, and at 64
    # bits a power that passes the budget, so the series raises before it
    # builds them
    x, y = key_from_letters(1, "c1"), key_from_letters(1, "a1")
    left = WalkSum({x: P("1"), y: P(f"q^{1 << 23}")})
    with pytest.raises(OverflowError, match="packed budget"):
        walk_series(left, (1,), 3)


def test_walk_series_of_nothing_and_its_checks():
    assert walk_series(WalkSum.zero(), (1,), 3) == (WalkSum.zero(), 0)
    one = WalkSum({key_from_letters(1, "a1"): P("1"), key_from_letters(1, "b1 c1"): P("q")})
    with pytest.raises(ValueError, match="crossings"):
        walk_series(one, (1, 1), 3)
    with pytest.raises(ValueError, match="color"):
        walk_series(one, (1,), 0)
    with pytest.raises(RuntimeError, match="height cap 6"):
        walk_series(WalkSum({zero_key(1): P("q"), key_from_letters(1, "a1"): P("1")}), (1,), 3)


@pytest.mark.parametrize("drl", [True, False])
def test_carried_rows_are_the_rows_of_their_keys(drl):
    # every key of a product carries its row for the product's operator,
    # a key that no left can extend included: the row is one add, and the
    # next multiply skips such a key before it reads its row. Lefts with
    # several terms at spread base exponents put the row bias's exponent
    # offsets to work, and level-one sums of the loop are checked too.
    rng = random.Random(48 + drl)
    chains = []
    for _ in range(20):
        k = rng.randint(1, 3)
        n = rng.randint(2, 6)
        left = rand_left(rng, k, True, rng.randint(1, 5), 20)
        chains.append((left, filtered(left, n) if drl else left, rand_signs(rng, k), n if drl else 0))
    for text, n in LOOP_JOBS:
        braid = parse_braid(text)
        left = walk_generator(braid, prune_simple=drl)
        chains.append((left, left, braid.signs(), n if drl else 0))
    for left, stack, signs, limit in chains:
        reference = stack
        for _ in range(4):
            stack = multiply_walk_sums(left, stack, signs, limit)
            reference = kernel_product(left, reference, signs, limit)
            assert stack == reference
            if not stack:
                break
            op = stack.rows_for
            assert op is left.reorder
            assert stack.rows == [op.row(stack.layout.fields(x)) for x in stack.keys]


def shift_and_mask(op):
    """The fields of a reordering row read one pair at a time, as a shift
    and a mask of the row integer: the oracle for the operator's unpacking
    of a row's bytes."""
    count, width = len(op.columns), op.width
    mask = (1 << width) - 1

    def read(data):
        row = int.from_bytes(data, "little")
        return tuple(row >> width * i & mask for i in range(count))

    return read


def test_rows_read_at_32_bit_fields(monkeypatch):
    # lefts whose exponents spread past 2^15 need 32-bit row fields: a
    # multiply on carried rows and a series at those rows build the same
    # packed lists whether the operator unpacks each row's fields at once
    # or the oracle reads each field by shift and mask, and the first few
    # match the kernel's products and the summed stacks
    init = weyl._Reorder.__init__

    def reading_by_shifts(self, *args):
        init(self, *args)
        self.row_fields = shift_and_mask(self)

    def lists(ws):
        return ws.keys, ws.coeffs, ws.low

    rng = random.Random(53)
    series_run = 0
    for case in range(16):
        k, n = rng.randint(1, 2), rng.randint(3, 4)
        signs = rand_signs(rng, k)
        walks = {}
        while len(walks) < 4:
            mask = sum(rng.choice(SIMPLE_MASKS) << 3 * j for j in range(k))
            if mask:
                walks[mask] = {rng.randint(-3, 3): rng.choice((1, -1))}
        # one walk high enough that the rows need 32-bit fields
        walks[mask] = {(1 << 15) + rng.randint(-3, 3): 1}
        runs = []
        for oracle in (False, True):
            with monkeypatch.context() as patch:
                if oracle:
                    patch.setattr(weyl._Reorder, "__init__", reading_by_shifts)
                left = packed_from_masks(k, walks)
                square = multiply_walk_sums(left, left, signs, n)
                product = multiply_walk_sums(left, square, signs, n)
                assert left.reorder.width == 32
                one = packed_from_masks(k, walks)
                series, heights = walk_series(one, signs, n)
                assert one.reorder.width == 32
                runs.append((lists(product), lists(series), heights))
        assert runs[0] == runs[1]
        series_run += heights > 1
        if case < 4:
            assert product == kernel_product(left, kernel_product(left, left, signs, n), signs, n)
            stacks = height_stacks(packed_from_masks(k, walks), signs, n)
            assert series == summed(item for ws in stacks for item in ws.entries.items())
    assert series_run >= 8


def test_threaded_bench_rows_match_single_threaded():
    # each job keeps its operator on its own level-one sum, so jobs on
    # worker threads share no state
    records = load_table()
    untimed = []
    for threads in (1, 2):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda rec: cli._bench_row(rec, 4, False), records))
        untimed.append([{k: v for k, v in row.items() if k != "time_ms"} for row in rows])
    assert untimed[0] == untimed[1]


def test_untraced_colored_jones_never_decodes_the_stack(monkeypatch):
    decoded = []
    decode = WalkSum._decode
    monkeypatch.setattr(WalkSum, "_decode", lambda self: decoded.append(len(self.coeffs)) or decode(self))
    for text, n in (("1 1 1", 4), ("-1 2 -1 2", 3), ("1 1 2 -1 -3 2 -3", 3)):
        for drl in (True, False):
            assert colored_jones(parse_braid(text), n, drl=drl).heights_summed >= 2
    assert decoded == []
    fig8 = parse_braid("-1 2 -1 2")
    level_one = walk_generator(fig8)
    assert multiply_walk_sums(level_one, level_one, fig8.signs(), 3).entries
    assert len(decoded) == 1


def test_huge_letter_counts_fail_fast():
    # reordering q-powers near 2^58 put two contributions to one key 2^59
    # powers of q apart, and a factor exponent near 2^29 would shift by
    # 2^35 bits: both raise before building anything that large
    big = 1 << 29
    walks = WalkSum({(0, big, 0): P("1"), (big, 0, 0): P("1")})
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError, match="packed budget"):
            multiply_walk_sums(walks, walks, (1,))
        with pytest.raises(OverflowError, match="packed budget"):
            evaluate_walk_sum(WalkSum.single((0, big, big), P("1")), (1,), 3)
        with pytest.raises(OverflowError, match="packed budget"):
            evaluate_walk_sum(WalkSum.single((0, 1, 0), P("1")), (-1,), 1 << 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a huge color alone is no reason to refuse
    assert evaluate_walk_sum(WalkSum.single((0, 0, 0), P("3*q")), (-1,), 1 << 40) == P("3*q")
