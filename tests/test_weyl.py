"""Normal-form monomial algebra: products, pruning, evaluation."""
import random
import struct
import tracemalloc

import pytest

from conftest import key_from_letters, mono, rand_key, rand_mono, rand_signs
from walkjones import kernels, weyl
from walkjones.braid import parse_braid
from walkjones.burau import walk_generator
from walkjones.cjp import colored_jones
from walkjones.cli import bench_rows
from walkjones.laurent import LaurentPolynomial
from walkjones.oracle import FreeWord, free_normalize
from walkjones.table import load_table
from walkjones.weyl import (
    KeyedMonomial,
    WalkSum,
    drl_keep,
    evaluate_monomial,
    evaluate_walk_sum,
    kernel_product,
    mono_mul,
    multiply_walk_sums,
    zero_key,
)

P = LaurentPolynomial.parse


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
        a1 = WalkSum.zero()
        for m in monos_a:
            a1.add_into(m.key, m.coeff)
        a2 = WalkSum.zero()
        for m in reversed(monos_a):
            a2.add_into(m.key, m.coeff)
        b = WalkSum.zero()
        for m in monos_b:
            b.add_into(m.key, m.coeff)
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
    ws = WalkSum.zero()
    for _ in range(size):
        key = tuple(rng.randint(0, n + 1) for _ in range(3 * k))
        ws.add_into(key, rand_coeff(rng, max_bits))
    return ws


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
    ws = WalkSum.zero()
    for _ in range(rng.randint(1, 12) if size is None else size):
        if simple:
            key = tuple(x for _ in range(k) for x in rng.choice(SIMPLE_COUNTS))
        else:
            key = rand_key(rng, k, 2)
        ws.add_into(key, rand_coeff(rng, max_bits))
    return ws


def rand_stack(rng, k, n, filtered, size, max_bits):
    """Random keys with counts up to n - 1, or up to n + 1 when not filtered
    (so some fail drl_keep); filtered keeps only keys passing drl_keep."""
    ws = WalkSum.zero()
    for _ in range(size):
        key = rand_key(rng, k, n - 1 if filtered else n + 1)
        if not filtered or drl_keep(key, n):
            ws.add_into(key, rand_coeff(rng, max_bits))
    return ws


@pytest.fixture
def key_formats(monkeypatch):
    """The struct formats the packed multiply lays its keys out with."""
    seen = set()

    def recording(fmt):
        seen.add(fmt[-1])
        return struct.Struct(fmt)

    monkeypatch.setattr(weyl, "Struct", recording)
    return seen


@pytest.mark.parametrize("simple, max_bits", [(False, 1024), (False, 2), (True, 1024), (True, 2)])
def test_masked_multiply_matches_kernel_product(simple, max_bits, key_formats, monkeypatch):
    # 0-5 crossings, colors 1-6, DRL-filtered and unfiltered stacks, empty
    # operands, and multi-term coefficients with exponents -6..6: widths up
    # to +-2^1024 (+-2^80 among them), or only up to +-4, which gives the
    # narrowest packing digits. Each case also runs with no DRL limit
    # (n = 0), and neither limit calls the kernel.
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
        left = rand_left(rng, k, simple, rng.randint(0, 12), bits)
        stack = rand_stack(rng, k, n, case % 2 == 0, rng.randint(0, 30), bits)
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
    # coefficients, stay small
    rng = random.Random(n + max_count)
    for _ in range(40):
        k = rng.randint(1, 3)
        signs = rand_signs(rng, k)
        left = WalkSum.zero()
        stack = WalkSum.zero()
        for ws in (left, stack, stack):
            for _ in range(rng.randint(1, 4)):
                key = tuple(rng.choice((0, 1, max_count // 2, max_count)) for _ in range(3 * k))
                ws.add_into(key, rand_coeff(rng, 20))
        assert multiply_walk_sums(left, stack, signs, n) == kernel_product(left, stack, signs, n)
    assert key_formats == {code}


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
    with pytest.raises(ValueError):
        multiply_walk_sums(one, one, (1,), -1)
    huge = WalkSum.single((1 << 62, 0, 0), P("1"))
    with pytest.raises(OverflowError):
        multiply_walk_sums(huge, one, (1,), 2)


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
    # enough factors the group sums to 256.
    rng = random.Random(42)
    for _ in range(400):
        k = rng.randint(1, 4)
        n = rng.randint(1, 6)
        signs = rand_signs(rng, k)
        ws = WalkSum.zero()
        for _ in range(rng.randint(1, 6)):
            key = [rng.randint(0, n + 2) for _ in range(3 * k)]
            ws.add_into(tuple(key), rand_coeff(rng, rng.choice((3, 70, 120))))
            key[0] += 1
            ws.add_into(tuple(key), rand_coeff(rng, 3))
        assert evaluate_walk_sum(ws, signs, n) == reference_evaluate_walk_sum(ws, signs, n)
    assert {64, 128, 256} <= lanes


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
        stack = reference = left.filtered(n) if drl else left
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
    left = WalkSum.zero()
    for _ in range(rng.randint(1, 2)):
        key = tuple(rng.choice((0, 1, 12)) for _ in range(3 * k))
        left.add_into(key, rand_coeff(rng, 20))
    return left


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
        stack = reference = left.filtered(n) if drl else left
        widths = []
        for height in range(6):
            built = len(row_builds)
            stack = multiply_walk_sums(left, stack, signs, limit)
            reference = kernel_product(left, reference, signs, limit)
            assert stack == reference
            if not stack:
                break
            width = stack._packed.rows_for.width
            assert (len(row_builds) > built) == (height == 0 or width > widths[-1])
            assert set(row_builds[built:]) <= {width}
            widths.append(width)
        grown |= len(set(widths)) > 1
    assert grown != drl


def test_rows_rebuilt_for_another_operator(row_builds):
    # a stack whose rows were built against one level-one sum, multiplied
    # by another of the same size, by the same sum at other signs, and by
    # the same sum after add_into changed it: each product matches the
    # kernel, and the carried rows are rebuilt each time, not reused. At a
    # higher DRL limit the same sum admits keys whose rows were dropped.
    rng = random.Random(47)
    for _ in range(40):
        k = rng.randint(1, 3)
        n = rng.randint(3, 6)
        signs = rand_signs(rng, k)
        size = rng.randint(2, 5)
        left = rand_left(rng, k, True, size, 20)
        stack = multiply_walk_sums(left, left.filtered(n), signs, n)
        reference = kernel_product(left, left.filtered(n), signs, n)
        if not stack:
            continue
        assert multiply_walk_sums(left, stack, signs, n + 2) == kernel_product(left, reference, signs, n + 2)
        other = rand_left(rng, k, True, size, 20)
        flipped = tuple(-s for s in signs)
        changed = rand_left(rng, k, True, size, 20)
        changed.add_into(zero_key(k), P("q^2"))
        changed.add_into(rand_key(rng, k, 1), P("-3"))
        for second, at in ((other, signs), (left, flipped), (changed, signs)):
            built = len(row_builds)
            product = multiply_walk_sums(second, stack, at, n)
            assert product == kernel_product(second, reference, at, n)
            if product:
                assert len(row_builds) > built
                assert product._packed.rows_for is second._packed.reorder


def test_columns_built_once_per_level_one_entry(monkeypatch):
    # one operator per job and at most one column per level-one entry,
    # however many heights the stack climbs
    built = []
    operators = []
    column = weyl._Reorder.column
    init = weyl._Reorder.__init__

    def recording_column(self, i, fields):
        if self.columns[i] is None:
            built.append((self, i))
        return column(self, i, fields)

    def recording_init(self, *args):
        operators.append(self)
        init(self, *args)

    monkeypatch.setattr(weyl._Reorder, "column", recording_column)
    monkeypatch.setattr(weyl._Reorder, "__init__", recording_init)
    for text, n in (("1 1 1", 6), ("-1 2 -1 2", 5), ("1 1 2 -1 -3 2 -3", 4), ("1 1 1 2 -1 2 3 -2 3", 4)):
        built.clear()
        operators.clear()
        result = colored_jones(parse_braid(text), n)
        assert result.heights_summed >= 3
        assert len(operators) == 1
        assert len(built) == len(set(built)) <= result.simple_walk_count


def test_threaded_bench_rows_match_single_threaded():
    # each job keeps its operator on its own level-one sum, so jobs on
    # worker threads share no state
    records = load_table()
    untimed = [[{k: v for k, v in row.items() if k != "time_ms"} for row in bench_rows(records, [4], threads=threads)]
               for threads in (1, 2)]
    assert untimed[0] == untimed[1]


def test_untraced_colored_jones_never_decodes_the_stack(monkeypatch):
    decoded = []
    decode = weyl._Packed.decode
    monkeypatch.setattr(weyl._Packed, "decode", lambda self: decoded.append(len(self.coeffs)) or decode(self))
    for text, n in (("1 1 1", 4), ("-1 2 -1 2", 3), ("1 1 2 -1 -3 2 -3", 3)):
        for drl in (True, False):
            assert colored_jones(parse_braid(text), n, drl=drl).heights_summed >= 2
    assert decoded == []
    fig8 = parse_braid("-1 2 -1 2")
    level_one = walk_generator(fig8)
    assert multiply_walk_sums(level_one, level_one, fig8.signs(), 3).entries
    assert len(decoded) == 1


def test_add_into_drops_the_packed_form():
    # a sum packed as an input, or returned packed, and then mutated is
    # read from its entries again by len() and both operations
    signs = (1, -1)
    one = key_from_letters(2, "a1 c2")
    ws = WalkSum.single(one, P("q"))
    product = multiply_walk_sums(ws, ws, signs)
    assert evaluate_walk_sum(ws, signs, 3) == reference_evaluate_walk_sum(ws, signs, 3)
    for walks in (ws, product):
        walks.add_into(zero_key(2), P("5"))
        assert len(walks) == 2
        assert evaluate_walk_sum(walks, signs, 3) == reference_evaluate_walk_sum(walks, signs, 3)
        assert multiply_walk_sums(walks, ws, signs) == kernel_product(walks, ws, signs)


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
