"""Laurent polynomial arithmetic, codec and ring properties."""
import random
import tracemalloc
from fractions import Fraction

import pytest

from walkjones import weyl
from walkjones.braid import parse_braid
from walkjones.cjp import colored_jones
from walkjones.laurent import SPAN_MAX, LaurentParseError, LaurentPolynomial

P = LaurentPolynomial.parse


def brute_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def brute_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def rand_poly(rng, max_terms=6, max_exp=8, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(-max_exp, max_exp)] = rng.randint(-max_coeff, max_coeff)
    return LaurentPolynomial(terms)


def test_add_inverse_cancels():
    assert P("1 - q") + P("-1 + q") == LaurentPolynomial.zero()


def test_add_merges_like_terms():
    assert P("q^2") + P("q^2") == P("2*q^2")


def test_add_figure_eight_partial_sums():
    # partial sums from the figure-eight evaluation at color 2: the four
    # one-path walks sum to the first operand, the two-path walk gives the
    # second; expected value frozen from the dict-addition oracle
    a = P("q^-1 - 3 + 3*q - 2*q^2 + q^3")
    b = P("-1 + 2*q - q^2")
    expected = brute_add(a.terms, b.terms)
    assert expected == {-1: 1, 0: -4, 1: 5, 2: -3, 3: 1}
    assert a + b == P("q^-1 - 4 + 5*q - 3*q^2 + q^3")


def test_mul_difference_of_squares():
    assert P("1 - q") * P("1 + q") == P("1 - q^2")


def test_mul_square():
    assert P("1 - q") * P("1 - q") == P("1 - 2*q + q^2")


def test_mul_framing_shift():
    a = P("q^-1")
    b = P("q^-1 - 1 + q - q^2 + q^3")
    expected = brute_mul(a.terms, b.terms)
    assert expected == {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}
    assert a * b == P("q^-2 - q^-1 + 1 - q + q^2")
    assert b.shift(-1) == a * b


def test_invert_var_fixes_palindromic():
    p = P("q^-2 - q^-1 + 1 - q + q^2")
    assert p.invert_var() == p


def test_invert_var_trefoil_pair():
    assert P("q + q^3 - q^4").invert_var() == P("q^-1 + q^-3 - q^-4")


def test_invert_var_zero():
    z = LaurentPolynomial.zero()
    assert z.invert_var() == z


def test_invert_var_involution_random():
    rng = random.Random(2024)
    for _ in range(300):
        p = rand_poly(rng)
        assert p.invert_var().invert_var() == p


def test_codec_figure_eight_anchor():
    text = "q^-2 - q^-1 + 1 - q + q^2"
    p = P(text)
    assert p.terms == {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}
    assert p.format() == text


def test_codec_constant_one():
    assert P("1").format() == "1"
    assert P("1") == LaurentPolynomial.one()


def test_codec_reorders_to_ascending():
    assert P("-q^4 + q^3 + q").format() == "q + q^3 - q^4"


def test_codec_zero():
    assert P("0").format() == "0"
    assert LaurentPolynomial.zero().format() == "0"


@pytest.mark.parametrize("bad", ["", "q^", "2**q", "q + + q", "3*", "x + 1", "q^2 q"])
def test_codec_errors_name_token(bad):
    with pytest.raises(LaurentParseError):
        P(bad)


def test_codec_roundtrip_random():
    rng = random.Random(99)
    for _ in range(300):
        p = rand_poly(rng)
        assert P(p.format()) == p


def test_eval_at_one_kills_1_minus_q():
    assert P("1 - q").eval_at(1.0) == 0


def test_eval_trefoil_at_one_is_one():
    assert P("q + q^3 - q^4").eval_at(1.0) == 1


def test_eval_q_squared_at_i():
    assert P("q^2").eval_at(1j) == pytest.approx(-1)


def test_eval_at_zero_rejected():
    with pytest.raises(ValueError):
        P("q^-1").eval_at(0)
    with pytest.raises(ValueError):
        P("q^2").eval_at(0)


@pytest.mark.parametrize("z", [
    float("nan"), float("inf"), complex(1, float("-inf")), complex(float("nan"), 0),
    1e200, complex(1e200), complex(0, -1e200), complex(1e-200), 1e-200,
])
def test_eval_at_non_finite_rejected(z):
    # q^3 overflows at a huge q and q^-2 at a tiny one
    with pytest.raises(ValueError):
        P("q^-2 + 1 + q^3").eval_at(z)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(1000):
        a, b, c = (rand_poly(rng, max_terms=4, max_exp=5, max_coeff=5) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).terms == brute_mul(a.terms, b.terms)
        assert (a + b).terms == brute_add(a.terms, b.terms)


def test_no_zero_coefficients_stored():
    rng = random.Random(13)
    for _ in range(200):
        a = rand_poly(rng)
        b = rand_poly(rng)
        for p in (a + b, a * b, a - b, -a):
            assert all(c != 0 for c in p.terms.values())


def test_constants_hash_as_the_int_they_equal():
    for c in (0, 1, -1, 5, 2**70):
        poly = LaurentPolynomial.constant(c)
        assert poly == c and hash(poly) == hash(c)
        assert len({poly, c}) == 1
    assert len({LaurentPolynomial.zero(), 0}) == 1
    assert {P("5"): "five"}[5] == "five"
    assert P("q") != 1 and P("1 + q") != 1


@pytest.mark.parametrize(
    "terms",
    [{1: 0.4}, {0.5: 1}, {0.5: 1, 0.7: 2}, {1: 2.0}, {"1": 1}, {1: "2"}, {1: Fraction(1, 2)}, {Fraction(2): 1}],
)
def test_constructor_rejects_terms_that_are_not_integers(terms):
    # int() once truncated these: {1: 0.4} stored a zero term, {0.5: 1}
    # equalled 1, and {0.5: 1, 0.7: 2} kept one of its two terms
    with pytest.raises(TypeError, match="integers"):
        LaurentPolynomial(terms)


def test_constructor_drops_terms_that_are_zero_as_integers():
    poly = LaurentPolynomial({2: False, True: 3, -1: 0})
    assert poly.terms == {1: 3} and poly == LaurentPolynomial.q_power(1, 3)


def test_constant_and_q_power_reject_terms_that_are_not_integers():
    # both once truncated through int(): constant(0.4) stored a zero term
    # that formatted as -0, and q_power(0.5) equalled 1
    for call in (
        lambda: LaurentPolynomial.constant(0.4),
        lambda: LaurentPolynomial.q_power(0.5),
        lambda: LaurentPolynomial.q_power(2, 1.0),
        lambda: LaurentPolynomial.q_power(-3, -1.0),
    ):
        with pytest.raises(TypeError, match="integers"):
            call()
    assert LaurentPolynomial.constant(0).is_zero() and LaurentPolynomial.q_power(4, 0).is_zero()
    assert LaurentPolynomial.q_power(True, -2) == P("-2*q")


def test_every_construction_gives_one_canonical_form():
    # the figure-eight J_2 built every way: equal, with equal hashes
    terms = {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}
    ways = [
        LaurentPolynomial(terms),
        LaurentPolynomial({**terms, 5: 0, -7: 0}),
        P("q^-2 - q^-1 + 1 - q + q^2"),
        P("q^-2 - q^-1 + 1 - q + q^2 + q^9 - q^9"),
        P("1 + q^-2") - P("q^-1") + P("q^2 - q") + P("q^5") * P("q^-5") - P("1"),
        P("q^-1") * P("q^-1 - 1 + q - q^2 + q^3"),
        P("q^2 - q^3 + q^4 - q^5 + q^6").shift(-4),
        P("q^2 - q + 1 - q^-1 + q^-2").invert_var(),
        LaurentPolynomial._raw(-2, (1, -1, 1, -1, 1)),
        LaurentPolynomial._from_terms({e: -c for e, c in terms.items()}, -1),
        weyl._unpack(weyl._pack(LaurentPolynomial(terms), 64)[0] << 128, 64, -4),
        colored_jones(parse_braid("-1 2 -1 2"), 2).polynomial,
    ]
    for poly in ways:
        assert poly == ways[0] and hash(poly) == hash(ways[0]) and poly.terms == terms
    assert len(set(ways)) == 1


def test_zero_built_every_way_is_one_value():
    ways = [
        LaurentPolynomial(), LaurentPolynomial({3: 0}), P("0"), P("q^4 - q^4"), P("q") - P("q"),
        P("q") * LaurentPolynomial.zero(), P("q") * 0, LaurentPolynomial.zero().shift(5),
        LaurentPolynomial.zero().invert_var(), weyl._unpack(0, 64, 7),
    ]
    for poly in ways:
        assert poly == 0 and poly == LaurentPolynomial.zero() and hash(poly) == hash(0)
        assert poly.is_zero() and not poly and len(poly) == 0 and poly.terms == {}


def test_shift_and_invert_var_round_trip():
    rng = random.Random(17)
    for _ in range(300):
        p = rand_poly(rng)
        e = rng.randint(-20, 20)
        assert p.shift(e).shift(-e) == p
        assert p.shift(e).terms == {k + e: c for k, c in p.terms.items()}
        assert p.invert_var().terms == {-k: c for k, c in p.terms.items()}
        assert p.invert_var().shift(e).invert_var() == p.shift(-e)
        assert hash(p.shift(e).shift(-e)) == hash(p)


def test_terms_is_a_fresh_map():
    p = P("q^-1 + 2 - q^3")
    p.terms[7] = 1
    p.terms.clear()
    del p.terms[-1]
    assert p == P("q^-1 + 2 - q^3") and p.terms == {-1: 1, 0: 2, 3: -1} and len(p) == 3
    assert list(p) == [(-1, 1), (0, 2), (3, -1)]


@pytest.mark.parametrize("build", [
    lambda: LaurentPolynomial({0: 1, 10**12: 1}),
    lambda: LaurentPolynomial({-(10**12): 3, 1: 1}),
    lambda: P("1 + q^1000000000000"),
    lambda: LaurentPolynomial.one() + LaurentPolynomial.q_power(10**12),
    lambda: LaurentPolynomial.q_power(10**12, 2) - LaurentPolynomial.q_power(-5),
    lambda: LaurentPolynomial({0: 1, SPAN_MAX + 1: 1}),
])
def test_huge_span_fails_fast_without_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"spans \d+ powers of q, past the limit"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_huge_product_span_fails_before_the_product_is_allocated():
    half = LaurentPolynomial({0: 1, SPAN_MAX // 2 + 1: 1})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"spans {2 * (SPAN_MAX // 2 + 1)} powers of q"):
            half * half
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_span_limit_is_inclusive():
    p = LaurentPolynomial({0: 1, SPAN_MAX: -1})
    assert len(p) == 2 and p.terms == {0: 1, SPAN_MAX: -1}
    assert p.invert_var().shift(SPAN_MAX) == LaurentPolynomial({0: -1, SPAN_MAX: 1})
