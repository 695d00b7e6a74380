"""Laurent polynomial arithmetic, codec and ring properties."""
import random
from fractions import Fraction

import pytest

from walkjones.laurent import LaurentParseError, LaurentPolynomial

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
