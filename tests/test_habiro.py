"""Habiro integrality of J_1 .. J_4 on every bundled knot and on seeded
random knot braids, and up to its color on each job of the benchmark's
high-color workload.

Habiro (Invent. Math. 171, 2008): for every knot there are Laurent
polynomials C_k in q with integer coefficients, independent of N, such that

    J_N = sum_{k < N} C_k prod_{i=1..k} (q^N + q^-N - q^i - q^-i).

The product for k = N - 1 is the last nonzero one at color N, so C_(N-1)
is solved from J_N and C_0 .. C_(N-2) by one division, which must be exact
in Z[q, 1/q]. The check shares nothing with the engine but its output, and
reaches the whole polynomial at every color; it cannot see a wrong braid
word, since every knot has such an expansion. The mutation tests below
check that it fails on a polynomial off by one coefficient, by a power of
q or by the mirror.
"""
import random

import pytest

from walkjones.braid import BraidWord
from walkjones.cjp import colored_jones
from walkjones.laurent import LaurentPolynomial
from walkjones.table import knot_lookup, load_table

ONE = LaurentPolynomial.one()
TOP = 4
# the (knot, color) jobs of the high-color workload (bench/workloads.py)
HIGH_COLOR = (("9_1", 6), ("9_2", 4), ("9_5", 4), ("9_35", 5))


def divide_exactly(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial | None:
    """a / b when b divides a in Z[q, 1/q], else None (b nonzero)."""
    b_terms = b.terms
    b_top, b_low = max(b_terms), min(b_terms)
    lead = b_terms[b_top]
    floor = min(a.terms, default=0) - b_low
    quotient = {}
    while a:
        top = max(a.terms)
        e = top - b_top
        c, r = divmod(a.terms[top], lead)
        if r or e < floor:
            return None
        quotient[e] = c
        a = a - b.shift(e) * c
    return LaurentPolynomial(quotient)


def cyclotomic_factor(n: int, i: int) -> LaurentPolynomial:
    return LaurentPolynomial({n: 1, -n: 1, i: -1, -i: -1})


def habiro_coefficients(jones: list[LaurentPolynomial]) -> list[LaurentPolynomial] | None:
    """C_0 .. C_(N-1) from [J_1, ..., J_N], or None when some division is
    not exact."""
    coefficients = []
    for n, value in enumerate(jones, 1):
        product = ONE
        for k, c in enumerate(coefficients):
            value = value - c * product
            product = product * cyclotomic_factor(n, k + 1)
        c = divide_exactly(value, product)
        if c is None:
            return None
        coefficients.append(c)
    return coefficients


@pytest.fixture(scope="module")
def table_jones():
    return {
        rec.name: [colored_jones(rec.braid_word(), n).polynomial for n in range(1, TOP + 1)]
        for rec in load_table()
    }


def test_divide_exactly():
    a, b = LaurentPolynomial({-1: 2, 0: 3}), LaurentPolynomial({2: 1, 5: -4})
    assert divide_exactly(a * b, b) == a
    assert divide_exactly(a * b + ONE, b) is None
    assert divide_exactly(LaurentPolynomial({0: 3}), LaurentPolynomial({0: 2})) is None
    assert divide_exactly(LaurentPolynomial.zero(), b) == LaurentPolynomial.zero()


def test_figure_eight_coefficients_are_one():
    # the figure eight's C_k are all 1 (Habiro; Masbaum)
    jones = [colored_jones(knot_lookup("4_1").braid_word(), n).polynomial for n in range(1, 6)]
    assert habiro_coefficients(jones) == [ONE] * 5


def test_every_table_knot_is_integral(table_jones):
    for name, jones in table_jones.items():
        coefficients = habiro_coefficients(jones)
        assert coefficients is not None, name
        assert coefficients[0] == ONE, name


def random_knot(rng: random.Random, strands: int) -> BraidWord:
    """A random word of strands + 1 to strands + 9 crossings on ``strands``
    strands that closes to a knot and keeps every strand when reduced."""
    while True:
        k = rng.randrange(strands + 1, strands + 10, 2)
        word = BraidWord(tuple((rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(k)), strands)
        if word.is_knot_closure() and word.reduced().strands == strands:
            return word


def test_random_knot_braids_are_integral():
    rng = random.Random(28)
    for strands in (2, 3, 4, 5):
        for _ in range(25):
            braid = random_knot(rng, strands)
            jones = [colored_jones(braid, n).polynomial for n in range(1, TOP + 1)]
            assert habiro_coefficients(jones) is not None, braid


@pytest.mark.parametrize("name, top", HIGH_COLOR)
def test_high_color_jobs_are_integral(name, top):
    braid = knot_lookup(name).braid_word()
    coefficients = habiro_coefficients([colored_jones(braid, n).polynomial for n in range(1, top + 1)])
    assert coefficients is not None and coefficients[0] == ONE


def test_one_coefficient_off_is_caught(table_jones):
    rng = random.Random(5)
    for name in rng.sample(sorted(table_jones), 40):
        jones = list(table_jones[name])
        terms = jones[-1].terms
        e = rng.choice(sorted(terms))
        terms[e] += rng.choice((1, -1))
        jones[-1] = LaurentPolynomial(terms)
        assert habiro_coefficients(jones) is None, (name, e)


def test_shift_by_q_is_caught(table_jones):
    for name, jones in table_jones.items():
        assert habiro_coefficients(jones[:-1] + [jones[-1].shift(1)]) is None, name


def test_mirror_is_caught_on_chiral_knots(table_jones):
    missed = []
    for name, jones in table_jones.items():
        mirrored = jones[-1].invert_var()
        if mirrored != jones[-1] and habiro_coefficients(jones[:-1] + [mirrored]) is not None:
            missed.append(name)
    # 9_42's J_2 and J_3 are palindromic, so J_4 is the first color to see
    # its chirality, and its mirror differs from it by a multiple of the
    # k = 3 product; at N = 5 the mirror is caught
    assert missed == ["9_42"]
    jones = [colored_jones(knot_lookup("9_42").braid_word(), n).polynomial for n in range(1, 6)]
    assert habiro_coefficients(jones) is not None
    assert habiro_coefficients(jones[:-1] + [jones[-1].invert_var()]) is None
