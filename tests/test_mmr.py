"""The Melvin-Morton-Rozansky expansion of J_N on every bundled knot.

At q = e^h the colored Jones polynomial expands as J_N(e^h) = sum over i
of h^i M_i(N) / i!, where M_i(N) = sum over the terms c_e q^e of J_N of
c_e e^i. Melvin-Morton-Rozansky: each h^i coefficient is a polynomial of
degree <= i in N, and its N^i coefficients a_ii sum to 1/Delta(e^x) =
sum over i of a_ii x^i, with Delta the Alexander polynomial symmetrized
so that Delta(1/t) = Delta(t) and Delta(1) = 1 (Melvin and Morton, Comm.
Math. Phys. 169 (1995); Bar-Natan and Garoufalidis, Invent. Math. 125
(1996); Rozansky, Adv. Math. 134 (1998)).

With Delta(t) = sum of d_k t^k, Delta(e^x) = 1 + x^2 sum of d_k k^2 / 2 +
O(x^4), so a_11 = 0 and a_22 = -sum of d_k k^2 / 2. The moments are
interpolated exactly in N over N = 1..4, so the degree bound is a real
constraint for i <= 2. The check sees only low orders of h; it reaches
every knot at colors the R-matrix state sum of test_rmatrix does not.
"""
from fractions import Fraction
from math import factorial

import pytest

from test_invariants import alexander
from walkjones.cjp import colored_jones
from walkjones.table import load_table

COLORS = (1, 2, 3, 4)
ORDER = 2


def interpolate(points: dict) -> list:
    """The coefficients, lowest first, of the polynomial of degree below
    len(points) through the points {x: y}, in exact arithmetic."""
    total = [Fraction(0)] * len(points)
    for xj, yj in points.items():
        basis = [Fraction(1)]
        for xm in points:
            if xm != xj:
                # basis * (x - xm) / (xj - xm)
                basis = [(prev - xm * cur) / (xj - xm) for prev, cur in zip([0] + basis, basis + [0])]
        total = [t + yj * b for t, b in zip(total, basis)]
    return total


def symmetric_alexander(braid) -> dict:
    """Delta as {k: d_k} with Delta(1/t) = Delta(t) and Delta(1) = 1."""
    coeffs = alexander(braid)
    assert len(coeffs) % 2 == 1, coeffs
    sign = sum(coeffs)
    assert sign in (1, -1), coeffs
    middle = len(coeffs) // 2
    delta = {e - middle: sign * c for e, c in enumerate(coeffs)}
    assert all(delta[k] == delta[-k] for k in delta), coeffs
    return delta


@pytest.mark.parametrize("record", load_table(), ids=lambda record: record.name)
def test_melvin_morton_rozansky(record):
    braid = record.braid_word()
    polys = {n: colored_jones(braid, n).polynomial for n in COLORS}
    delta = symmetric_alexander(braid)
    # the x^i coefficients of 1/Delta(e^x) for i = 0, 1, 2
    top = [Fraction(1), Fraction(0), Fraction(-sum(d * k * k for k, d in delta.items()), 2)]
    for i in range(ORDER + 1):
        moments = {n: Fraction(sum(c * e**i for e, c in poly.terms.items()), factorial(i)) for n, poly in polys.items()}
        coeff = interpolate(moments)
        assert not any(coeff[i + 1 :]), (i, coeff)
        assert coeff[i] == top[i], (i, coeff, delta)
