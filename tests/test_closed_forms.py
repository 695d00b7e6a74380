"""Closed forms of J_N at colors past the R-matrix state sum's reach.

Each form is compared in v = q^(1/2): the engine's J_N(q) becomes J_N(v^2),
and each side is a Laurent polynomial in v, so that no division is needed.
"""
import pytest

from walkjones.braid import parse_braid
from walkjones.cjp import colored_jones
from walkjones.laurent import LaurentPolynomial

V = LaurentPolynomial.q_power


def in_v(poly):
    """J(q) as J(v^2)."""
    return LaurentPolynomial({2 * e: c for e, c in poly.terms.items()})


def quantum_integer(m):
    """[m] = sum over i < m of v^(m-1-2i)."""
    return sum((V(m - 1 - 2 * i) for i in range(m)), LaurentPolynomial.zero())


def braces(m):
    """{m} = v^m - v^-m."""
    return V(m) - V(-m)


def engine(word, n):
    return in_v(colored_jones(parse_braid(word), n).polynomial)


@pytest.mark.parametrize("p, colors", [(3, range(2, 13)), (5, range(2, 11)), (9, range(2, 9)), (-3, range(2, 7))])
def test_two_strand_torus_knots(p, colors):
    # Morton; Rosso and Jones: on the word sigma_1^p,
    # [N] J_N = v^(p(N^2-1)) sum_{j<N} (-1)^((N-1-j)p) v^(-pj(j+1)) [2j+1]
    word = " ".join([str(1 if p > 0 else -1)] * abs(p))
    for n in colors:
        total = LaurentPolynomial.zero()
        for j in range(n):
            total += V(-p * j * (j + 1), (-1) ** ((n - 1 - j) * p)) * quantum_integer(2 * j + 1)
        assert quantum_integer(n) * engine(word, n) == V(p * (n * n - 1)) * total, (p, n)


@pytest.mark.parametrize("n", range(2, 11))
def test_figure_eight_habiro_sum(n):
    # Habiro: J_N(4_1) = sum_{m<N} prod_{i=1..m} {N+i}{N-i}
    total = LaurentPolynomial.zero()
    term = LaurentPolynomial.one()
    for m in range(n):
        if m:
            term = term * braces(n + m) * braces(n - m)
        total += term
    assert engine("-1 2 -1 2", n) == total
