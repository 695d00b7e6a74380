"""Closed forms of J_N at colors past the R-matrix state sum's reach.

The two-strand torus and Habiro forms are compared in v = q^(1/2): the
engine's J_N(q) becomes J_N(v^2), and each side is a Laurent polynomial in
v, so that no division is needed. The form for torus knots on more
strands is compared the same way in w = q^(1/4). Masbaum's twist-knot form is a sum of rational
functions, so it is compared by exact values at rational points.
"""
from fractions import Fraction

import pytest

from walkjones.braid import parse_braid
from walkjones.cjp import colored_jones
from walkjones.laurent import LaurentPolynomial
from walkjones.table import knot_lookup, load_table

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
            total += V(-p * j * (j + 1), -1 if (n - 1 - j) * p % 2 else 1) * quantum_integer(2 * j + 1)
        assert quantum_integer(n) * engine(word, n) == V(p * (n * n - 1)) * total, (p, n)


@pytest.mark.parametrize(
    "s, t, top",
    [(3, 4, 10), (3, 5, 4), (4, 5, 4), (3, -5, 5), (3, 7, 5), (4, 7, 3), (5, 6, 3)],
)
def test_torus_knots(s, t, top):
    # Rosso and Jones; Morton: on the word (sigma_1 ... sigma_(s-1))^t, in
    # w = q^(1/4) and with k = h/2 for h = 1-N, 3-N, ..., N-1,
    # (w^2N - w^-2N) J_N(w^-4) =
    # w^(st(1-N^2)) sum_h (w^(st h^2 + 2(s+t)h + 2) - w^(st h^2 + 2(s-t)h - 2)).
    # This runs DRL on 3-5 strands, which the two-strand forms do not.
    word = " ".join(str(i if t > 0 else -i) for _ in range(abs(t)) for i in range(1, s))
    for n in range(2, top + 1):
        poly = colored_jones(parse_braid(word), n).polynomial
        engine_w = LaurentPolynomial({-4 * e: c for e, c in poly.terms.items()})
        total = LaurentPolynomial.zero()
        for h in range(1 - n, n, 2):
            total += V(s * t * h * h + 2 * (s + t) * h + 2) - V(s * t * h * h + 2 * (s - t) * h - 2)
        assert braces(2 * n) * engine_w == V(s * t * (1 - n * n)) * total, (s, t, n)


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


def q_pochhammer(x, q, n):
    """(x; q)_n = prod over i < n of (1 - x q^i)."""
    out = Fraction(1)
    for i in range(n):
        out *= 1 - x * q**i
    return out


def masbaum_twist(p, n, q):
    """Masbaum's J_N of the twist knot K_p at a rational q:
    sum_{m<N} q^m (q^(1+N);q)_m (q^(1-N);q)_m sum_{k<=m} (-1)^k
    q^(k(k+1)p + k(k-1)/2) (1 - q^(2k+1)) (q;q)_m / ((q;q)_(m+k+1) (q;q)_(m-k))."""
    total = Fraction(0)
    for m in range(n):
        inner = Fraction(0)
        for k in range(m + 1):
            sign = (-1) ** k * q ** (k * (k + 1) * p + k * (k - 1) // 2) * (1 - q ** (2 * k + 1))
            inner += sign * q_pochhammer(q, q, m) / (q_pochhammer(q, q, m + k + 1) * q_pochhammer(q, q, m - k))
        total += q**m * q_pochhammer(q ** (1 + n), q, m) * q_pochhammer(q ** (1 - n), q, m) * inner
    return total


def table_values(name, n):
    """J_N of a table knot at q = 4 and q = 1/4, exactly."""
    poly = colored_jones(knot_lookup(name, load_table()).braid_word(), n).polynomial
    return [sum(c * q**e for e, c in poly.terms.items()) for q in (Fraction(4), Fraction(1, 4))]


@pytest.mark.parametrize(
    "name, p, inverted",
    [("3_1", 1, False), ("4_1", -1, False), ("5_2", 2, False), ("7_2", 3, False), ("8_1", -3, False), ("6_1", -2, True)],
)
def test_twist_knots_masbaum(name, p, inverted):
    # Masbaum, Algebr. Geom. Topol. 3 (2003); the table's 6_1 is K_-2 with q -> 1/q
    for n in range(2, 5):
        points = (Fraction(1, 4), Fraction(4)) if inverted else (Fraction(4), Fraction(1, 4))
        assert table_values(name, n) == [masbaum_twist(p, n, q) for q in points], (name, n)


def test_table_9_2_is_not_the_twist_knot():
    # the 9_2 entry matches K_4 at N = 2, but not at N = 3 or 4
    for n, same in ((2, True), (3, False), (4, False)):
        values = table_values("9_2", n)
        for value, q in zip(values, (Fraction(4), Fraction(1, 4))):
            assert (value == masbaum_twist(4, n, q)) is same, (n, q)
