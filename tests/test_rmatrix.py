"""A check at every color independent of the walk engine: the U_q(sl2)
R-matrix state sum on the braid closure, compared with colored_jones.

The color-N module has basis v_0..v_{N-1} with K v_i = Q^(N-1-2i) v_i,
E v_i = [N-i] v_{i-1} and F v_i = [i+1] v_{i+1}. The R-matrix is

    R = Q^(H(x)H/2) sum_n Q^(n(n-1)/2) (Q - Q^-1)^n / [n]! E^n (x) F^n,

a positive crossing acts on its two strands as P R and a negative one as
R^-1 P, with R^-1 = sum_n (-1)^n Q^(-n(n-1)/2) (Q - Q^-1)^n / [n]!
E^n (x) F^n Q^(-H(x)H/2). The closure invariant is the trace of the braid
operator weighted by K on every strand; J_N = theta^-writhe tr / [N] with
theta = Q^((N^2-1)/2) is 1 on the unknot. Refs: Kirby and Melvin, Invent.
Math. 105 (1991); Kassel, Quantum Groups, GTM 155.

Only BraidWord is shared with the engine. Polynomials are plain
{exponent: int} dicts in v = Q^(1/2); the engine's q is Q^-2 = v^-4, and
tr is compared with J_N [N] so that no division is needed.
"""
import random
from itertools import product

import pytest

from conftest import composite_word, knot_factor, markov_moved
from walkjones import cjp
from walkjones.braid import BraidWord, parse_braid
from walkjones.cjp import colored_jones
from walkjones.table import knot_lookup, load_table


def add_into(acc: dict, x: dict) -> None:
    for e, c in x.items():
        c += acc.get(e, 0)
        if c:
            acc[e] = c
        else:
            acc.pop(e, None)


def poly_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for ex, cx in x.items():
        add_into(out, {ex + ey: cx * cy for ey, cy in y.items()})
    return out


def q_binomial(n: int, k: int) -> dict:
    """The symmetric Gaussian binomial [n choose k] in v, from
    [n, k] = Q^-k [n-1, k] + Q^(n-k) [n-1, k-1]."""
    if k < 0 or k > n:
        return {}
    if k == 0 or k == n:
        return {0: 1}
    out = {e - 2 * k: c for e, c in q_binomial(n - 1, k).items()}
    add_into(out, {e + 2 * (n - k): c for e, c in q_binomial(n - 1, k - 1).items()})
    return out


def crossing_tables(n_color: int) -> tuple[dict, dict]:
    """For P R and R^-1 P: (a, b) -> [((x, y), coefficient)], the image of
    v_a (x) v_b as a sum of coefficient * v_x (x) v_y."""
    weight = [n_color - 1 - 2 * i for i in range(n_color)]
    positive: dict = {}
    negative: dict = {}
    for a in range(n_color):
        for b in range(n_color):
            positive[a, b] = []
            negative[a, b] = []
            # E^n on the first factor takes v_s to prod_{t<n} [N-s+t] v_{s-n};
            # times (Q - Q^-1)^n each [m] becomes Q^m - Q^-m. F^n / [n]! on the
            # second takes v_u to [u+n choose n] v_{u+n}.
            for s, u, table, sign in ((a, b, positive, 1), (b, a, negative, -1)):
                for n in range(min(s, n_color - 1 - u) + 1):
                    coeff = q_binomial(u + n, n)
                    for t in range(n):
                        m = 2 * (n_color - s + t)
                        coeff = poly_mul(coeff, {m: 1, -m: -1})
                    if sign > 0:
                        shift = weight[s - n] * weight[u + n] + n * (n - 1)
                        image = (u + n, s - n)
                    else:
                        shift = -weight[s] * weight[u] - n * (n - 1)
                        coeff = {e: (-1) ** n * c for e, c in coeff.items()}
                        image = (s - n, u + n)
                    table[a, b].append((image, {e + shift: c for e, c in coeff.items()}))
    return positive, negative


def apply_crossing(vector: dict, i: int, table: dict) -> dict:
    """The crossing on strands i - 1 and i (0-based) applied to a vector
    {basis tuple: coefficient}."""
    out: dict = {}
    for state, coeff in vector.items():
        for (x, y), c in table[state[i - 1], state[i]]:
            image = state[:i - 1] + (x, y) + state[i + 1:]
            add_into(out.setdefault(image, {}), poly_mul(coeff, c))
    return {s: c for s, c in out.items() if c}


def rmatrix_trace(braid: BraidWord, n_color: int) -> dict:
    """theta^-writhe times the K-weighted trace of the braid operator, in v:
    this is J_N [N]."""
    tables = crossing_tables(n_color)
    total: dict = {}
    for start in product(range(n_color), repeat=braid.strands):
        vector = {start: {0: 1}}
        for i, sign in braid.crossings:
            vector = apply_crossing(vector, i, tables[sign < 0])
        back = vector.get(start)
        if back:
            weight = sum(2 * (n_color - 1 - 2 * s) for s in start)
            add_into(total, {e + weight: c for e, c in back.items()})
    framing = -(n_color * n_color - 1) * braid.writhe()
    return {e + framing: c for e, c in total.items()}


def engine_times_quantum_dimension(braid: BraidWord, n_color: int) -> dict:
    jones = {-4 * e: c for e, c in colored_jones(braid, n_color).polynomial.terms.items()}
    dimension = {2 * (n_color - 1 - 2 * i): 1 for i in range(n_color)}
    return poly_mul(jones, dimension)


@pytest.mark.parametrize("n_color", [2, 3, 4])
def test_crossings_invert_each_other(n_color):
    positive, negative = crossing_tables(n_color)
    for a in range(n_color):
        for b in range(n_color):
            vector = apply_crossing(apply_crossing({(a, b): {0: 1}}, 1, positive), 1, negative)
            assert vector == {(a, b): {0: 1}}, (a, b)


@pytest.mark.parametrize("n_color", [2, 3])
def test_crossings_satisfy_braid_relation(n_color):
    positive, _ = crossing_tables(n_color)
    for start in product(range(n_color), repeat=3):
        left = right = {start: {0: 1}}
        for i in (1, 2, 1):
            left = apply_crossing(left, i, positive)
        for i in (2, 1, 2):
            right = apply_crossing(right, i, positive)
        assert left == right, start


def test_unknot_diagrams_give_quantum_dimension():
    for n_color in (1, 2, 3, 4):
        dimension = {2 * (n_color - 1 - 2 * i): 1 for i in range(n_color)}
        for word in ("", "1", "-1", "1 2", "-1 2 -3", "1 1 -1"):
            braid = parse_braid(word) if word else BraidWord((), 1)
            assert rmatrix_trace(braid, n_color) == dimension, (word, n_color)


def test_trefoil_at_two():
    # J_2 = q + q^3 - q^4 at q = v^-4, times [2] = v^2 + v^-2
    expected = poly_mul({-4: 1, -12: 1, -16: -1}, {2: 1, -2: 1})
    assert rmatrix_trace(parse_braid("1 1 1"), 2) == expected


def test_rmatrix_matches_engine_on_table_at_three():
    records = load_table()
    assert len(records) == 84
    for rec in records:
        braid = rec.braid_word()
        assert rmatrix_trace(braid, 3) == engine_times_quantum_dimension(braid, 3), rec.name


# 9_12 and 9_37 run on a cut other than the input word at N = 4
@pytest.mark.parametrize("name, n_color", [("9_1", 6), ("9_2", 4), ("9_12", 4), ("9_37", 4)])
def test_rmatrix_matches_engine_at_high_color(name, n_color):
    braid = knot_lookup(name).braid_word()
    assert rmatrix_trace(braid, n_color) == engine_times_quantum_dimension(braid, n_color)


def descending_word(rng: random.Random) -> BraidWord:
    """A random 3-strand knot word of 10 crossings (a 3-cycle is even), left
    as it is by BraidWord.reduced, whose orientation search at N = 4 runs a
    descent: its cut winner keeps at least cjp.DESCENT_FROM_WALKS simple
    walks."""
    while True:
        word = BraidWord(tuple((rng.randint(1, 2), rng.choice((1, -1))) for _ in range(10)), 3)
        if word.is_knot_closure() and word.reduced() == word:
            counts = cjp.choose_orientation(word, 4)[2]
            if len(counts) > 2 * len(cjp.cut_candidates(word)):
                return word


RANDOM_WORDS = {
    "knot_factor": lambda rng, i: knot_factor(rng, 2 + i % 4),
    "composite_word": lambda rng, i: composite_word(rng, 3 + i % 2),
    "markov_moved": lambda rng, i: markov_moved(rng, knot_factor(rng, 2 + i % 2)),
    "descent": lambda rng, i: descending_word(rng),
}


@pytest.mark.parametrize("family, count", [("knot_factor", 30), ("composite_word", 10), ("markov_moved", 8), ("descent", 3)])
def test_rmatrix_matches_engine_on_random_words(family, count):
    # seeded words the table does not hold, at N = 2 and 3, and at N = 4 on
    # words of at most 3 strands: knot words on 2-5 strands, connected sums
    # that split, Markov-moved words the engine reduces, and 3-strand words
    # whose N = 4 search descends over braid-relation rewrites
    rng = random.Random(53)
    for i in range(count):
        braid = RANDOM_WORDS[family](rng, i)
        for n_color in (2, 3, 4) if braid.strands <= 3 else (2, 3):
            assert rmatrix_trace(braid, n_color) == engine_times_quantum_dimension(braid, n_color), (braid.text(), n_color)
