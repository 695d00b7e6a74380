"""An N = 2 check independent of the walk engine: the Kauffman bracket state
sum on the braid closure, compared with colored_jones on every bundled knot.

Only BraidWord is shared with the engine; polynomials are plain
{exponent: int} dicts.
"""
from itertools import product

from walkjones.braid import BraidWord, parse_braid
from walkjones.cjp import colored_jones
from walkjones.table import load_table


def poly_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for ex, cx in x.items():
        for ey, cy in y.items():
            out[ex + ey] = out.get(ex + ey, 0) + cx * cy
    return {e: c for e, c in out.items() if c}


def loop_count(braid: BraidWord, vertical: tuple) -> int:
    """Loops left after smoothing every crossing of the closed braid.

    Strand s at level j (0 <= j <= k) is the point j * m + s; crossing j
    joins levels j and j + 1, and the closure joins level k to level 0. A
    vertical smoothing joins each strand to itself across the crossing, a
    horizontal one joins the two strands on each side.
    """
    m = braid.strands
    parent = list(range((braid.k + 1) * m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(x, y):
        parent[find(x)] = find(y)

    for j, ((i, _), upright) in enumerate(zip(braid.crossings, vertical)):
        top, bottom = j * m, (j + 1) * m
        for s in range(m):
            if s not in (i - 1, i) or upright:
                join(top + s, bottom + s)
        if not upright:
            join(top + i - 1, top + i)
            join(bottom + i - 1, bottom + i)
    for s in range(m):
        join(braid.k * m + s, s)
    return len({find(x) for x in range(len(parent))})


def bracket_jones(braid: BraidWord) -> dict:
    """Jones polynomial in q = A^-4 from V = (-A^3)^(-w) <K>, where <K> sums
    A^(#A - #B) d^(loops - 1) over all states, d = -A^2 - A^-2, and the
    A-smoothing of a positive crossing is the vertical one."""
    states: dict = {}
    for choice in product((True, False), repeat=braid.k):
        vertical = tuple(a == (sign > 0) for a, (_, sign) in zip(choice, braid.crossings))
        weight = (2 * sum(choice) - braid.k, loop_count(braid, vertical))
        states[weight] = states.get(weight, 0) + 1
    d = {2: -1, -2: -1}
    bracket: dict = {}
    for (a_exp, loops), count in states.items():
        term = {a_exp: count}
        for _ in range(loops - 1):
            term = poly_mul(term, d)
        for e, c in term.items():
            bracket[e] = bracket.get(e, 0) + c
    w = braid.writhe()
    jones = {}
    for e, c in bracket.items():
        if c:
            e -= 3 * w
            assert e % 4 == 0, (braid, e)
            jones[-e // 4] = c * (-1) ** w
    return jones


def test_bracket_known_values():
    assert bracket_jones(parse_braid("-1")) == {0: 1}
    assert bracket_jones(parse_braid("1 1 1")) == {1: 1, 3: 1, 4: -1}
    assert bracket_jones(parse_braid("-1 2 -1 2")) == {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1}


def test_bracket_matches_engine_on_table():
    # and J_N(1) = 1 for N = 2, 3 in the same pass
    records = load_table()
    assert len(records) == 84
    for rec in records:
        braid = rec.braid_word()
        jones = colored_jones(braid, 2).polynomial.terms
        assert jones == bracket_jones(braid), rec.name
        assert sum(jones.values()) == 1, rec.name
        assert sum(colored_jones(braid, 3).polynomial.terms.values()) == 1, rec.name
