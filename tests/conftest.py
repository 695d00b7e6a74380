"""Shared builders for the walk-algebra tests."""
import random

import pytest

from walkjones.braid import parse_braid
from walkjones.laurent import LaurentPolynomial
from walkjones.oracle import KeyedMonomial
from walkjones.weyl import zero_key

LETTER_SLOT = {"b": 0, "c": 1, "a": 2}


def key_from_letters(crossings: int, letters: str) -> tuple:
    """Build an exponent key from a compact word like 'a1 b2 c4'."""
    key = [0] * (3 * crossings)
    for tok in letters.split():
        kind, crossing = tok[0], int(tok[1:])
        key[3 * (crossing - 1) + LETTER_SLOT[kind]] += 1
    return tuple(key)


def mono(crossings: int, letters: str, coeff="1") -> KeyedMonomial:
    return KeyedMonomial(key_from_letters(crossings, letters), LaurentPolynomial.parse(coeff))


@pytest.fixture
def fig8():
    return parse_braid("-1 2 -1 2")


@pytest.fixture
def fig8_signs(fig8):
    return fig8.signs()


def rand_key(rng: random.Random, crossings: int, max_count: int = 3) -> tuple:
    return tuple(rng.randint(0, max_count) for _ in range(3 * crossings))


def rand_signs(rng: random.Random, crossings: int) -> tuple:
    return tuple(rng.choice((1, -1)) for _ in range(crossings))


def rand_mono(rng: random.Random, crossings: int, max_count: int = 2) -> KeyedMonomial:
    coeff = LaurentPolynomial({rng.randint(-4, 4): rng.randint(-5, 5) or 1})
    return KeyedMonomial(rand_key(rng, crossings, max_count), coeff)


def empty_mono(crossings: int) -> KeyedMonomial:
    return KeyedMonomial(zero_key(crossings), LaurentPolynomial.one())
