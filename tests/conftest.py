"""Shared builders for the walk-algebra tests."""
import random

import pytest

from walkjones.braid import BraidWord, parse_braid
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


def markov_moved(rng: random.Random, braid: BraidWord) -> BraidWord:
    """The braid moved without changing its closure: conjugated by a random
    generator and rotated, conjugated again so that a sigma sigma^-1 pair
    spans the word's ends, then stabilized 2 or 3 times, each new top
    crossing of random sign inserted at a random place between the ends."""
    word, m = list(braid.crossings), braid.strands
    for rotate in (True, False):
        index, sign = rng.randint(1, m - 1), rng.choice((1, -1))
        word = [(index, sign)] + word + [(index, -sign)]
        if rotate:
            r = rng.randrange(len(word))
            word = word[r:] + word[:r]
    for _ in range(rng.randint(2, 3)):
        word.insert(rng.randint(1, len(word) - 1), (m, rng.choice((1, -1))))
        m += 1
    return BraidWord(tuple(word), m)


def with_relator(braid: BraidWord, index: int, position: int, mirrored: bool) -> BraidWord:
    """The braid with the trivial word s_i s_(i+1) s_i s_(i+1)^-1 s_i^-1
    s_(i+1)^-1 (i = index; its mirror when ``mirrored``) inserted before
    crossing ``position``: the same closure. The relator holds no adjacent
    inverse pair and uses each of its generators more than once, so
    BraidWord.reduced does not remove it by itself."""
    i, j = index, index + 1
    relator = ((i, 1), (j, 1), (i, 1), (j, -1), (i, -1), (j, -1))
    if mirrored:
        relator = tuple((g, -s) for g, s in relator)
    word = braid.crossings
    return BraidWord(word[:position] + relator + word[position:], braid.strands)


def rotations(braid: BraidWord) -> set:
    """Every cyclic rotation of the braid's word."""
    return {braid.rotated(r) for r in range(max(braid.k, 1))}


def knot_factor(rng: random.Random, strands: int) -> BraidWord:
    """A random word on ``strands`` >= 2 strands that closes to a knot and
    that BraidWord.reduced leaves as it is."""
    while True:
        k = rng.randrange(strands + 1, strands + 4, 2)
        word = BraidWord(tuple((rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(k)), strands)
        if word.is_knot_closure() and word.reduced() == word:
            return word


def composite_word(rng: random.Random, strands: int) -> BraidWord:
    """A word on ``strands`` >= 3 strands that closes to a connected sum:
    random knot_factor words u on strands 1..j and v on strands j..m,
    their letters interleaved at random with every sigma_(j-1) before every
    sigma_j, then rotated. Only far commutations and a conjugation separate
    it from u v, so it closes to closure(u) # closure(v)."""
    j = rng.randint(2, strands - 1)
    u, v = knot_factor(rng, j), knot_factor(rng, strands - j + 1)
    low, high = list(u.crossings), [(i + j - 1, s) for i, s in v.crossings]
    last = max(r for r, (i, _) in enumerate(low) if i == j - 1) + 1
    first = min(r for r, (i, _) in enumerate(high) if i == j)
    word = []
    for a, b in ((low[:last], high[:first]), (low[last:], high[first:])):
        while a or b:
            source = a if a and (not b or rng.random() < len(a) / (len(a) + len(b))) else b
            word.append(source.pop(0))
    r = rng.randrange(len(word))
    return BraidWord(tuple(word[r:] + word[:r]), strands)
