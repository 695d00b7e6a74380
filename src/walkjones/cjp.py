"""Colored Jones polynomial of a braid closure.

The polynomial is the framing factor q^((n-1)(writhe - m + 1)/2) times the
sum over stack heights of the color evaluation of the walk sum raised to
that height. The stack is rebuilt each height by left-multiplying with the
level-one walk sum; the loop ends when the stack is empty or its evaluation
is the zero polynomial. The first stack is the level-one sum itself, and
from the second height on the stack is the packed walk sum
multiply_walk_sums returns (see weyl): evaluate_walk_sum and the next
multiply read it as it is, so it is never decoded into tuple keys and
LaurentPolynomials, and the level-one sum is packed once per job.
Evaluation sums the monomials per multiset of (1 - q^e) factors and
applies each multiset once.

Orientation selection runs the word with the fewest simple walks among
words whose closures are the same knot, compensating a mirror at the end
with q -> 1/q. Below color SEARCH_FROM_COLOR the candidates are the braid
and its mirror. From that color on they are also the cyclic rotations
(conjugates) of the braid and of its flip sigma_i -> sigma_(m-i), each
with its mirror: walk counts follow the presentation, not the knot
(Armond, arXiv:1101.3810). One cut per gap between sigma_1 letters is
tried: on every rotation of every bundled braid and its flip, a rotation
past sigma_i with i >= 2 left the count unchanged. Every candidate has the
input's strands and writhe, up to the mirror's sign, so the polynomial
and framing do not depend on the choice. Each candidate costs one level-one
generator run, so the search pays only where the stack loop dominates. On
the 84 bundled knots (CPU time, 2 vCPUs, Python 3.11) the whole table took,
without and with the search, 0.53 -> 2.10 s at N = 2, 0.74 -> 2.17 s at
N = 3, 2.46 -> 2.67 s at N = 4 and 14.9 -> 5.4 s at N = 5.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

from .braid import BraidWord, NotAKnotError
from .burau import walk_generator
from .laurent import LaurentPolynomial
from .weyl import WalkSum, evaluate_walk_sum, multiply_walk_sums

SEARCH_FROM_COLOR = 4


@dataclass
class CjpResult:
    """Result record: the polynomial plus how the computation ran.

    braid_used is the word the loop ran on, after any cut, flip and
    mirror; framing_exponent and simple_walk_count describe it (mirror_used
    says whether it is a mirror of the input). With pruning disabled
    simple_walk_count is the unrestricted level-one entry count.
    heights_summed counts the stack heights whose evaluation was added.
    walk_counts maps each word choose_orientation measured (the input and
    its mirror among them) to its simple-walk count; empty without mirror_opt.
    """

    polynomial: LaurentPolynomial
    mirror_used: bool
    framing_exponent: int
    heights_summed: int
    simple_walk_count: int
    braid_used: BraidWord
    walk_counts: dict[BraidWord, int]


def _checked_color(color) -> int:
    """The color as an int: TypeError if it is not an integer, ValueError
    if it is below 1."""
    try:
        color = operator.index(color)
    except TypeError:
        raise TypeError(f"color must be an integer, got {color!r}") from None
    if color < 1:
        raise ValueError(f"color must be >= 1, got {color}")
    return color


def simple_walk_count(braid: BraidWord) -> int:
    """Number of simple walks in the level-one walk sum; 0 on one strand,
    where the only braid is the unknot's empty word."""
    if braid.strands < 2:
        return 0
    return len(walk_generator(braid, prune_simple=True))


def cut_candidates(braid: BraidWord) -> list[BraidWord]:
    """The braid and its flip, each cut once per gap between sigma_1^+-1
    letters, duplicates dropped, the input word first. The input word
    stands for its own gap, the one before the first sigma_1 letter."""
    words = []
    for word in (braid, braid.flip()):
        starts = [r for r, (i, _) in enumerate(word.crossings) if i == 1]
        words += [word.rotated(r) for r in [0] + starts[1:]]
    return list(dict.fromkeys(words))


def choose_orientation(braid: BraidWord, color: int = 2) -> tuple[BraidWord, bool, dict[BraidWord, int]]:
    """Return (the word to run, whether it is a mirror of the input, the
    simple-walk count of every candidate word).

    The candidates are the braid and its mirror, and from ``color`` >=
    SEARCH_FROM_COLOR every cut_candidates word and its mirror. The one
    with the fewest simple walks wins; ties keep the earlier candidate, so
    the input word first. ``color`` is checked as in colored_jones.
    """
    words = cut_candidates(braid) if _checked_color(color) >= SEARCH_FROM_COLOR else [braid]
    candidates = [(w.mirror() if mirrored else w, mirrored) for w in words for mirrored in (False, True)]
    counts = {word: simple_walk_count(word) for word in dict.fromkeys(word for word, _ in candidates)}
    chosen, mirrored = min(candidates, key=lambda candidate: counts[candidate[0]])
    return chosen, mirrored, counts


def colored_jones(
    braid: BraidWord,
    color: int,
    *,
    mirror_opt: bool = True,
    drl: bool = True,
) -> CjpResult:
    """Exact colored Jones polynomial J_{color} of the braid closure.

    ``mirror_opt`` runs the word chosen by choose_orientation; without it
    the input word runs as given. ``drl`` enables duplicate-reduction
    pruning (simple walks only, and stack pruning at the given color);
    disabling it runs the same loop on the full walk sum, which must
    produce the identical polynomial.
    The stack height is capped at 2 * color * crossings as a guard against
    nontermination; exceeding it raises RuntimeError. A color that is not
    an integer raises TypeError.
    """
    color = _checked_color(color)
    if braid.k == 0 and braid.strands == 1:
        return CjpResult(LaurentPolynomial.one(), False, 0, 0, 0, braid, {})
    if not braid.is_knot_closure():
        raise NotAKnotError(f"closure of {braid} is not a knot")

    chosen, mirror_used, walk_counts = choose_orientation(braid, color) if mirror_opt else (braid, False, {})
    m = chosen.strands
    writhe = chosen.writhe()
    if (writhe - m + 1) % 2:
        raise RuntimeError(
            f"knot closure must have writhe - strands + 1 even, got writhe {writhe} on {m} strands"
        )
    framing_exponent = (color - 1) * (writhe - m + 1) // 2

    signs = chosen.signs()
    # The level-one sum is the first stack as built: every simple walk passes
    # DRL at color >= 2, and at color 1 every level-one key has an a letter
    # (a knot's closure permutation is one cycle), so it evaluates to zero.
    level_one = stack = walk_generator(chosen, prune_simple=drl)
    cap = 2 * color * chosen.k

    total = LaurentPolynomial.one()
    heights = 0
    while stack:
        value = evaluate_walk_sum(stack, signs, color)
        if value.is_zero():
            break
        total = total + value
        heights += 1
        if heights > cap:
            raise RuntimeError(
                f"stack exceeded height cap {cap}; this indicates a bug in the walk pipeline"
            )
        stack = multiply_walk_sums(level_one, stack, signs, color if drl else 0)

    polynomial = total.shift(framing_exponent)
    if mirror_used:
        polynomial = polynomial.invert_var()
    return CjpResult(polynomial, mirror_used, framing_exponent, heights, len(level_one), chosen, walk_counts)
