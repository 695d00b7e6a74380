"""Colored Jones polynomial of a braid closure.

The word is reduced first (BraidWord.reduced): cyclically adjacent
sigma_i sigma_i^-1 pairs cancel, and while the largest index appears
once, its crossing and a strand are dropped (Markov destabilization).
Walk counts follow the strands and crossings, so a conjugated, stabilized
braid costs what its source does; a word that reduces to one strand is
the unknot, with J = 1. Everything below runs on the reduced word.

The polynomial is the framing factor q^((n-1)(writhe - m + 1)/2) times the
sum over stack heights of the color evaluation of the walk sum raised to
that height. The stack is rebuilt each height by left-multiplying with the
level-one walk sum; the loop ends when the stack is empty or its evaluation
is the zero polynomial. The first stack is the level-one sum itself,
which walk_generator returns already packed from its simple walks, one
(letter mask, exponent, sign) item per walk (WalkSum.from_masks), and
from the second height on the stack is the packed walk sum
multiply_walk_sums returns (see weyl): evaluate_walk_sum and the next
multiply read it as it is, so it is never decoded into tuple keys and
LaurentPolynomials. Evaluation sums the monomials per multiset of
(1 - q^e) factors and applies each multiset once.

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
and framing do not depend on the choice. The search scores each candidate
with simple_walk_count, which follows the occupied strands crossing by
crossing and builds no walk sum (see burau), about 0.05 ms a count where a
generator run takes 0.7-1 ms; below it the braid and its mirror are still
scored by one generator run each. On the 84 bundled knots (CPU time, best
of 3 passes, three rounds, 2 vCPUs, Python 3.11) the whole table took,
without and with the search, 1.04-1.42 -> 0.43-0.54 s at N = 4 and
5.9-9.3 -> 1.47-1.92 s at N = 5. Per job at N = 4 the search took 9_5
from 130-158 to 15-21 ms and 9_2 from 29-49 to 15-22 ms.
"""
from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, NotAKnotError
from .burau import simple_walk_count, walk_generator
from .laurent import LaurentPolynomial
from .weyl import checked_int, evaluate_walk_sum, multiply_walk_sums

SEARCH_FROM_COLOR = 4


@dataclass
class CjpResult:
    """Result record: the polynomial plus how the computation ran.

    braid_used is the word the loop ran on: the input reduced
    (BraidWord.reduced), then after any cut, flip and mirror;
    framing_exponent and simple_walk_count describe it (mirror_used says
    whether it is a mirror of the reduced input). With pruning disabled
    simple_walk_count is the unrestricted level-one entry count.
    heights_summed counts the stack heights whose evaluation was added.
    walk_counts maps each word choose_orientation measured (the reduced
    input and its mirror among them) to its simple-walk count; empty
    without mirror_opt, and for a word that reduces to one strand.
    """

    polynomial: LaurentPolynomial
    mirror_used: bool
    framing_exponent: int
    heights_summed: int
    simple_walk_count: int
    braid_used: BraidWord
    walk_counts: dict[BraidWord, int]


# Below SEARCH_FROM_COLOR, bench/test_bench.py pins three walk_generator
# runs per job (ROADMAP item 1).
def _generator_walk_count(braid: BraidWord) -> int:
    """simple_walk_count by one level-one generator run."""
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
    the input word first. The search scores with simple_walk_count, which
    builds nothing; the braid and its mirror alone are scored by generator
    runs. ``color`` is checked as in colored_jones.
    """
    search = checked_int(color) >= SEARCH_FROM_COLOR
    words = cut_candidates(braid) if search else [braid]
    count = simple_walk_count if search else _generator_walk_count
    candidates = [(w.mirror() if mirrored else w, mirrored) for w in words for mirrored in (False, True)]
    counts = {word: count(word) for word in dict.fromkeys(word for word, _ in candidates)}
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

    The braid is reduced first (BraidWord.reduced); one that reduces to
    one strand gives 1. ``mirror_opt`` runs the word chosen by
    choose_orientation from the reduced word; without it the reduced word
    runs as given. ``drl`` enables duplicate-reduction
    pruning (simple walks only, and stack pruning at the given color);
    disabling it runs the same loop on the full walk sum, which must
    produce the identical polynomial.
    The stack height is capped at 2 * color * crossings as a guard against
    nontermination; exceeding it raises RuntimeError. A color that is not
    an integer raises TypeError.
    """
    color = checked_int(color)
    if not braid.is_knot_closure():
        raise NotAKnotError(f"closure of {braid} is not a knot")
    braid = braid.reduced()
    if braid.strands == 1:
        return CjpResult(LaurentPolynomial.one(), False, 0, 0, 0, braid, {})

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
