"""Colored Jones polynomial of a braid closure.

The polynomial is the framing factor q^((n-1)(writhe - m + 1)/2) times the
sum over stack heights of the color evaluation of the walk sum raised to
that height. The stack is rebuilt each height by left-multiplying with the
level-one walk sum; the loop ends when the stack is empty or its evaluation
is the zero polynomial. Orientation selection computes the simple-walk
counts of the braid and its mirror and keeps whichever is smaller,
compensating at the end with q -> 1/q.
"""
from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, NotAKnotError
from .burau import walk_generator
from .laurent import LaurentPolynomial
from .weyl import WalkSum, evaluate_walk_sum, multiply_walk_sums


@dataclass
class CjpResult:
    """Result record: the polynomial plus how the computation ran.

    framing_exponent and simple_walk_count describe the braid the loop
    actually used (the mirror, when mirror_used); with pruning disabled
    simple_walk_count is the unrestricted level-one entry count.
    heights_summed counts the stack heights whose evaluation was added.
    """

    polynomial: LaurentPolynomial
    mirror_used: bool
    framing_exponent: int
    heights_summed: int
    simple_walk_count: int


def simple_walk_count(braid: BraidWord) -> int:
    """Number of simple walks in the level-one walk sum."""
    return len(walk_generator(braid, prune_simple=True))


def choose_orientation(braid: BraidWord) -> tuple[BraidWord, bool]:
    """Return (braid or its mirror, whether the mirror was chosen).

    The mirror wins only when it has strictly fewer simple walks; ties keep
    the original word.
    """
    mirrored = braid.mirror()
    if simple_walk_count(mirrored) < simple_walk_count(braid):
        return mirrored, True
    return braid, False


def colored_jones(
    braid: BraidWord,
    color: int,
    *,
    mirror_opt: bool = True,
    drl: bool = True,
    max_height: int | None = None,
) -> CjpResult:
    """Exact colored Jones polynomial J_{color} of the braid closure.

    ``drl`` enables duplicate-reduction pruning (simple walks only, and
    stack pruning at the given color); disabling it runs the same loop on
    the full walk sum, which must produce the identical polynomial.
    ``max_height`` caps the stack height as a guard against nontermination
    and defaults to 2 * color * crossings; exceeding it raises RuntimeError.
    """
    if color < 1:
        raise ValueError(f"color must be >= 1, got {color}")
    if braid.k == 0 and braid.strands == 1:
        return CjpResult(LaurentPolynomial.one(), False, 0, 0, 0)
    if not braid.is_knot_closure():
        raise NotAKnotError(f"closure of {braid} is not a knot")

    chosen, mirror_used = choose_orientation(braid) if mirror_opt else (braid, False)
    m = chosen.strands
    writhe = chosen.writhe()
    if (writhe - m + 1) % 2:
        raise RuntimeError(
            f"knot closure must have writhe - strands + 1 even, got writhe {writhe} on {m} strands"
        )
    framing_exponent = (color - 1) * (writhe - m + 1) // 2

    signs = chosen.signs()
    level_one = walk_generator(chosen, prune_simple=drl)
    stack = level_one.filtered(color) if drl else level_one
    cap = max_height if max_height is not None else 2 * color * chosen.k

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
    return CjpResult(polynomial, mirror_used, framing_exponent, heights, len(level_one))
