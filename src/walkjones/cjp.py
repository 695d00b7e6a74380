"""Colored Jones polynomial of a braid closure.

The word is reduced first (BraidWord.reduced): cyclically adjacent
sigma_i sigma_i^-1 pairs cancel, and while the largest index or the
index 1 appears once, its crossing and a strand are dropped (Markov
destabilization).
Walk counts follow the strands and crossings, so a conjugated, stabilized
braid costs what its source does; a word that reduces to one strand is
the unknot, with J = 1.

A reduced word that splits (BraidWord.split) closes to a connected sum,
and the normalized J_N is multiplicative under it: J_N(K1 # K2) =
J_N(K1) J_N(K2). The factors are reduced and split again until none
splits, each distinct factor runs once, and the polynomial is their
product. A word's cost follows the product of its factors' sizes, so
this pays: the bundled 9_35 entry, three trefoils, went from 31 to 1.2 ms
at N = 5, and 9_37, a 3-strand knot and a trefoil, from 8-12 to 2.2 ms at
N = 4 (CPU time, best of 7, 2 vCPUs of a shared VM, Python 3.11).
Everything below runs on one unsplit reduced word.

The polynomial is the framing factor q^((n-1)(writhe - m + 1)/2) times the
sum over stack heights of the color evaluation of the walk sum raised to
that height. The first stack is the level-one sum L, which walk_generator
returns already packed from its simple walks, one (letter mask, exponent,
sign) item per walk (WalkSum.from_masks), and each later stack is L times
the one before, pruned by DRL at the color (multiply_walk_sums), so no
stack is ever decoded. Evaluation is additive, so under DRL the stacks are
summed until one is empty and the sum is evaluated once. A stack that
evaluates to zero adds nothing: under DRL none occurs on the table's words
at N = 2..4, and on random knot words they only trail (tests/test_cjp.py).

A key can sit at several heights when L's keys have more than one letter
count: on the words the table's knots run, the stacks hold 1 656 keys of
which 1 396 are distinct at N = 2, 19 852 and 13 899 at N = 3, 50 763 and
31 237 at N = 4, and 208 943 and 110 958 at N = 5. Such a word runs
walk_series, which builds the sum L + L^2 + ... extending each distinct
key once, by increasing letter count (see weyl). When every walk of L
has the same letter count, as on every 2-strand word, a key's height is
its letter count over that count, the stacks share no key, and the loop
builds them one height at a time and joins them (add_walk_sums): there
the series' depth and level bookkeeping only costs, 1.3% over the
table's 2-strand words at N = 4..6 and 6% on 9_1 at N = 6. Without DRL
the stacks never run out, so each height is evaluated and the loop stops
at the first that evaluates to zero. At color 1 the level-one sum
evaluates to zero, so J_1 = 1 with no height summed.

At a large color DRL prunes nothing, and the kept stacks grow with every
height, so under DRL the height loop checks the work each multiply adds
before it runs: the pairs it forms plus the keys of the stacks kept,
against HEIGHT_WORK_MAX = 2^21. The largest DRL loop the tests and the
bench run, T(2,9) at N = 8, reaches 728 705 (stacks up to 31 998 keys,
671 958 pairs at its last height, 56 747 keys kept). Past the budget it
raises OverflowError, which walkjones compute reports in one line: 9_1 at
N = 10^4 stops before its tenth height after about 2 s of CPU and 153
MB, where it ran 15 s and died of MemoryError, and T(2,15) at N = 8 stops
before its third. The loop without DRL, the engine's cross-check, keeps
one stack at a time and has no budget: on the table at N = 3 it forms up
to 63.7 million pairs a height (9_5, 134 s).

Orientation selection runs the word with the fewest simple walks among
words whose closures are the same knot, compensating a mirror at the end
with q -> 1/q. Below color SEARCH_FROM_COLOR the candidates are the braid
and its mirror. From that color on they are also the cyclic rotations
(conjugates) of the braid and of its flip sigma_i -> sigma_(m-i), each
with its mirror: walk counts follow the presentation, not the knot
(Armond, arXiv:1101.3810). One cut per gap between sigma_1 letters is
tried, since a rotation past sigma_i with i >= 2 keeps the count. When
the winner still has DESCENT_FROM_WALKS walks or more, a best-first
descent (_descend) tries the words one move away (rewrites), fewest
walks first, for at most DESCENT_COUNTS counts; the mirror, which the
cut search already compared, is not tried again. A word one far
commutation, or one rotation of a sigma_i with i >= 2 to the back, from
the word it came from has that word's count, so the descent does not
run the counter on it: 9 to 18 of the 30 words on nine of the ten table
knots that descend at N = 4, and 29 on 9_35. Every candidate has the input's strands
and writhe, up to the mirror's sign, so the polynomial and framing do
not depend on the choice. The search scores every word with one
WalkCounter (see burau), which builds no walk sum: 0.006-0.011 ms a
count, where a generator run takes 0.7-1 ms; below it
the braid and its mirror are still scored by one generator run each. At
N = 4 the descent took 9_2 from 21 to 14 walks and 13.1 to 7.4 ms, and
9_5 from 23 to 19 walks and 14.6 to 10.5 ms (CPU time, best of 5,
medians of 8 alternating rounds, 2 vCPUs of a shared VM, Python 3.11);
README.md has the whole-table figures and ROADMAP.md item 3 the
calibration of the two constants.

Why those moves keep the count. The count is a trace: with T the
product of the crossings' occupancy transfers, which map the sets of
strands holding a lone path (see burau), it is the trace of P T, P the
projection onto the sets without strand 1. A far commutation swaps the
transfers of two crossings on disjoint strand pairs, which commute, so
T is unchanged. A rotation moves the first crossing's transfer A from
the front of T = A B to the back; when A is a sigma_i with i >= 2 it
leaves strand 1 alone, so it commutes with P, and tr(P B A) = tr(A P B)
= tr(P A B) by the cyclic trace.

The loop prepares once per call what depends only on the level-one sum and
the color (see weyl): the level-one sum keeps its reordering operator,
with the lefts each saturation signature admits. Against the height loop
with like keys merged, the series builds the summed stacks of 9_2 at
N = 4 in 1.28 ms instead of 2.25, of 9_5 at N = 4 in 2.87 instead of 3.85,
and of T(3,7) at N = 5 in 143 instead of 221 (CPU time, best of 9, 2
vCPUs of a shared VM, Python 3.11). README.md has the whole-table times.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from .braid import BraidWord, NotAKnotError
from .burau import WalkCounter, simple_walk_count, walk_generator
from .laurent import LaurentPolynomial
from .weyl import add_walk_sums, checked_int, evaluate_walk_sum, letter_counts, multiply_walk_sums, walk_series

SEARCH_FROM_COLOR = 4
# From SEARCH_FROM_COLOR, a cut winner with at least DESCENT_FROM_WALKS
# simple walks starts a descent of at most DESCENT_COUNTS counts.
DESCENT_FROM_WALKS = 19
DESCENT_COUNTS = 30
# The most work one height of the DRL height loop may add: the pairs its
# multiply forms plus the keys of the stacks kept (see _height_loop).
HEIGHT_WORK_MAX = 1 << 21


@dataclass
class CjpResult:
    """Result record: the polynomial plus how the computation ran.

    braid_used is the word the loop ran on: the input reduced
    (BraidWord.reduced), then after any cut, flip and mirror;
    framing_exponent and simple_walk_count describe it (mirror_used says
    whether it is a mirror of the reduced input). With pruning disabled
    simple_walk_count is the unrestricted level-one entry count.
    heights_summed counts the stacks summed: under DRL the nonempty ones,
    which is the length of the longest chain of level-one walks whose
    product survives in the sum; without DRL those before the first that
    evaluates to zero; 0 at color 1.
    walk_counts maps each word choose_orientation counted to its
    simple-walk count: the candidates (the reduced input and its mirror
    among them) in order, then the words of any descent, so braid_used is
    a key. It is empty without mirror_opt, and for a word that reduces to
    one strand.

    factors holds the results of the summands of a reduced word that
    splits (BraidWord.split), one per summand, in order, and is empty for
    a word that does not. Equal summands share one run and one result.
    For a split word the polynomial is the product of theirs; braid_used
    is the reduced input, with mirror_used False and framing_exponent its
    own; heights_summed and simple_walk_count are the sums over the
    factors, one term per summand; and walk_counts is empty, each factor
    holding its own.
    """

    polynomial: LaurentPolynomial
    mirror_used: bool
    framing_exponent: int
    heights_summed: int
    simple_walk_count: int
    braid_used: BraidWord
    walk_counts: dict[BraidWord, int]
    factors: list["CjpResult"] = field(default_factory=list)


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


def rewrites(word: BraidWord) -> list[BraidWord]:
    """The words one move from ``word``, each closing to the same knot with
    the same strands, length and writhe: the rotation by one letter, and
    at each place a far commutation sigma_i sigma_j = sigma_j sigma_i
    (|i - j| >= 2), the braid relation sigma_i^e sigma_j^e sigma_i^e =
    sigma_j^e sigma_i^e sigma_j^e, or its mixed form sigma_i^e sigma_j^f
    sigma_i^-e = sigma_j^-e sigma_i^f sigma_j^e (|i - j| = 1)."""
    return list(_moves(word))


def _moves(word: BraidWord) -> dict[BraidWord, bool]:
    """The rewrites of ``word``, in order, each mapped to whether some move
    to it keeps the simple-walk count: a far commutation, or the rotation
    when it moves a sigma_i with i >= 2 to the back (see the module
    docstring)."""
    c = word.crossings
    out = {c[1:] + c[:1]: bool(c) and c[0][0] >= 2}
    for p in range(len(c) - 1):
        (i, e), (j, f) = c[p], c[p + 1]
        if abs(i - j) > 1:
            out[c[:p] + (c[p + 1], c[p]) + c[p + 2:]] = True
        elif abs(i - j) == 1 and p + 2 < len(c) and c[p + 2][0] == i:
            g = c[p + 2][1]
            if e == f == g or g == -e:
                x = c[:p] + ((j, g), (i, f), (j, e)) + c[p + 3:]
                out[x] = out.get(x, False)
    return {BraidWord(x, word.strands): same for x, same in out.items() if x != c}


def _descend(start: BraidWord, counts: dict[BraidWord, int], count) -> BraidWord:
    """The word with the fewest simple walks that a best-first descent
    from ``start`` over rewrites finds, the earlier one on a tie. The
    frontier is ordered by (walk count, sigma_1 letters); ``counts`` holds
    the words counted so far, and gains each word the descent counts, at
    most DESCENT_COUNTS of them.

    A word one move from its parent gets the parent's count without a run
    of ``count`` when the move keeps it (_moves; the module docstring has
    the proof). It still takes its place in the budget and the order, so
    the counts and the word chosen are those of counting every word."""
    # the third field, the words seen so far, breaks ties in the order found
    frontier = [(counts[start], 0, 0, start)]
    seen = {start}
    best, spent = start, 0
    while frontier and spent < DESCENT_COUNTS:
        parent = heappop(frontier)[3]
        for word, same in _moves(parent).items():
            if word in seen:
                continue
            if word not in counts:
                if spent == DESCENT_COUNTS:
                    break
                counts[word] = counts[parent] if same else count(word)
                spent += 1
                if counts[word] < counts[best]:
                    best = word
            seen.add(word)
            heappush(frontier, (counts[word], sum(i == 1 for i, _ in word.crossings), len(seen), word))
    return best


def choose_orientation(braid: BraidWord, color: int = 2) -> tuple[BraidWord, bool, dict[BraidWord, int]]:
    """Return (the word to run, whether it is a mirror of the input, the
    simple-walk count of every word counted).

    The candidates are the braid and its mirror, and from ``color`` >=
    SEARCH_FROM_COLOR every cut_candidates word and its mirror. The one
    with the fewest simple walks wins; ties keep the earlier candidate, so
    the input word first. From SEARCH_FROM_COLOR, a winner with at least
    DESCENT_FROM_WALKS walks starts a descent over rewrites (_descend),
    which keeps it unless a word with fewer walks turns up. The search
    scores with one WalkCounter, which builds nothing; the braid and its
    mirror alone are scored by generator runs. The counts hold the
    candidates first, in order, then the descent's words. ``color`` is
    checked as in colored_jones.
    """
    search = checked_int(color) >= SEARCH_FROM_COLOR
    words = cut_candidates(braid) if search else [braid]
    if not braid.is_knot_closure():
        raise NotAKnotError(f"closure of {braid} is not a knot")
    count = WalkCounter(braid.strands, braid.k) if search else _generator_walk_count
    candidates = [(w.mirror() if mirrored else w, mirrored) for w in words for mirrored in (False, True)]
    counts = {word: count(word) for word in dict.fromkeys(word for word, _ in candidates)}
    chosen, mirrored = min(candidates, key=lambda candidate: counts[candidate[0]])
    if search and counts[chosen] >= DESCENT_FROM_WALKS:
        chosen = _descend(chosen, counts, count)
    return chosen, mirrored, counts


def _unsplit_words(braid: BraidWord) -> list[BraidWord]:
    """The reduced words of the summands of a reduced word, split until
    none splits, in order."""
    parts = braid.split()
    if parts is None:
        return [braid]
    return [word for part in parts for word in _unsplit_words(part.reduced())]


def _framing_exponent(braid: BraidWord, color: int) -> int:
    # a knot's closure on m strands is an m-cycle, one transposition per
    # crossing, so writhe = crossings = m - 1 (mod 2): the halving is exact
    return (color - 1) * (braid.writhe() - braid.strands + 1) // 2


def _cjp(braid: BraidWord, color: int, mirror_opt: bool, drl: bool) -> CjpResult:
    """colored_jones of a reduced word, run as one word: orientation, then
    the height loop, without splitting."""
    if braid.strands == 1:
        return CjpResult(LaurentPolynomial.one(), False, 0, 0, 0, braid, {})

    chosen, mirror_used, walk_counts = choose_orientation(braid, color) if mirror_opt else (braid, False, {})
    framing_exponent = _framing_exponent(chosen, color)

    level_one = walk_generator(chosen, prune_simple=drl)
    if color == 1:
        # every level-one key has an a letter (a knot's closure permutation
        # is one cycle), so at color 1 the sum evaluates to zero
        return CjpResult(LaurentPolynomial.one(), mirror_used, framing_exponent, 0, len(level_one), chosen, walk_counts)
    signs = chosen.signs()
    if drl and len(set(letter_counts(level_one))) > 1:
        series, heights = walk_series(level_one, signs, color)
        total = LaurentPolynomial.one() + evaluate_walk_sum(series, signs, color)
    else:
        total, heights = _height_loop(level_one, signs, color, drl)

    polynomial = total.shift(framing_exponent)
    if mirror_used:
        polynomial = polynomial.invert_var()
    return CjpResult(polynomial, mirror_used, framing_exponent, heights, len(level_one), chosen, walk_counts)


def _height_loop(level_one, signs: tuple[int, ...], color: int, drl: bool) -> tuple[LaurentPolynomial, int]:
    """1 plus the color evaluation of the stacks L, L^2, ... of the level-one
    sum L, built one height at a time, and the number of stacks summed. Under
    DRL every stack is kept and the sum of them is evaluated once; without
    it each is evaluated on its own, up to the first that evaluates to zero.
    RuntimeError past 2 * color * k heights. Under DRL, before each
    multiply, the pairs it forms (the stack's keys times L's) plus the keys
    of every stack kept so far are checked against HEIGHT_WORK_MAX:
    OverflowError past it (see the module docstring)."""
    cap = 2 * color * len(signs)
    # every simple walk passes DRL at color >= 2: the level-one sum is the
    # first stack as built
    total = LaurentPolynomial.one()
    stacks = []
    heights = 0
    held = 0
    stack = level_one
    while stack:
        if drl:
            stacks.append(stack)
            held += len(stack)
        else:
            value = evaluate_walk_sum(stack, signs, color)
            if value.is_zero():
                break
            total = total + value
        heights += 1
        if heights > cap:
            raise RuntimeError(
                f"stack exceeded height cap {cap}; this indicates a bug in the walk pipeline"
            )
        pairs = len(stack) * len(level_one)
        if drl and pairs + held > HEIGHT_WORK_MAX:
            raise OverflowError(
                f"height {heights + 1} would form {pairs} pairs with {held} keys held, "
                f"past the height loop's budget of {HEIGHT_WORK_MAX}"
            )
        stack = multiply_walk_sums(level_one, stack, signs, color if drl else 0)
    if stacks:
        total = total + evaluate_walk_sum(add_walk_sums(stacks), signs, color)
    return total, heights


def colored_jones(
    braid: BraidWord,
    color: int,
    *,
    mirror_opt: bool = True,
    drl: bool = True,
) -> CjpResult:
    """Exact colored Jones polynomial J_{color} of the braid closure.

    The braid is reduced first (BraidWord.reduced); one that reduces to
    one strand gives 1. A reduced word that splits (BraidWord.split) closes
    to a connected sum, and J_N is multiplicative under it: each factor is
    reduced and split again, each distinct unsplit factor runs once, and
    the polynomial is the product of the factors'. ``mirror_opt`` runs the
    word chosen by choose_orientation from each reduced word; without it
    the reduced word runs as given. ``drl`` enables duplicate-reduction
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
    words = _unsplit_words(braid)
    if words == [braid]:
        return _cjp(braid, color, mirror_opt, drl)
    runs = {word: _cjp(word, color, mirror_opt, drl) for word in dict.fromkeys(words)}
    factors = [runs[word] for word in words]
    polynomial = LaurentPolynomial.one()
    for factor in factors:
        polynomial = polynomial * factor.polynomial
    return CjpResult(
        polynomial, False, _framing_exponent(braid, color), sum(f.heights_summed for f in factors),
        sum(f.simple_walk_count for f in factors), braid, {}, factors,
    )
