"""Deformed Burau matrices and the level-one walk generator.

The matrix attached to a crossing is the identity except for a 2x2 block:
[[a, b], [c, 0]] at a positive crossing and [[0, c], [b, a]] at a negative
one, with letters subscripted by the crossing ordinal. The braid matrix is
the ordered product over the word; dropping its first row and column gives
the reduced matrix R. The level-one walk sum is the quantum MacMahon form
sum over nonempty J of (-1)^(|J|-1) q^|J| det_q(R_J) = 1 - sum over all J
of det_q((-qR)_J). One recursion expands every principal minor at once:
at each column it leaves the column and its row out, or takes a free row,
so each partial product is computed once for all minors that share it.

The generic recursion runs on plain maps from keys to coefficient dicts
and takes two steps as parameters: the product of a partial product by
one entry, and the leaf step that adds a finished minor. quantum_det and
the unpruned generator, whose letter counts grow past 1, multiply through
the generic kernel and serve as the verification path.

Under prune_simple (DRL, duplicate-reduction pruning, at level 2) each
letter of a walk is used at most once (Armond, arXiv:1101.3810), and a
walk is fixed by its set of letters: walk_generator keys partial products
by letter bitmasks (_SimpleRule), and a letter mask fixes its whole path
system. A term of det_q(R_J) is a system of paths through the braid, one
from each strand u in J to strand pi(u), and its mask is the union of
their letters. A crossing on strands i, i+1 reads [[a, b], [c, 0]] when
positive: a path on i leaves it by a (stays) or b (moves to i+1), a path
on i+1 only by c (moves to i); a negative crossing, [[0, c], [b, a]], is
the mirror of this. Then:
- Two paths never share a strand. They start on distinct strands and end
  on distinct ones, and two paths on one strand would need two letters
  leaving it at the next crossing that touches it: the same letter twice,
  or a beside b, which DRL prunes.
- DRL keeps per crossing one of {}, {a}, {b}, {c}, {b, c}, so at most one
  letter leaves each strand of a crossing, and every strand a path is on
  has one. The letters of crossing j say which of its two strands carry a
  path just before it and where each goes.
- So replaying the mask through the word gives back every path, hence J,
  the permutation pi and its inversion count. In a knot every strand
  meets a crossing, so whether a strand starts in J is read off the first
  crossing it meets.
Hence no two partial products of one _simple_products call share a mask,
nor do any two leaves of the recursion, and every level-one coefficient
is +-q^e: one simple walk is one (mask, exponent, sign) item, with no
coefficient arithmetic and nothing to merge. Three invariants of the walk
model keep the product short: a braid matrix entry is a set of paths with
coefficient 1, so it is read as bare letter masks; the DRL test of a pair
is one AND, and after it two keys share a crossing only as the left key's
c and the right key's b; and the reordering form has F[b][c] = 0. A pair's
q-power is then two popcounts, one per crossing sign. The sum is returned
born packed (weyl.WalkSum.from_masks), and its length is the walk count
that simple_walk_count gives without building it.

The path argument above also counts the simple walks with no braid
matrix at all (simple_walk_count). Between crossings the paths occupy a
set S of strands, and the letters of a crossing are read off which of its
two strands S holds before and after it. If both are held, the paths swap
(b, c). At a positive crossing a lone path on the lower strand stays (a)
or moves (b), and one on the upper strand moves (c); at a negative
crossing a lone path on the lower strand moves (c), and one on the upper
strand moves (b) or stays (a). Conversely every such sequence of sets that
starts and ends at J is a path system from J to J that DRL keeps. So the
walk count is the sum over nonempty J in strands 2..m of the ways the
occupied set, starting as J, is J again after the last crossing. The
state is the pair (J, S); S keeps |J| strands, so there are at most
sum_j C(m-1, j) C(m, j) = C(2m-1, m-1) states at each crossing.

The braid matrix stays in the kernel's own data: each entry is a {key:
coefficient dict} map, and the minor recursions read those maps as they
are. At each crossing a new entry is one kernel product by one letter, or
the sum of two, and that sum is a dict union, since its summands differ in
the new crossing's slot. Every such product has q-power 0, because each
new letter's crossing comes after every letter already in the entry, so
each entry is a set of paths with coefficient 1 and at most one letter per
crossing, and the kernel call only sets one letter slot. Setting it
directly is exact; that build waits on the benchmark change that stops
keeping every computed polynomial (ROADMAP item 1). Tuple-key maps belong
to this kernel layer and packed walk sums to the stack loop: only the
generic results cross over, through WalkSum(map), and the simple-walk
generator packs its items itself (WalkSum.from_masks).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from . import kernels
from .braid import BraidWord, NotAKnotError
from .laurent import LaurentPolynomial
from .weyl import WalkSum, letter_key, reordering_form, zero_key


@dataclass
class BurauMatrix:
    """A square matrix whose entries are kernel maps {key: coefficient dict}."""

    dimension: int
    entries: list[list[dict]]


def braid_matrix(braid: BraidWord) -> BurauMatrix:
    """Ordered product of the crossing matrices (first crossing leftmost).

    A crossing matrix is the identity outside its 2x2 block, so multiplying
    by it on the right rewrites only columns index - 1 and index, and a new
    entry is one or two entries times one letter. Entries are {key:
    coefficient dict} maps; the two products of a sum differ in the new
    crossing's slot, so their sum is a dict union.
    """
    k, m = braid.k, braid.strands
    signs = braid.signs()

    def times(entry: dict, letter: list) -> dict:
        return kernels.walk_products(list(entry.items()), letter, signs, 0) if entry else {}

    rows = [[{zero_key(k): {0: 1}} if u == v else {} for v in range(m)] for u in range(m)]
    for ordinal, (index, sign) in enumerate(braid.crossings, start=1):
        i = index - 1
        a, b, c = ([(letter_key(k, ordinal, x), {0: 1})] for x in "abc")
        for row in rows:
            left, right = row[i], row[i + 1]
            if sign > 0:
                row[i], row[i + 1] = times(left, a) | times(right, c), times(left, b)
            else:
                row[i], row[i + 1] = times(right, b), times(left, c) | times(right, a)
    return BurauMatrix(m, rows)


def reduced_matrix(matrix: BurauMatrix) -> BurauMatrix:
    """Drop the first row and first column."""
    if matrix.dimension < 2:
        raise ValueError("cannot reduce a matrix of dimension < 2")
    return BurauMatrix(
        matrix.dimension - 1,
        [row[1:] for row in matrix.entries[1:]],
    )


def _items(entry: dict, shift: int = 0, sign: int = 1) -> list:
    """A matrix entry as (key, coefficient dict) pairs, each coefficient
    times sign * q^shift."""
    return [(key, {e + shift: sign * c for e, c in terms.items()}) for key, terms in entry.items()]


# (sign, F[c][b]) for each crossing sign's reordering form F (see _SimpleRule)
_C_B = tuple((sign, reordering_form(sign)[1][0]) for sign in (1, -1))


class _SimpleRule:
    """Simple-walk products on letter bitmasks, for one sign vector.

    Under DRL at level 2 every key has, per crossing, counts (s, r, d) in
    {000, 100, 010, 110, 001}, so it is a set of letters: bit 3j + slot
    holds the letter of crossing j, with slot b = 0, c = 1, a = 2 as in the
    tuple keys. The product of two simple keys k1, k2 is k1 | k2, and it is
    simple unless k1 & k2 != 0 or (K >> 2) & (K | K >> 1) & M != 0, where
    K = k1 | k2 and M holds bit 0 of every crossing. Both tests are one:
    k1 & conflicts(k2), where conflicts(k2) holds k2's letters, every slot
    of a crossing where k2 has its a, and the a slot where k2 has b or c.

    Three invariants of the walk model keep the rest short:
    - a braid matrix entry is a set of paths, each with coefficient 1 and
      at most one letter per crossing, so an entry is its letter masks;
    - after the conflict test, two keys share a crossing only as the left
      key's c and the right key's b;
    - the reordering form F of either sign (weyl.reordering_form) has
      F[b][c] = 0.
    So of the form's nine terms only F[c][b] fires, and a pair's q-power
    is F+[c][b] * |(k1 >> 1) & k2 & B+| + F-[c][b] * |(k1 >> 1) & k2 & B-|,
    B+ and B- the b slots of the crossings of each sign: per left key two
    ANDs, then per pair two ANDs and two popcounts.
    """

    __slots__ = ("crossings", "bits", "signed")

    def __init__(self, signs: tuple[int, ...]):
        self.crossings = sum(1 << 3 * j for j in range(len(signs)))
        self.bits = [1 << b for b in range(3 * len(signs))]
        # (F[c][b], B) for each crossing sign
        self.signed = [
            (weight, sum(1 << 3 * j for j, t in enumerate(signs) if (t > 0) == (s > 0))) for s, weight in _C_B
        ]

    def entry(self, entry: dict) -> list:
        """A braid matrix entry as (mask, conflicts) pairs."""
        crossings, bits = self.crossings, self.bits
        out = []
        for key in entry:
            mask = sum(compress(bits, key))
            a = (mask >> 2) & crossings
            out.append((mask, mask | a * 7 | ((mask | mask >> 1) & crossings) << 2))
        return out


def _simple_products(partial: list, entry: list, rule: _SimpleRule) -> list:
    """partial * entry on simple walks: partial is a list of (letter mask,
    exponent) and entry a list from _SimpleRule.entry. The products need no
    merging: no two share a mask (see the module docstring)."""
    (w_plus, b_plus), (w_minus, b_minus) = rule.signed
    out = []
    for k1, e1 in partial:
        c_plus, c_minus = (k1 >> 1) & b_plus, (k1 >> 1) & b_minus
        for k2, conflicts in entry:
            if not k1 & conflicts:
                out.append((k1 | k2, e1 + w_plus * (c_plus & k2).bit_count() + w_minus * (c_minus & k2).bit_count()))
    return out


def _simple_leaf(walks: list, partial: list, used: int, inv: int) -> None:
    """Append the simple walks of one minor of -sum over J of det_q((-qR)_J)
    to ``walks`` as (mask, exponent, sign) items: the minor J = ``used``
    with inv inversions scales each partial product by
    -(-1)^(|J|+inv) q^(|J|+inv)."""
    shift = used.bit_count() + inv
    sign = 1 if shift % 2 else -1
    walks += [(mask, e + shift, sign) for mask, e in partial]


def _kernel_products(partial: dict, entry: list, rule: tuple) -> dict:
    """partial * entry through the generic kernel; rule is (signs, DRL limit)."""
    signs, limit = rule
    return kernels.walk_products(list(partial.items()), entry, signs, limit)


def _add_minor(total: dict, partial: dict, used: int, inv: int) -> None:
    """Add one minor's partial products into ``total``, a map from keys to
    coefficient dicts, times (-q)^inv."""
    sign = -1 if inv % 2 else 1
    for key, terms in partial.items():
        acc = total.get(key)
        if acc is None:
            acc = total[key] = {}
        for e, c in terms.items():
            e += inv
            v = acc.get(e, 0) + sign * c
            if v:
                acc[e] = v
            else:
                del acc[e]


def _add_count(total: list, partial: int, used: int, inv: int) -> None:
    """Add one minor's product count into total[0]."""
    total[0] += partial


def _minor_sum(entries, product, rule, leaf, optional, out, col, used, skipped, inv, partial) -> None:
    """Add into ``out`` det_q of every principal minor of ``entries`` that
    leaves out only indices in the bitmask ``optional``, but the empty one
    when ``optional`` is not 0. At column ``col``: leave it out, if
    optional and its row is free, or take each free row whose column was
    not left out. product(partial, entry, rule) multiplies a partial
    product by one entry, and leaf(out, partial, used, inv) adds a finished
    minor: the rows in ``used``, with ``inv`` inversions. Module level, so
    that no closure cycle outlives a call.
    """
    if not partial:
        return
    if col == len(entries):
        if used or not optional:
            leaf(out, partial, used, inv)
        return
    bit = 1 << col
    if optional & bit and not used & bit:
        _minor_sum(entries, product, rule, leaf, optional, out, col + 1, used, skipped | bit, inv, partial)
    for row, line in enumerate(entries):
        row_bit = 1 << row
        if line[col] and not (used | skipped) & row_bit:
            # rows already taken that are greater than this one each add an inversion
            added = bin(used >> (row + 1)).count("1")
            taken = used | row_bit
            _minor_sum(
                entries, product, rule, leaf, optional, out, col + 1, taken, skipped, inv + added,
                product(partial, line[col], rule),
            )


def _walk_sum(total: dict, sign: int = 1) -> WalkSum:
    """A {key: coefficient dict} map as a walk sum, times sign."""
    return WalkSum({k: LaurentPolynomial._from_terms(terms, sign) for k, terms in total.items()})


def quantum_det(matrix: BurauMatrix, signs: tuple[int, ...], prune_n: int | None = None) -> WalkSum:
    """Quantum determinant: sum over permutations of (-q)^inv(pi) times the
    column-ordered entry product. ``prune_n`` applies the duplicate-reduction
    filter after each partial multiplication."""
    total: dict = {}
    entries = [[_items(e) for e in row] for row in matrix.entries]
    one = {zero_key(len(signs)): {0: 1}}
    _minor_sum(entries, _kernel_products, (signs, prune_n or 0), _add_minor, 0, total, 0, 0, 0, 0, one)
    return _walk_sum(total)


def unpruned_walk_count(braid: BraidWord) -> int:
    """Number of walk monomials in the level-one determinant expansion,
    before any like-key cancellation or pruning.

    Distinct paths from u to v have distinct keys, so the count of words in
    a matrix entry is its entry size S[u][v], and the number of determinant
    products is the sum over nonempty principal minors J of perm(S_J):
    _minor_sum on the sizes, with integer products and every index
    optional.
    """
    if not braid.is_knot_closure():
        raise NotAKnotError(f"closure of {braid} is not a knot")
    sizes = [[len(e) for e in row] for row in reduced_matrix(braid_matrix(braid)).entries]
    total = [0]
    every = (1 << len(sizes)) - 1
    _minor_sum(sizes, lambda partial, size, _: partial * size, None, _add_count, every, total, 0, 0, 0, 0, 1)
    return total[0]


def simple_walk_count(braid: BraidWord) -> int:
    """Number of simple walks in a knot braid's level-one walk sum, the
    length of walk_generator's result, counted on occupied strands alone
    (see the module docstring): no braid matrix, keys or exponents. 0 on
    one strand, where the only braid is the unknot's empty word.
    """
    if not braid.is_knot_closure():
        raise NotAKnotError(f"closure of {braid} is not a knot")
    # bit u - 1 of a set stands for strand u; J leaves strand 1 out
    states = {(start, start): 1 for start in range(2, 1 << braid.strands, 2)}
    for index, sign in braid.crossings:
        lower = 1 << index - 1
        both = 3 * lower
        # the strand whose lone path may stay (a) as well as move
        branching = lower if sign > 0 else 2 * lower
        moved: dict = {}
        for (start, held), ways in states.items():
            here = held & both
            lone = here and here != both
            if not lone or here == branching:
                # no path here, two paths swapping (b, c), or a lone path staying (a)
                moved[start, held] = moved.get((start, held), 0) + ways
            if lone:
                # a lone path moving to the other strand (b or c)
                key = start, held ^ both
                moved[key] = moved.get(key, 0) + ways
        states = moved
    return sum(ways for (start, held), ways in states.items() if start == held)


def _simple_walks(braid: BraidWord) -> list:
    """The simple walks of a knot braid's level-one sum as (letter mask,
    exponent, sign) items, one per walk and no two with one mask: the walk
    sign * q^exponent * (the letters of mask, in normal form). Bit 3j + slot
    of a mask holds a letter of crossing j, with slot b = 0, c = 1, a = 2."""
    rule = _SimpleRule(braid.signs())
    reduced = reduced_matrix(braid_matrix(braid)).entries
    entries = [[rule.entry(e) for e in row] for row in reduced]
    walks: list = []
    every = (1 << len(entries)) - 1
    _minor_sum(entries, _simple_products, rule, _simple_leaf, every, walks, 0, 0, 0, 0, [(0, 0)])
    return walks


def walk_generator(braid: BraidWord, prune_simple: bool = True) -> WalkSum:
    """The level-one walk sum of a braid whose closure is a knot:
    1 - sum over all J of det_q((-qR)_J), R the reduced braid matrix. The
    empty minor is 1 and det_q((-qR)_J) = (-q)^|J| det_q(R_J), so this is
    minus the sum over nonempty J of det_q((-qR)_J), and every index is
    optional in _minor_sum. With prune_simple, the duplicate-reduction
    filter at level 2 runs on each partial product, leaving exactly the
    simple walks (_simple_walks), and the sum is returned packed
    (WalkSum.from_masks); without it each entry is scaled by -q once and
    the partial products go through the generic kernel.
    """
    if not braid.is_knot_closure():
        raise NotAKnotError(f"closure of {braid} is not a knot")
    if braid.strands < 2:
        raise ValueError("walk generator needs at least 2 strands")
    if prune_simple:
        return WalkSum.from_masks(braid.k, _simple_walks(braid))
    reduced = reduced_matrix(braid_matrix(braid)).entries
    entries = [[_items(e, 1, -1) for e in row] for row in reduced]
    total: dict = {}
    every = (1 << len(entries)) - 1
    one = {zero_key(braid.k): {0: 1}}
    _minor_sum(entries, _kernel_products, (braid.signs(), 0), _add_minor, every, total, 0, 0, 0, 0, one)
    return _walk_sum(total, -1)
