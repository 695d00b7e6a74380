"""Walk-algebra operations that only the tests use.

Each states one operation on top of the engine's own: the crossing matrix
of one generator, the product of two walk sums or of two keys in one
kernel call, a walk sum summed from monomials, read off a matrix entry,
scaled or DRL-filtered, the product and the evaluation of single
monomials, a walk sum packed from letter masks with general
coefficients, the unpruned walk count read off the braid matrix, the
simple-walk count run state by state, and the height loop evaluated
height by height.
"""
from walkjones import kernels, weyl
from walkjones.braid import BraidWord
from walkjones.burau import BurauMatrix, _add_count, _minor_sum, braid_matrix, reduced_matrix, walk_generator
from walkjones.laurent import LaurentPolynomial
from walkjones.oracle import KeyedMonomial
from walkjones.weyl import (
    WalkSum,
    checked_int,
    drl_keep,
    evaluate_walk_sum,
    letter_key,
    multiply_walk_sums,
    zero_key,
)


def generator_matrix(crossing_ordinal: int, index: int, sign: int, m: int, crossings: int | None = None) -> BurauMatrix:
    """The m x m crossing matrix for generator sigma_index^sign.

    ``crossings`` fixes the key width (total crossing count of the ambient
    braid); it defaults to ``crossing_ordinal``, which suffices for a
    matrix considered on its own.
    """
    if not 1 <= index <= m - 1:
        raise ValueError(f"generator index {index} out of range for {m} strands")
    k = crossings if crossings is not None else crossing_ordinal
    rows = [[{zero_key(k): {0: 1}} if u == v else {} for v in range(m)] for u in range(m)]
    a, b, c = ({letter_key(k, crossing_ordinal, x): {0: 1}} for x in "abc")
    i = index - 1
    # the 2x2 block at rows and columns i, i + 1
    block = ((a, b), (c, {})) if sign > 0 else (({}, c), (b, a))
    rows[i][i : i + 2], rows[i + 1][i : i + 2] = block
    return BurauMatrix(m, rows)


def kernel_product(a: WalkSum, b: WalkSum, signs: tuple[int, ...], n_limit: int = 0) -> WalkSum:
    """All pairwise products of two walk sums in one kernel call; n_limit > 0
    discards products failing drl_keep(key, n_limit), 0 keeps every one."""
    entries_a, entries_b = a.entries, b.entries
    if not entries_a or not entries_b:
        return WalkSum.zero()
    items_a = [(k, c.terms) for k, c in entries_a.items()]
    items_b = [(k, c.terms) for k, c in entries_b.items()]
    raw = kernels.walk_products(items_a, items_b, signs, n_limit)
    return WalkSum({k: LaurentPolynomial._from_terms(c) for k, c in raw.items()})


def summed(monomials) -> WalkSum:
    """The walk sum of (key, coefficient) pairs, like keys added."""
    total: dict = {}
    for key, coeff in monomials:
        total[key] = total[key] + coeff if key in total else coeff
    return WalkSum(total)


def walk_sum(entry: dict) -> WalkSum:
    """A braid-matrix entry, a kernel map {key: coefficient dict}, as a walk sum."""
    return WalkSum({key: LaurentPolynomial(terms) for key, terms in entry.items()})


def scaled(ws: WalkSum, factor: LaurentPolynomial) -> WalkSum:
    """Every coefficient of ws times factor."""
    if not factor:
        return WalkSum.zero()
    return WalkSum({k: c * factor for k, c in ws.entries.items()})


def filtered(ws: WalkSum, n: int) -> WalkSum:
    """Entries whose keys survive drl_keep(key, n); n must be >= 1, also
    for an empty sum."""
    n = checked_int(n)
    return WalkSum({k: c for k, c in ws.entries.items() if drl_keep(k, n)})


def mono_mul(left: KeyedMonomial, right: KeyedMonomial, signs: tuple[int, ...]) -> KeyedMonomial:
    """Product of two normal-form monomials over the same braid."""
    key, delta = unit_product(left.key, right.key, signs)
    return KeyedMonomial(key, (left.coeff * right.coeff).shift(delta))


def unit_product(left: tuple, right: tuple, signs: tuple[int, ...]) -> tuple[tuple, int]:
    """The product key of two tuple keys and the q-power that normal
    reordering adds, from one kernel call on unit coefficients."""
    ((key, coeff),) = kernels.walk_products([(left, {0: 1})], [(right, {0: 1})], signs, 0).items()
    ((delta, _),) = coeff.items()
    return key, delta


def evaluate_monomial(mono: KeyedMonomial, signs: tuple[int, ...], n: int) -> LaurentPolynomial:
    """Color-n evaluation of one normal-form monomial (see evaluate_walk_sum)."""
    return evaluate_walk_sum(WalkSum.single(mono.key, mono.coeff), signs, n)


def packed_from_masks(k: int, walks: dict) -> WalkSum:
    """A walk sum on k crossings packed straight from letter masks, as
    WalkSum.from_masks packs the level-one sum, but from a map of masks to
    general coefficient dicts. Its bounds are exact: the mass is the sum
    of |c|, and the field bound is 2 where a mask holds an a beside a b or
    c, else 1."""
    mass = sum(sum(map(abs, terms.values())) for terms in walks.values())
    bits = weyl._lane(mass.bit_length() + 2)
    keys = [int.from_bytes(f"{mask:o}".translate(weyl._MOVED_DIGITS).encode("latin-1"), "big") for mask in walks]
    coeffs, low = zip(*(weyl._pack(LaurentPolynomial(terms), bits) for terms in walks.values()))
    clash = any(mask >> 2 & (mask | mask >> 1) & sum(1 << 3 * j for j in range(k)) for mask in walks)
    span = max(map(max, walks.values())) - min(low)
    return WalkSum._packed(weyl._Keys(k, 8), bits, keys, list(coeffs), list(low), mass, 2 if clash else 1, span)


def matrix_unpruned_walk_count(braid: BraidWord) -> int:
    """burau.unpruned_walk_count read off the braid matrix itself: the
    number of words in each reduced-matrix entry is its size, and the
    count is _minor_sum of the sizes, every index optional, with integer
    products. The braid must close to a knot on two or more strands."""
    sizes = [[len(e) for e in row] for row in reduced_matrix(braid_matrix(braid)).entries]
    total = [0]
    every = (1 << len(sizes)) - 1
    _minor_sum(sizes, lambda partial, size, _: partial * size, None, _add_count, every, total, 0, 0, 0, 0, 1)
    return total[0]


def occupancy_walk_count(braid: BraidWord) -> int:
    """burau.simple_walk_count on a dict over (start J, occupied set)
    states, one int of ways each: the sum over nonempty J in strands 2..m
    of the ways the occupied set, starting as J, is J again after the last
    crossing. A crossing moves only the sets that hold one of its two
    strands: both held, the paths swap (b, c); a lone path on the positive
    crossing's lower strand or the negative crossing's upper strand stays
    (a) or moves (b); on the other strand it moves (c). The braid must
    close to a knot."""
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


def stack_values(word: BraidWord, n: int, drl: bool = True):
    """Yield the color-n evaluation of each stack of the height loop on a
    knot word of two or more strands, run as given, one per height, until
    the stack is empty. Without DRL the stacks never run out, and the
    caller stops."""
    level_one = stack = walk_generator(word, prune_simple=drl)
    signs = word.signs()
    while stack:
        yield evaluate_walk_sum(stack, signs, n)
        stack = multiply_walk_sums(level_one, stack, signs, n if drl else 0)


def per_height_jones(word: BraidWord, n: int, drl: bool = True) -> tuple[LaurentPolynomial, int]:
    """J_n of an unsplit reduced knot word of two or more strands, run as
    given, with each stack height evaluated on its own: the framing factor
    times 1 plus the value of every height before the first that is zero
    or empty. Returns the polynomial and the heights added."""
    total, heights = LaurentPolynomial.one(), 0
    for value in stack_values(word, n, drl):
        if value.is_zero():
            break
        total, heights = total + value, heights + 1
    return total.shift((n - 1) * (word.writhe() - word.strands + 1) // 2), heights
