"""Brute-force reference pipeline on free letter words.

Everything here works on raw letter sequences with no normal-form data
structure and no duplicate-reduction pruning, so it shares nothing with
the optimized multiplication in ``weyl``. It exists to validate the engine
on small inputs: ``free_normalize`` realizes the commutation relations one
adjacent swap at a time, and ``naive_colored_jones`` expands every stack
of walks explicitly. Exponential blowup is accepted; keep inputs small.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .braid import BraidWord, NotAKnotError
from .laurent import LaurentPolynomial
from .weyl import zero_key

_SLOT = {"b": 0, "c": 1, "a": 2}
_RANK = {"b": 0, "c": 1, "a": 2}  # normal order within a crossing is b, c, a


@dataclass(frozen=True)
class KeyedMonomial:
    """A normal-form monomial: coefficient times the word encoded by key."""

    key: tuple[int, ...]
    coeff: LaurentPolynomial


@dataclass(frozen=True)
class FreeWord:
    """An unreduced product of letters, in significant order, times a coefficient."""

    letters: tuple[tuple[str, int], ...]  # (kind 'a'|'b'|'c', crossing 1-based)
    coeff: LaurentPolynomial

    def __post_init__(self):
        for kind, crossing in self.letters:
            if kind not in _SLOT:
                raise ValueError(f"unknown letter kind {kind!r}")
            if crossing < 1:
                raise ValueError(f"crossing ordinal must be >= 1, got {crossing}")


def _swap_exponent(left: str, right: str, sign: int) -> int:
    """q-power picked up by swapping adjacent letters xy -> yx at one crossing.

    Only pairs that are out of normal order (b before c before a) ever get
    swapped: (a,b), (a,c) and (c,b).
    """
    if sign > 0:
        return {("a", "b"): 0, ("a", "c"): 1, ("c", "b"): -2}[(left, right)]
    return {("a", "b"): 2, ("a", "c"): -1, ("c", "b"): 2}[(left, right)]


def _out_of_order(x: tuple[str, int], y: tuple[str, int]) -> bool:
    return (x[1], _RANK[x[0]]) > (y[1], _RANK[y[0]])


def _apply_swaps(word: FreeWord, signs: tuple[int, ...], pick) -> KeyedMonomial:
    k = len(signs)
    letters = list(word.letters)
    z = 0
    while True:
        swappable = [
            i for i in range(len(letters) - 1) if _out_of_order(letters[i], letters[i + 1])
        ]
        if not swappable:
            break
        i = pick(swappable)
        x, y = letters[i], letters[i + 1]
        if x[1] == y[1]:
            z += _swap_exponent(x[0], y[0], signs[x[1] - 1])
        letters[i], letters[i + 1] = y, x
    key = list(zero_key(k))
    for kind, crossing in letters:
        if crossing > k:
            raise ValueError(f"letter at crossing {crossing} but braid has {k} crossings")
        key[3 * (crossing - 1) + _SLOT[kind]] += 1
    return KeyedMonomial(tuple(key), word.coeff.shift(z))


def free_normalize(word: FreeWord, signs: tuple[int, ...]) -> KeyedMonomial:
    """Reduce a free word to its normal-form monomial by adjacent swaps,
    multiplying the coefficient by the commutation factor at each swap."""
    return _apply_swaps(word, signs, lambda idxs: idxs[0])


def _normalize_random_schedule(
    word: FreeWord, signs: tuple[int, ...], rng: random.Random
) -> KeyedMonomial:
    """Same reduction with a randomized swap order (confluence checks)."""
    return _apply_swaps(word, signs, rng.choice)


# ---------------------------------------------------------------------------
# Naive full-expansion colored Jones


def _free_generator(ordinal: int, index: int, sign: int, m: int) -> list[list[list]]:
    """Crossing matrix with entries as lists of (qexp, sign, letters)."""
    one = [(0, 1, ())]
    rows = [[one if u == v else [] for v in range(m)] for u in range(m)]
    i = index - 1

    def let(kind):
        return [(0, 1, ((kind, ordinal),))]

    if sign > 0:
        rows[i][i], rows[i][i + 1] = let("a"), let("b")
        rows[i + 1][i], rows[i + 1][i + 1] = let("c"), []
    else:
        rows[i][i], rows[i][i + 1] = [], let("c")
        rows[i + 1][i], rows[i + 1][i + 1] = let("b"), let("a")
    return rows


def _free_product(a, b, m):
    out = [[[] for _ in range(m)] for _ in range(m)]
    for u in range(m):
        for w in range(m):
            left = a[u][w]
            if not left:
                continue
            for v in range(m):
                right = b[w][v]
                if not right:
                    continue
                out[u][v].extend(
                    (e1 + e2, s1 * s2, l1 + l2) for e1, s1, l1 in left for e2, s2, l2 in right
                )
    return out


def _free_walks(braid: BraidWord) -> list[tuple[int, int, tuple]]:
    """Level-one walk list, fully expanded: (q exponent, sign, letters)."""
    m = braid.strands
    mat = [[[(0, 1, ())] if u == v else [] for v in range(m)] for u in range(m)]
    for ordinal, (index, sign) in enumerate(braid.crossings, start=1):
        mat = _free_product(mat, _free_generator(ordinal, index, sign, m), m)
    reduced = [row[1:] for row in mat[1:]]
    size = m - 1
    walks: list[tuple[int, int, tuple]] = []
    for mask in range(1, 1 << size):
        picked = [i for i in range(size) if mask & (1 << i)]
        subset_sign = -1 if (len(picked) - 1) % 2 else 1
        for perm, inv in _permutations_with_inversions(len(picked)):
            # entry product in column order, row perm[col] of the submatrix
            terms = [(0, 1, ())]
            for col in range(len(picked)):
                entry = reduced[picked[perm[col]]][picked[col]]
                if not entry:
                    terms = []
                    break
                terms = [
                    (e1 + e2, s1 * s2, l1 + l2) for e1, s1, l1 in terms for e2, s2, l2 in entry
                ]
            inv_sign = -1 if inv % 2 else 1
            for e, s, letters in terms:
                walks.append((e + inv + len(picked), s * inv_sign * subset_sign, letters))
    return walks


def _permutations_with_inversions(n: int):
    """All permutations of range(n) with their inversion counts."""
    out: list[tuple[tuple[int, ...], int]] = []

    def rec(prefix: list[int], remaining: list[int], inv: int):
        if not remaining:
            out.append((tuple(prefix), inv))
            return
        for idx, v in enumerate(remaining):
            added = sum(1 for u in prefix if u > v)
            rec(prefix + [v], remaining[:idx] + remaining[idx + 1 :], inv + added)

    rec([], list(range(n)), 0)
    return out


def _encode(letters: tuple, signs: tuple[int, ...]) -> list[tuple[int, int, bool]]:
    enc = []
    for kind, crossing in letters:
        enc.append((3 * (crossing - 1), _SLOT[kind], signs[crossing - 1] > 0))
    return enc


def _evaluate_height(walks_enc, positive, k, color, height) -> LaurentPolynomial:
    """Sum of color evaluations over every ordered stack of the given height.

    Maintains letter counts and the reordering q-power incrementally along a
    depth-first walk over stacks; each leaf applies the closed-form color
    evaluation to its letter counts.
    """
    counts = [0] * (3 * k)
    total: dict[int, int] = {}
    nm1 = color - 1

    def leaf(z: int, qexp: int, sgn: int) -> None:
        shift = z + qexp
        factor_exps: list[int] = []
        for j in range(k):
            b = 3 * j
            r = counts[b + 1]
            d = counts[b + 2]
            if d:
                if r < color <= r + d:
                    return
                if positive[j]:
                    factor_exps.extend(nm1 - r - h for h in range(d))
                else:
                    factor_exps.extend(r + l + 1 - color for l in range(d))
            if r:
                shift += r * (nm1 - d) if positive[j] else -r * nm1
        poly = {shift: sgn}
        for e in factor_exps:
            nxt: dict[int, int] = {}
            for ea, ca in poly.items():
                v = nxt.get(ea, 0) + ca
                if v:
                    nxt[ea] = v
                elif ea in nxt:
                    del nxt[ea]
                eb = ea + e
                v = nxt.get(eb, 0) - ca
                if v:
                    nxt[eb] = v
                elif eb in nxt:
                    del nxt[eb]
            poly = nxt
        for e, ca in poly.items():
            v = total.get(e, 0) + ca
            if v:
                total[e] = v
            elif e in total:
                del total[e]

    def go(depth: int, z: int, qexp: int, sgn: int) -> None:
        if depth == height:
            leaf(z, qexp, sgn)
            return
        for we, ws, enc in walks_enc:
            z2 = z
            for base, slot, pos in enc:
                if slot == 1:  # appending c: crosses every a to its left
                    z2 += counts[base + 2] if pos else -counts[base + 2]
                elif slot == 0:  # appending b: crosses every c (and, if negative, a) to its left
                    z2 += -2 * counts[base + 1] if pos else 2 * (counts[base + 2] + counts[base + 1])
                counts[base + slot] += 1
            go(depth + 1, z2, qexp + we, sgn * ws)
            for base, slot, _pos in enc:
                counts[base + slot] -= 1

    go(0, 0, 0, 1)
    return LaurentPolynomial._from_terms(total)


def naive_colored_jones(braid: BraidWord, color: int) -> LaurentPolynomial:
    """Colored Jones polynomial by full expansion: every stack of walks is
    enumerated as a free word and evaluated separately. No pruning anywhere;
    the only guard is the height cap of 2 * color * crossings."""
    if color < 1:
        raise ValueError(f"color must be >= 1, got {color}")
    if braid.k == 0 and braid.strands == 1:
        return LaurentPolynomial.one()
    if not braid.is_knot_closure():
        raise NotAKnotError(f"closure of {braid} is not a knot")
    signs = braid.signs()
    k = braid.k
    m = braid.strands
    framing = (color - 1) * (braid.writhe() - m + 1) // 2
    walks = _free_walks(braid)
    positive = [s > 0 for s in signs]
    walks_enc = [(e, s, _encode(letters, signs)) for e, s, letters in walks]
    cap = 2 * color * k
    total = LaurentPolynomial.one()
    if walks:
        height = 1
        while True:
            value = _evaluate_height(walks_enc, positive, k, color, height)
            if value.is_zero():
                break
            total = total + value
            height += 1
            if height > cap:
                raise RuntimeError(f"stack exceeded height cap {cap} in the naive pipeline")
    return total.shift(framing)


# ---------------------------------------------------------------------------
# Right-quantum matrix check


def _fsum_mul(a: list[FreeWord], b: list[FreeWord]) -> list[FreeWord]:
    return [FreeWord(x.letters + y.letters, x.coeff * y.coeff) for x in a for y in b]


def _fsum_scale(a: list[FreeWord], factor: LaurentPolynomial) -> list[FreeWord]:
    return [FreeWord(x.letters, x.coeff * factor) for x in a]


def _fsum_normal(words: list[FreeWord], signs: tuple[int, ...]) -> dict:
    out: dict[tuple[int, ...], LaurentPolynomial] = {}
    for w in words:
        mono = free_normalize(w, signs)
        cur = out.get(mono.key)
        total = mono.coeff if cur is None else cur + mono.coeff
        if total:
            out[mono.key] = total
        elif mono.key in out:
            del out[mono.key]
    return out


def right_quantum_check(matrix: list[list[list[FreeWord]]], signs: tuple[int, ...]) -> bool:
    """Verify the right-quantum relations of a 2x2 matrix [[a, b], [c, d]]:
    ac = q ca, bd = q db, and ad = da + q cb - (1/q) bc, comparing both sides
    after normal-form reduction."""
    (a, b), (c, d) = matrix
    q = LaurentPolynomial.q_power(1)
    q_inv = LaurentPolynomial.q_power(-1)
    minus_one = LaurentPolynomial.constant(-1)

    def is_zero(words: list[FreeWord]) -> bool:
        return not _fsum_normal(words, signs)

    rel1 = _fsum_mul(a, c) + _fsum_scale(_fsum_mul(c, a), q * minus_one)
    rel2 = _fsum_mul(b, d) + _fsum_scale(_fsum_mul(d, b), q * minus_one)
    rel3 = (
        _fsum_mul(a, d)
        + _fsum_scale(_fsum_mul(d, a), minus_one)
        + _fsum_scale(_fsum_mul(c, b), q * minus_one)
        + _fsum_scale(_fsum_mul(b, c), q_inv)
    )
    return is_zero(rel1) and is_zero(rel2) and is_zero(rel3)
