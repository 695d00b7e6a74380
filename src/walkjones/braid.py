"""Braid words and the combinatorial data of their closures.

A braid on m strands is stored as an ordered sequence of crossings
(generator index i in [1, m-1], sign +-1). Closure-related quantities
(closure permutation, knot test, writhe) treat the word as given. The one
rewriting is reduced(): it cancels cyclically adjacent inverse pairs and
drops top or bottom strands by Markov destabilization, which keeps the
closure's link type; no other braid group relation is applied. split()
factors a word whose closure is a connected sum into the words of the two
summands.
"""
from __future__ import annotations

from dataclasses import dataclass


class NotAKnotError(ValueError):
    """The braid closure has more than one component."""


@dataclass(frozen=True)
class BraidWord:
    crossings: tuple[tuple[int, int], ...]
    strands: int

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"strand count must be >= 1, got {self.strands}")
        for i, (idx, sign) in enumerate(self.crossings):
            if not 1 <= idx <= self.strands - 1:
                raise ValueError(
                    f"crossing {i + 1}: generator index {idx} out of range for {self.strands} strands"
                )
            if sign not in (1, -1):
                raise ValueError(f"crossing {i + 1}: sign must be +1 or -1, got {sign}")

    @property
    def k(self) -> int:
        """Number of crossings."""
        return len(self.crossings)

    def signs(self) -> tuple[int, ...]:
        return tuple(sign for _, sign in self.crossings)

    def writhe(self) -> int:
        """Sum of crossing signs."""
        return sum(sign for _, sign in self.crossings)

    def mirror(self) -> "BraidWord":
        """Flip the sign of every crossing (diagrammatic mirror image)."""
        return BraidWord(tuple((i, -s) for i, s in self.crossings), self.strands)

    def flip(self) -> "BraidWord":
        """Replace each sigma_i with sigma_(m-i), signs kept: conjugation by
        the half twist, so the closure is the same knot."""
        return BraidWord(tuple((self.strands - i, s) for i, s in self.crossings), self.strands)

    def rotated(self, start: int) -> "BraidWord":
        """The cyclic rotation beginning at crossing ``start`` (0-based): a
        conjugate, so the closure is the same knot."""
        c = self.crossings
        return BraidWord(c[start:] + c[:start], self.strands)

    def reduced(self) -> "BraidWord":
        """The word with the same closure, after two steps repeated until
        neither applies: cancel adjacent sigma_i sigma_i^-1 pairs, the last
        and first letters counting as adjacent (a conjugation); and while
        the largest index m - 1 or the index 1 appears exactly once, delete
        that crossing and drop a strand (Markov destabilization: the word is
        conjugate to w sigma_(m-1)^+-1 with w on m - 1 strands, or, for
        sigma_1, to sigma_1^+-1 w with w on the top m - 1 strands, whose
        indices then move down by one)."""
        word, m = list(self.crossings), self.strands
        while True:
            free: list[tuple[int, int]] = []
            for i, s in word:
                if free and free[-1] == (i, -s):
                    free.pop()
                else:
                    free.append((i, s))
            start, end = 0, len(free)
            while end - start > 1 and free[start] == (free[end - 1][0], -free[end - 1][1]):
                start, end = start + 1, end - 1
            word = free[start:end]
            for index in (m - 1, 1):
                at = [r for r, (i, _) in enumerate(word) if i == index]
                if len(at) == 1:
                    break
            else:
                return BraidWord(tuple(word), m)
            del word[at[0]]
            if index == 1:
                word = [(i - 1, s) for i, s in word]
            m -= 1

    def split(self) -> "tuple[BraidWord, BraidWord] | None":
        """The factors (u, v) of a knot's word as a connected sum, at the
        least strand j in 2..m-1 where, read cyclically, the sigma_(j-1)
        and sigma_j letters form one block of each; None when no j does.
        These are the only letters below j and from j up that do not
        commute, so the word rotated to the start of its sigma_(j-1) block
        is u v by far commutations: u is the letters below j, in order, on
        strands 1..j, and v the letters from j up, in order, reindexed to
        start at 1. The closure is closure(u) # closure(v) (Birman and
        Menasco, Invent. Math. 102, 1990), and both are knots: a cycle on
        all m strands leaves no strand of u or v a cycle of its own."""
        c, m = self.crossings, self.strands
        for j in range(2, m):
            pair = [r for r, (i, _) in enumerate(c) if j - 1 <= i <= j]
            starts = [r for p, r in zip(pair[-1:] + pair, pair) if c[p][0] == j and c[r][0] == j - 1]
            if len(starts) == 1:
                word = c[starts[0]:] + c[:starts[0]]
                u = tuple((i, s) for i, s in word if i < j)
                v = tuple((i - j + 1, s) for i, s in word if i >= j)
                return BraidWord(u, j), BraidWord(v, m - j + 1)
        return None

    def closure_permutation(self) -> tuple[int, ...]:
        """Permutation of {1..m} induced by the closure, as (image of 1, ..., image of m)."""
        f = list(range(1, self.strands + 1))
        for i, _ in self.crossings:
            f[i - 1], f[i] = f[i], f[i - 1]
        return tuple(f)

    def is_knot_closure(self) -> bool:
        """True iff the closure is a knot, i.e. the closure permutation is a single m-cycle,
        which takes at least m - 1 transpositions."""
        if self.k < self.strands - 1:
            return False
        perm = self.closure_permutation()
        seen = 1
        at = perm[0]
        while at != 1:
            at = perm[at - 1]
            seen += 1
        return seen == self.strands

    def text(self) -> str:
        """The signed-index word, e.g. '-1 2 -1 2'."""
        return " ".join(str(i * s) for i, s in self.crossings)

    def __str__(self) -> str:
        return f"{self.text() or '(trivial)'} on {self.strands} strands"


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse a braid word given as signed generator indices.

    Tokens are separated by whitespace and/or commas; the absolute value is
    the generator index and the sign is the crossing sign. The strand count
    defaults to (max index) + 1 and may only be overridden upward.
    """
    tokens = text.replace(",", " ").split()
    crossings = []
    for tok in tokens:
        try:
            v = int(tok)
        except ValueError:
            raise ValueError(f"bad braid token {tok!r}: expected a nonzero signed integer") from None
        if v == 0:
            raise ValueError("bad braid token '0': generator indices start at 1")
        crossings.append((abs(v), 1 if v > 0 else -1))
    needed = max((i for i, _ in crossings), default=0) + 1
    if strands is None:
        m = needed if crossings else 1
    else:
        if crossings and strands < needed:
            raise ValueError(f"braid word needs at least {needed} strands, got override {strands}")
        m = strands
    return BraidWord(tuple(crossings), m)
