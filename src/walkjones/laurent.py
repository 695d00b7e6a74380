"""Exact sparse Laurent polynomials in the single variable q.

Coefficients are arbitrary-precision integers (plain Python ints) and
exponents are machine integers. The canonical form never stores a zero
coefficient; equality is structural equality of canonical forms. The
text codec orders terms by ascending exponent so that formatted output
is deterministic and diff-friendly.
"""
from __future__ import annotations

import cmath
import operator
import re
from typing import Iterator, Mapping


class LaurentParseError(ValueError):
    """Raised when polynomial text cannot be parsed; names the bad token."""


_TERM_RE = re.compile(
    r"""
    \s*(?P<sign>[+-])?\s*
    (?:
        (?P<coeff>\d+)\s*(?:\*\s*q(?:\^(?P<cexp>-?\d+))?)?
      | q(?:\^(?P<exp>-?\d+))?
    )
    """,
    re.VERBOSE,
)


class LaurentPolynomial:
    """A Laurent polynomial sum(c_e * q**e) stored as {e: c_e} with c_e != 0."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._terms: dict[int, int] = {}
        if terms:
            for e, c in terms.items():
                try:
                    e, c = operator.index(e), operator.index(c)
                except TypeError:
                    raise TypeError(f"term {c!r}*q^{e!r}: exponent and coefficient must be integers") from None
                if c:
                    self._terms[e] = c

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> "LaurentPolynomial":
        # Internal fast path: caller guarantees a canonical dict (no zeros).
        p = cls.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls._raw({0: 1})

    @classmethod
    def constant(cls, c: int) -> "LaurentPolynomial":
        return cls._raw({0: int(c)} if c else {})

    @classmethod
    def q_power(cls, e: int, c: int = 1) -> "LaurentPolynomial":
        """The monomial c * q**e."""
        return cls._raw({int(e): int(c)} if c else {})

    @property
    def terms(self) -> dict[int, int]:
        """Canonical exponent -> coefficient map (do not mutate)."""
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._terms.items()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPolynomial):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its int (see __eq__), so it hashes as that int
        terms = self._terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and 0 in terms:
            return hash(terms[0])
        return hash(frozenset(terms.items()))

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._raw({e: -c for e, c in self._terms.items()})

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return LaurentPolynomial._raw(out)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            if not other:
                return LaurentPolynomial.zero()
            return LaurentPolynomial._raw({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out: dict[int, int] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                e = ea + eb
                v = out.get(e, 0) + ca * cb
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return LaurentPolynomial._raw(out)

    __rmul__ = __mul__

    def shift(self, e: int) -> "LaurentPolynomial":
        """Multiply by q**e."""
        if not e:
            return self
        return LaurentPolynomial._raw({k + e: c for k, c in self._terms.items()})

    def invert_var(self) -> "LaurentPolynomial":
        """Substitute q -> 1/q, i.e. negate every exponent. Involutive."""
        return LaurentPolynomial._raw({-e: c for e, c in self._terms.items()})

    def eval_at(self, z: complex) -> complex:
        """Numerically evaluate at q = z. Rejects z = 0 (negative exponents)
        and a z that is not finite or at which a power or the sum overflows."""
        if z == 0:
            raise ValueError("cannot evaluate at q = 0: Laurent polynomials allow negative exponents")
        if not cmath.isfinite(z):
            raise ValueError(f"cannot evaluate at q = {z}: not finite")
        try:
            value = sum(c * z**e for e, c in self._terms.items())
            if cmath.isfinite(value):
                return value
        except (OverflowError, ZeroDivisionError):
            pass
        raise ValueError(f"cannot evaluate at q = {z}: the value overflows or is not finite")

    def format(self) -> str:
        """Canonical text form, terms in ascending exponent order."""
        if not self._terms:
            return "0"
        pieces = []
        for e, c in sorted(self._terms.items()):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif mag == 1:
                body = "q" if e == 1 else f"q^{e}"
            else:
                body = f"{mag}*q" if e == 1 else f"{mag}*q^{e}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    __str__ = format

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.format()!r})"

    @classmethod
    def parse(cls, text: str) -> "LaurentPolynomial":
        """Parse the text form produced by format(); inverse of it on canonical forms."""
        s = text.replace("−", "-").strip()
        if not s:
            raise LaurentParseError("empty polynomial text")
        if s == "0":
            return cls.zero()
        out: dict[int, int] = {}
        pos = 0
        first = True
        while pos < len(s):
            m = _TERM_RE.match(s, pos)
            if not m or m.end() == m.start():
                raise LaurentParseError(f"malformed polynomial near {s[pos:pos + 12]!r}")
            sign_tok = m.group("sign")
            if sign_tok is None and not first:
                raise LaurentParseError(f"missing +/- before {s[m.start():m.end() + 8].strip()!r}")
            sign = -1 if sign_tok == "-" else 1
            if m.group("coeff") is not None:
                c = int(m.group("coeff"))
                e = 0
                if m.group("cexp") is not None:
                    e = int(m.group("cexp"))
                elif "q" in s[m.start():m.end()]:
                    e = 1
            else:
                c = 1
                e = 1 if m.group("exp") is None else int(m.group("exp"))
            v = out.get(e, 0) + sign * c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
            pos = m.end()
            first = False
            # consume trailing whitespace so loop terminates cleanly
            while pos < len(s) and s[pos].isspace():
                pos += 1
        return cls._raw(out)
