"""Exact dense Laurent polynomials in the single variable q.

Coefficients are arbitrary-precision integers (plain Python ints) and
exponents are machine integers. A polynomial is stored as its lowest
exponent and the tuple of coefficients from that exponent up, with no zero
at either end; the zero polynomial is (0, ()). Equality is structural
equality of that canonical form. The span of a polynomial built from terms
or by arithmetic (its highest minus its lowest exponent) is at most
SPAN_MAX, checked before the tuple is allocated. The text codec orders
terms by ascending exponent so that formatted output is deterministic and
diff-friendly.
"""
from __future__ import annotations

import cmath
import operator
import re
from typing import Iterator, Mapping

# The largest highest-minus-lowest exponent a polynomial may span: one
# coefficient slot per exponent, so this bounds the tuple at 8 MiB of slots.
SPAN_MAX = 1 << 20


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


def _check_span(low: int, top: int) -> None:
    if top - low > SPAN_MAX:
        raise ValueError(
            f"polynomial from q^{low} to q^{top} spans {top - low} powers of q, past the limit of {SPAN_MAX}"
        )


def _dense(terms: Mapping[int, int]) -> tuple[int, tuple[int, ...]]:
    """(low, coeffs) of a nonempty exponent -> coefficient map with no zero."""
    low, top = min(terms), max(terms)
    _check_span(low, top)
    coeffs = [0] * (top - low + 1)
    for e, c in terms.items():
        coeffs[e - low] = c
    return low, tuple(coeffs)


def _trimmed(low: int, coeffs: list[int]) -> "LaurentPolynomial":
    """The polynomial sum(coeffs[i] * q**(low + i)), zeros at the ends dropped."""
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    if not end:
        return LaurentPolynomial.zero()
    start = 0
    while not coeffs[start]:
        start += 1
    return LaurentPolynomial._raw(low + start, tuple(coeffs[start:end]))


class LaurentPolynomial:
    """A Laurent polynomial sum(c_i * q**(low + i)) stored as (low, coeffs),
    coeffs a tuple with no zero at either end; zero is (0, ())."""

    __slots__ = ("_low", "_coeffs")

    def __init__(self, terms: Mapping[int, int] | None = None):
        """The polynomial of an exponent -> coefficient map; zero terms are
        dropped. TypeError for a term that is not an integer, ValueError
        for a span past SPAN_MAX."""
        self._low, self._coeffs = 0, ()
        if terms:
            checked = {}
            for e, c in terms.items():
                try:
                    e, c = operator.index(e), operator.index(c)
                except TypeError:
                    raise TypeError(f"term {c!r}*q^{e!r}: exponent and coefficient must be integers") from None
                if c:
                    checked[e] = c
            if checked:
                self._low, self._coeffs = _dense(checked)

    @classmethod
    def _raw(cls, low: int, coeffs: tuple[int, ...]) -> "LaurentPolynomial":
        # Internal fast path: caller guarantees a canonical form (no zero at
        # either end of coeffs, and low 0 when coeffs is empty).
        p = cls.__new__(cls)
        p._low = low
        p._coeffs = coeffs
        return p

    @classmethod
    def _from_terms(cls, terms: dict[int, int], sign: int = 1) -> "LaurentPolynomial":
        # Internal: an exponent -> coefficient dict with no zero, times sign.
        if not terms:
            return cls.zero()
        if len(terms) == 1:
            ((e, c),) = terms.items()
            return cls._raw(e, (sign * c,))
        low, coeffs = _dense(terms)
        return cls._raw(low, tuple(sign * c for c in coeffs) if sign != 1 else coeffs)

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls._raw(0, ())

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls._raw(0, (1,))

    @classmethod
    def constant(cls, c: int) -> "LaurentPolynomial":
        """The constant c; TypeError if c is not an integer."""
        return cls({0: c})

    @classmethod
    def q_power(cls, e: int, c: int = 1) -> "LaurentPolynomial":
        """The monomial c * q**e; TypeError if e or c is not an integer."""
        return cls({e: c})

    @property
    def terms(self) -> dict[int, int]:
        """A fresh exponent -> coefficient map of the nonzero terms."""
        return {e: c for e, c in enumerate(self._coeffs, self._low) if c}

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs) - self._coeffs.count(0)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((e, c) for e, c in enumerate(self._coeffs, self._low) if c)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPolynomial):
            return self._low == other._low and self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ((other,) if other else ()) and self._low == 0
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its int (see __eq__), so it hashes as that int
        coeffs = self._coeffs
        if not coeffs:
            return hash(0)
        if len(coeffs) == 1 and self._low == 0:
            return hash(coeffs[0])
        return hash((self._low, coeffs))

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._raw(self._low, tuple(-c for c in self._coeffs))

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        (la, a), (lb, b) = (self._low, self._coeffs), (other._low, other._coeffs)
        if la > lb:
            (la, a), (lb, b) = (lb, b), (la, a)
        _check_span(la, max(la + len(a), lb + len(b)) - 1)
        out = list(a)
        at = lb - la
        out += [0] * (at + len(b) - len(out))
        for i, c in enumerate(b, at):
            out[i] += c
        return _trimmed(la, out)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            if not other:
                return LaurentPolynomial.zero()
            return LaurentPolynomial._raw(self._low, tuple(c * other for c in self._coeffs))
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return LaurentPolynomial.zero()
        low = self._low + other._low
        _check_span(low, low + len(a) + len(b) - 2)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        # the end coefficients are products of nonzero ends, so nonzero
        return LaurentPolynomial._raw(low, tuple(out))

    __rmul__ = __mul__

    def shift(self, e: int) -> "LaurentPolynomial":
        """Multiply by q**e."""
        if not e or not self._coeffs:
            return self
        return LaurentPolynomial._raw(self._low + e, self._coeffs)

    def invert_var(self) -> "LaurentPolynomial":
        """Substitute q -> 1/q, i.e. negate every exponent. Involutive."""
        if not self._coeffs:
            return self
        return LaurentPolynomial._raw(1 - self._low - len(self._coeffs), self._coeffs[::-1])

    def eval_at(self, z: complex) -> complex:
        """Numerically evaluate at q = z. Rejects z = 0 (negative exponents)
        and a z that is not finite or at which a power or the sum overflows."""
        if z == 0:
            raise ValueError("cannot evaluate at q = 0: Laurent polynomials allow negative exponents")
        if not cmath.isfinite(z):
            raise ValueError(f"cannot evaluate at q = {z}: not finite")
        try:
            value = sum(c * z**e for e, c in self)
            if cmath.isfinite(value):
                return value
        except (OverflowError, ZeroDivisionError):
            pass
        raise ValueError(f"cannot evaluate at q = {z}: the value overflows or is not finite")

    def format(self) -> str:
        """Canonical text form, terms in ascending exponent order."""
        if not self._coeffs:
            return "0"
        pieces = []
        for e, c in self:
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
            out[e] = out.get(e, 0) + sign * c
            pos = m.end()
            first = False
            # consume trailing whitespace so loop terminates cleanly
            while pos < len(s) and s[pos].isspace():
                pos += 1
        return cls(out)
