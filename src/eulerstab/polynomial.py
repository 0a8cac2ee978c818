"""Dense univariate polynomials with exact rational coefficients.

Coefficients are `fractions.Fraction` values stored lowest degree first, so
``Polynomial([1, 4, 1])`` is ``1 + 4x + x^2``.  The zero polynomial is the
empty coefficient tuple, and every constructor strips trailing zeros, so
structural equality coincides with mathematical equality.  That exactness is
what the identity checks and stability decisions in the rest of the package
rely on; nothing here ever touches floating point, and floats are rejected
on construction rather than silently truncated.

The heavy loops run on integer rows, not on Fractions: a product clears each
factor's denominators once (its lcm times the coefficients), convolves the
Python ints and divides by the two lcms at the end, and the gcd and Sturm
paths share one primitive remainder sequence on such rows
(`_remainder_rows`).

The degree of the zero polynomial is the distinguished marker
``NEG_INFINITY`` (``float("-inf")``), which compares below every integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Iterable, List, Tuple, Union

Rational = Fraction
Scalar = Union[int, Fraction]

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")


def _coerce(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {value!r}")


class Polynomial:
    """Immutable dense polynomial over the rationals."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: Tuple[Fraction, ...] = tuple(cs)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls([1])

    @classmethod
    def x(cls) -> "Polynomial":
        return cls([0, 1])

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "Polynomial":
        """coeff * x**power."""
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls([0] * power + [coeff])

    # ------------------------------------------------------------------
    # basic structure

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self):
        """Degree; NEG_INFINITY for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    @property
    def constant_term(self) -> Fraction:
        return self._coeffs[0] if self._coeffs else Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(str(c) for c in self._coeffs)}])"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    parts.append(xs)
                elif c == -1:
                    parts.append(f"-{xs}")
                else:
                    parts.append(f"{c}*{xs}")
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    # ------------------------------------------------------------------
    # ring operations

    def _wrap(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return Polynomial([_coerce(other)])

    def __add__(self, other) -> "Polynomial":
        other = self._wrap(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self._coeffs])

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._wrap(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._wrap(other) - self

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _coerce(other)
            return Polynomial([c * a for a in self._coeffs])
        if not self._coeffs or not other._coeffs:
            return Polynomial()
        # Convolve the integer rows; the product's denominator is da * db.
        (a, da), (b, db) = _integer_row(self), _integer_row(other)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        den = da * db
        return Polynomial([Fraction(c, den) for c in out])

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        result = Polynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __call__(self, point: Scalar) -> Fraction:
        """Exact evaluation by Horner's rule."""
        x = _coerce(point)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    # ------------------------------------------------------------------
    # calculus and reshaping

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self._coeffs)][1:])

    def reciprocal(self, m: int) -> "Polynomial":
        """x**m * p(1/x): reverse the coefficients into degree m.

        Requires m >= degree(p).
        """
        if m < 0:
            raise ValueError("reciprocal degree must be nonnegative")
        if self.degree > m:
            raise ValueError(f"reciprocal degree {m} is below the polynomial degree {self.degree}")
        out = [Fraction(0)] * (m + 1)
        for i, c in enumerate(self._coeffs):
            out[m - i] = c
        return Polynomial(out)

    def even_odd_split(self) -> Tuple["Polynomial", "Polynomial"]:
        """(E, O) with p(x) = E(x^2) + x * O(x^2)."""
        return Polynomial(self._coeffs[0::2]), Polynomial(self._coeffs[1::2])

    def of_x_squared(self) -> "Polynomial":
        """p(x^2)."""
        return interleave(self, Polynomial())

    # ------------------------------------------------------------------
    # division

    def __divmod__(self, other) -> Tuple["Polynomial", "Polynomial"]:
        other = self._wrap(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial(), self
        rem = list(self._coeffs)
        div = other._coeffs
        lead = div[-1]
        qlen = len(rem) - len(div) + 1
        quo = [Fraction(0)] * qlen
        for i in range(qlen - 1, -1, -1):
            c = rem[i + len(div) - 1] / lead
            if c:
                quo[i] = c
                for j, b in enumerate(div):
                    rem[i + j] -= c * b
        return Polynomial(quo), Polynomial(rem[: len(div) - 1])

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Polynomial":
        """Division that must leave no remainder."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError(f"{other} does not divide {self} exactly")
        return q

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self._coeffs[-1]
        if lead == 1:
            return self
        return Polynomial([c / lead for c in self._coeffs])


def interleave(even: Polynomial, odd: Polynomial) -> Polynomial:
    """Inverse of even_odd_split: returns even(x^2) + x * odd(x^2)."""
    e, o = even.coeffs, odd.coeffs
    out = [Fraction(0)] * max(2 * len(e), 2 * len(o) + 1)
    for i, c in enumerate(e):
        out[2 * i] = c
    for i, c in enumerate(o):
        out[2 * i + 1] = c
    return Polynomial(out)


def primitive_integer_coeffs(p: Polynomial) -> Tuple[int, ...]:
    """Integer coefficient vector of p scaled by a positive rational so the
    entries are coprime integers.  Signs are preserved."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no primitive form")
    return _primitive(_integer_row(p)[0])


# _integer_row and _primitive build tuples from lists, not generators.
# CPython (3.11) builds a tuple from a generator in a 10-slot tuple taken off
# its free list and then resized, so tuples of every other length pile up in
# their free lists, up to 2,000 each, until a full garbage collection: about
# 1.5 MB of resident memory in a long loop of small stability decisions.


def _integer_row(p: Polynomial) -> Tuple[List[int], int]:
    """(row, den) with den the lcm of p's denominators and row = den * p's
    coefficients, as ints."""
    den = _int_lcm(*[c.denominator for c in p.coeffs])
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


def _primitive(ints: List[int]) -> Tuple[int, ...]:
    g = _int_gcd(*ints)
    return tuple([v // g for v in ints])


def _remainder_rows(p: Polynomial, q: Polynomial) -> List[Tuple[int, ...]]:
    """Primitive integer rows of the nonzero ones among p and q, then the
    negated primitive pseudo-remainder of the last two rows, up to the first
    zero remainder.  Each step scales the remainder by a positive integer
    before it subtracts, so a row is a positive multiple of the negated
    rational remainder: its primitive form, which is unique."""
    rows = [primitive_integer_coeffs(f) for f in (p, q) if not f.is_zero]
    while len(rows) > 1:
        r, b = rows[-2], rows[-1]
        s, m = (1, b[-1]) if b[-1] > 0 else (-1, -b[-1])
        while len(r) >= len(b):
            g = _int_gcd(m, r[-1])
            u, v, k = m // g, s * (r[-1] // g), len(r) - len(b)
            r = [u * x for x in r[:k]] + [u * x - v * y for x, y in zip(r[k:-1], b)]
            while r and not r[-1]:
                r.pop()
        if not r:
            break
        rows.append(_primitive([-x for x in r]))
    return rows


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the rationals: the last row of the
    primitive integer remainder sequence of p and q, made monic."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return Polynomial(_remainder_rows(p, q)[-1]).monic()
