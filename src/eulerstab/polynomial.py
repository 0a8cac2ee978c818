"""Dense univariate polynomials with exact rational coefficients.

``Polynomial([1, 4, 1])`` is ``1 + 4x + x^2``: ints or `fractions.Fraction`
coefficients, lowest degree first.  It is stored as one integer row and one
positive denominator, coefficient i being row[i] / den (FLINT's
``fmpq_poly`` layout), in canonical form: no trailing zero in the row (the
zero polynomial is the empty row over 1) and no common factor of den and the
row's content.  So structural equality coincides with mathematical equality,
which the identity checks and stability decisions rely on; nothing here
touches floating point, and floats are rejected, not silently truncated.

Every ring operation and evaluation runs on Python ints, and output prints
from the row's decimal strings (`coeff_strings`); `coeffs` builds canonical
Fractions only when it is read.  Only division runs on Fractions.  The gcd
and Sturm paths share one primitive remainder sequence on integer rows
(`_remainder_rows`), each pseudo-division run in place on one integer list.

The degree of the zero polynomial is the distinguished marker
``NEG_INFINITY`` (``float("-inf")``), which compares below every integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from typing import Iterable, List, Sequence, Tuple, Union

Scalar = Union[int, Fraction]

#: Degree of the zero polynomial.
NEG_INFINITY = float("-inf")


def _ratio(value: Scalar) -> Tuple[int, int]:
    """(numerator, denominator) of an int or Fraction; floats are rejected."""
    if isinstance(value, (int, Fraction)):
        return value.numerator, value.denominator
    raise TypeError(f"expected an int or Fraction, got {value!r}")


def _coerce(value: Scalar) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


def _terms_text(coeffs: Sequence[str]) -> str:
    """``1 + 4*x + x^2`` from coefficient strings, lowest degree first: "0"
    terms skipped, a unit before x printed as ``x`` or ``-x``; "0" if none."""
    out = []
    for i, c in enumerate(coeffs):
        if c == "0":
            continue
        if i:
            xs = "x" if i == 1 else f"x^{i}"
            c = xs if c == "1" else f"-{xs}" if c == "-1" else f"{c}*{xs}"
        if out:
            c = f" - {c[1:]}" if c[0] == "-" else f" + {c}"
        out.append(c)
    return "".join(out) or "0"


class Polynomial:
    """Immutable dense polynomial over the rationals."""

    __slots__ = ("_row", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        pairs = [_ratio(c) for c in coeffs]
        den = _int_lcm(*[d for _, d in pairs])
        self._set([n * (den // d) for n, d in pairs], den)

    def _set(self, row: Sequence[int], den: int) -> "Polynomial":
        """Store row[i] / den, for a positive den, in canonical form: trailing
        zeros stripped, row and den divided by their common factor."""
        end = len(row)
        while end and not row[end - 1]:
            end -= 1
        g = _int_gcd(den, *row) if end else den
        self._row = tuple([c // g for c in row[:end]]) if g > 1 else tuple(row[:end])
        self._den = den // g
        return self

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
        """The coefficients as canonical Fractions, built on each read."""
        den = self._den
        return tuple([Fraction(c, den) for c in self._row])

    def coeff_strings(self) -> List[str]:
        """`str` of each of `coeffs`, which `str`, `repr` and the CLI's
        records print; an integer row is printed without Fractions."""
        if self._den == 1:
            return [str(c) for c in self._row]
        return [str(c) for c in self.coeffs]

    @property
    def degree(self):
        """Degree; NEG_INFINITY for the zero polynomial."""
        return len(self._row) - 1 if self._row else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self._row

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._row:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self._row[-1], self._den)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._row[0], self._den) if self._row else Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._row == other._row and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._row, self._den))

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(self.coeff_strings())}])"

    def __str__(self) -> str:
        """The text ``1 + 4*x + x^2``, printed from `coeff_strings`."""
        return _terms_text(self.coeff_strings())

    # ------------------------------------------------------------------
    # ring operations

    def _wrap(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        num, den = _ratio(other)
        return _from_row([num], den)

    def __add__(self, other) -> "Polynomial":
        other = self._wrap(other)
        a, b = [c * other._den for c in self._row], [c * self._den for c in other._row]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return _from_row(a, self._den * other._den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _from_row([-c for c in self._row], self._den)

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._wrap(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._wrap(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._wrap(other)
        a, b = self._row, other._row
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        return _from_row(out, self._den * other._den)

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
        """Exact evaluation by Horner's rule on the integer row."""
        num, den = _ratio(point)
        row = self._row
        return Fraction(_horner(row, num, den), self._den * den ** (len(row) - 1)) if row else Fraction(0)

    # ------------------------------------------------------------------
    # calculus and reshaping

    def derivative(self) -> "Polynomial":
        return _from_row([i * c for i, c in enumerate(self._row)][1:], self._den)

    def reciprocal(self, m: int) -> "Polynomial":
        """x**m * p(1/x): reverse the coefficients into degree m.

        Requires m >= degree(p).
        """
        if m < 0:
            raise ValueError("reciprocal degree must be nonnegative")
        if self.degree > m:
            raise ValueError(f"reciprocal degree {m} is below the polynomial degree {self.degree}")
        return _from_row([0] * (m + 1 - len(self._row)) + list(self._row[::-1]), self._den)

    def even_odd_split(self) -> Tuple["Polynomial", "Polynomial"]:
        """(E, O) with p(x) = E(x^2) + x * O(x^2)."""
        return _from_row(self._row[0::2], self._den), _from_row(self._row[1::2], self._den)

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
        rem = list(self.coeffs)
        div = other.coeffs
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
        lead = self._row[-1]
        # p / lc(p) is row / lead: the denominator cancels.
        s = 1 if lead > 0 else -1
        return _from_row([s * c for c in self._row], s * lead)


def interleave(even: Polynomial, odd: Polynomial) -> Polynomial:
    """Inverse of even_odd_split: returns even(x^2) + x * odd(x^2)."""
    e, o = even._row, odd._row
    out = [0] * max(2 * len(e), 2 * len(o) + 1)
    out[0 : 2 * len(e) : 2] = [c * odd._den for c in e]
    out[1 : 2 * len(o) : 2] = [c * even._den for c in o]
    return _from_row(out, even._den * odd._den)


def primitive_integer_coeffs(p: Polynomial) -> Tuple[int, ...]:
    """Integer coefficient vector of p scaled by a positive rational so the
    entries are coprime integers.  Signs are preserved."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no primitive form")
    return _primitive(p._row)


# _set and _primitive build tuples from lists, not generators.  CPython
# (3.11) builds a tuple from a generator in a 10-slot tuple taken off its free
# list and then resized, so tuples of every other length pile up in their
# free lists, up to 2,000 each, until a full garbage collection: about 1.5 MB
# of resident memory in a long loop of small stability decisions.


def _from_row(row: Sequence[int], den: int = 1) -> Polynomial:
    """The polynomial with coefficients row[i] / den, for a positive den."""
    return Polynomial.__new__(Polynomial)._set(row, den)


def _horner(row: Sequence[int], num: int, den: int) -> int:
    """den^d * r(num/den) for the nonempty integer row r of degree d: its
    sign is r's sign at num/den, for a positive den."""
    acc = row[-1]
    dp = 1
    for c in row[-2::-1]:
        dp *= den
        acc = acc * num + c * dp
    return acc


def _primitive(ints: Sequence[int]) -> Tuple[int, ...]:
    g = _int_gcd(*ints)
    return tuple(ints) if g == 1 else tuple([v // g for v in ints])


def _remainder_rows(p: Polynomial, q: Polynomial) -> List[Tuple[int, ...]]:
    """Primitive integer rows of the nonzero ones among p and q, then the
    negated primitive pseudo-remainder of the last two rows, up to the first
    zero remainder.  Each pseudo-division runs in place on one list, the
    negated dividend, top coefficient c first: the part below c is scaled by
    m / gcd(m, c), m the divisor's |leading coefficient|, only when that is
    not 1, and a multiple of the divisor clears c.  With every scale positive,
    a row is the unique primitive form of the negated rational remainder."""
    rows = [primitive_integer_coeffs(f) for f in (p, q) if not f.is_zero]
    while len(rows) > 1:
        r, b = [-x for x in rows[-2]], rows[-1]
        s, m = (1, b[-1]) if b[-1] > 0 else (-1, -b[-1])
        d = len(b) - 1
        for i in range(len(r) - 1, d - 1, -1):
            if r[i]:
                g = _int_gcd(m, r[i])
                u, v, k = m // g, s * (r[i] // g), i - d
                if u != 1:
                    r[:i] = [u * x for x in r[:i]]
                for j in range(d):
                    r[k + j] -= v * b[j]
        del r[d:]
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        rows.append(_primitive(r))
    return rows


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor over the rationals: the last row of the
    primitive integer remainder sequence of p and q, made monic."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return _from_row(_remainder_rows(p, q)[-1]).monic()
