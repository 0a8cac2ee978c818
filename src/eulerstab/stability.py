"""Exact real-root analysis and Hurwitz stability decisions.

Every decision in this module is made in exact rational arithmetic:

* Sturm chains, whose rows are primitive pseudo-remainders computed on
  integer rows, count distinct real roots in an interval by sign-variation
  differences.  Every sign decision in this module, exact-zero tests
  included, is made on primitive integer rows.
* The Cauchy index Ind(g/f) over the reals is V(-inf) - V(+inf) on the
  signed remainder sequence (f, g, -rem(f, g), ...), read from the signs of
  the leading coefficients and the parities of the degrees alone (Basu,
  Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 2).  With h
  the last row, gcd(f, g), it reaches deg f - deg h exactly when f/h has
  simple real roots only and g/f has a positive residue at each.  So p is
  real-rooted iff Ind(p'/p) = deg p - deg gcd(p, p'), and real-rooted g
  weakly interlaces real-rooted f (positive leading coefficients) iff
  Ind(g/f) = deg f - deg h: a shared real root joins or leaves both root
  lists without breaking the alternation.
* Real roots are isolated, with exact multiplicities, into disjoint open
  rational intervals or exact rational points.  The root at 0 is split off
  with the multiplicity of the leading zero coefficients, and one bisection
  isolates the rest, f: f's own Sturm chain counts its distinct roots, and
  the squarefree quotient f / gcd(f, f') gives every sign.  Its first
  splits are the power-of-two magnitude brackets between the Cauchy
  bounds (root magnitudes of the polynomials handled here span many orders,
  so plain midpoint bisection from the bound would waste dozens of Sturm
  evaluations per root); inside one octave it splits at midpoints.  The
  Sturm variation counts at an interval's endpoints travel with it on a work
  list, so no point is evaluated twice.  An interval that holds one
  simple root is refined by the sign change alone, with no Sturm count.
  Multiplicities come from the gcd tower a_1 = gcd(f, f'), the chain's last
  row, a_{i+1} = gcd(a_i, a_i') (Musser 1971): a root of multiplicity m is
  a simple root of a_{m-1} (a_0 = f / a_1) and no root of a_m.
* Weak Hurwitz stability is decided by the even/odd (Hermite-Biehler)
  criterion on remainder sequences alone: with lc(p) > 0 and
  p(x) = E(x^2) + x*O(x^2), p is weakly stable iff every coefficient is
  nonnegative, E and O are real-rooted, deg O is deg E or deg E - 1 and O
  interlaces E (a real-rooted part with positive leading coefficient has no
  positive root iff its coefficients are nonnegative).  Given the degrees,
  the last two conditions hold iff Ind(O/E) = deg E - deg h and h is
  real-rooted, h = gcd(E, O) being the last row of the same sequence: the
  index makes E/h and O/h real-rooted.  When one part vanishes
  identically, p is weakly stable iff its coefficients are nonnegative and
  the other part is real-rooted.
* Strict Hurwitz stability is decided on the same sequence of (E, O): p is
  strictly stable iff every coefficient is positive and Ind(O/E) = deg E.
  The Hurwitz determinants, computed fraction-free (Bareiss) after clearing
  denominators, are evidence only, built when first read.

Division of labor: real-rootedness, interlacing, weak and strict stability
and the failed conditions a weak-stability certificate names are decided
by the index of remainder sequences.  Root isolation, on one Sturm chain
and its gcd tower per polynomial, serves output (`gen --roots`,
`approximate_real_roots`) and evidence only: a certificate's isolation
fields are built when first read.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .polynomial import (
    Polynomial,
    Scalar,
    _coerce,
    _horner,
    _remainder_rows,
    primitive_integer_coeffs,
)

WEAKLY_STABLE = "weakly_stable"
STRICTLY_STABLE = "strictly_stable"
UNSTABLE = "unstable"

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Sturm chains


class SturmChain(NamedTuple):
    """Sturm sequence of a nonzero polynomial.

    polys holds p, p', then the negated remainders; rows holds their
    primitive integer coefficient vectors, on which every sign is evaluated.
    The remainders are primitive pseudo-remainders computed on integer rows:
    positive multiples of the rational remainders, so every sign is kept.
    Equality and hash read polys alone, which determine the rows.
    """

    polys: Tuple[Polynomial, ...]
    rows: Tuple[Tuple[int, ...], ...]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SturmChain) and self.polys == other.polys

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self.polys)

    def variations(self, point: Scalar) -> int:
        """Sign variations of the chain at a rational point."""
        x = _coerce(point)
        signs = []
        for row in self.rows:
            s = _sign_at(row, x)
            if s:
                signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def count(self, lo: Scalar, hi: Scalar) -> int:
        """Distinct real roots of polys[0] in the open interval (lo, hi)."""
        lo, hi = _coerce(lo), _coerce(hi)
        if not lo < hi:
            raise ValueError("need lo < hi")
        if not _sign_at(self.rows[0], lo) or not _sign_at(self.rows[0], hi):
            raise ValueError("interval endpoints must not be roots")
        return self.variations(lo) - self.variations(hi)


def _sign_at(row: Sequence[int], x: Fraction) -> int:
    """Sign of the integer row's polynomial at x."""
    v = _horner(row, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def sturm_chain(p: Polynomial) -> SturmChain:
    if p.is_zero:
        raise ValueError("Sturm chain requires a nonzero polynomial")
    d = p.derivative()
    rows = _remainder_rows(p, d)
    return SturmChain((p, d, *map(Polynomial, rows[2:]))[: len(rows)], tuple(rows))


def count_real_roots(p: Polynomial, lo: Scalar, hi: Scalar) -> int:
    """Distinct real roots of p in (lo, hi); endpoints must not be roots."""
    return sturm_chain(p).count(lo, hi)


def _index(rows: Sequence[Sequence[int]]) -> int:
    """V(-inf) - V(+inf) of nonzero integer rows (lowest degree first): the
    Cauchy index Ind(rows[1] / rows[0]) when rows is their signed remainder
    sequence.  At +inf a row has the sign of its leading coefficient, at
    -inf that sign flipped for odd degree."""

    def var(signs: List[bool]) -> int:
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return var([(r[-1] > 0) == (len(r) % 2 == 1) for r in rows]) - var([r[-1] > 0 for r in rows])


def _count_real(p: Polynomial) -> int:
    """The number of distinct real roots of nonzero p: Ind(p'/p)."""
    return _index(_remainder_rows(p, p.derivative()))


# ---------------------------------------------------------------------------
# squarefree structure


def _gcd_tower(a: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """The primitive integer rows a_1 = a, a_{i+1} = gcd(a_i, a_i'), ...
    ending at a constant, given a = gcd(f, f') of some f.  A root of f of
    multiplicity m is a root of multiplicity m - i of a_i for i < m and no
    root of a_m (Musser 1971)."""
    tower = [a]
    while len(tower[-1]) > 1:
        a = Polynomial(tower[-1])
        tower.append(_remainder_rows(a, a.derivative())[-1])
    return tower


def squarefree_decompose(p: Polynomial) -> Tuple[Tuple[Polynomial, int], ...]:
    """Decomposition p = lc * prod(q_i^(m_i)) with q_i monic, squarefree,
    pairwise coprime; constants decompose into the empty product.  Read off
    the gcd tower by Musser's rule: with a_0 = p, b_i = a_{i-1} / a_i has the
    roots of multiplicity >= i, and q_i = b_i / b_{i+1} those of exactly i."""
    if p.is_zero:
        raise ValueError("cannot decompose the zero polynomial")
    a = [p, *map(Polynomial, _gcd_tower(_remainder_rows(p, p.derivative())[-1]))]
    b = [u.exact_div(v) for u, v in zip(a, a[1:])] + [Polynomial.one()]
    q = [u.exact_div(v) for u, v in zip(b, b[1:])]
    return tuple([(qi.monic(), i) for i, qi in enumerate(q, 1) if qi.degree > 0])


# ---------------------------------------------------------------------------
# root isolation


class IsolatedRoot(NamedTuple):
    """One distinct real root: either an exact rational point (lo == hi) or
    an open interval (lo, hi) containing exactly one root."""

    lo: Fraction
    hi: Fraction
    multiplicity: int

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


class RootIsolation(tuple):
    """Sorted, pairwise disjoint isolating locations with multiplicities, as
    a tuple of IsolatedRoot."""

    __slots__ = ()

    @property
    def roots(self) -> Tuple[IsolatedRoot, ...]:
        return tuple(self)

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self)


# Stopping width for refining an isolating interval (a, b): refinement
# bisects while b - a exceeds width(a, b).
_Width = Callable[[Fraction, Fraction], Fraction]


def _isolate_squarefree(
    chain: SturmChain, row: Sequence[int], width: Optional[_Width]
) -> List[Tuple[Fraction, Fraction]]:
    """Isolate the real roots of nonconstant f: its Sturm chain counts the
    distinct roots, and row, f's squarefree quotient with a nonzero constant
    term, gives every sign and bound.

    Returns a pair (r, r) for each exact rational root found along the way,
    else an open interval (a, b) holding exactly one root.  When width is
    given, each interval is refined until b - a <= width(a, b) (unless the
    root is found exactly first).  No endpoint is a root: each one passes an
    exact nonzero test, and 0 is never one.  An interval's endpoint variation
    counts travel with it on the work list, so no point is evaluated twice.
    """
    roots: List[Tuple[Fraction, Fraction]] = []
    var = chain.variations

    # Every root satisfies 2^-elo < |root| < 2^ehi, where 2^ehi is the least
    # power of two >= the Cauchy bound 1 + max|row[:-1]| / |row[-1]| and 2^elo
    # that of the reversed row.  The constant term is nonzero, so elo, ehi >= 1.
    def exponent(lead: int, rest: Sequence[int]) -> int:
        return (-(-max(map(abs, rest)) // abs(lead))).bit_length()

    elo, ehi = exponent(row[0], row[1:]), exponent(row[-1], row[:-1])
    mags = [Fraction(1, 1 << e) for e in range(elo, 0, -1)]
    mags += [Fraction(1 << e) for e in range(ehi + 1)]
    bounds = [-m for m in reversed(mags)] + mags

    def hug(t: Fraction, start: Fraction) -> Tuple[Fraction, int, int]:
        # Shrink a symmetric gap around the known root t until it holds only
        # t; return it with the variation counts at its ends.
        d = start
        while True:
            if _sign_at(row, t - d) and _sign_at(row, t + d):
                vl, vr = var(t - d), var(t + d)
                if vl - vr == 1:
                    return d, vl, vr
            d /= 2

    def refine(a: Fraction, b: Fraction) -> None:
        # (a, b) holds one simple root and neither endpoint is a root, so the
        # root lies in (a, m) iff the sign changes between a and m.
        if width is not None:
            sa = _sign_at(row, a)
            while b - a > width(a, b):
                m = (a + b) / 2
                sm = _sign_at(row, m)
                if not sm:
                    roots.append((m, m))
                    return
                a, b = (a, m) if sm != sa else (m, b)
        roots.append((a, b))

    # A work list of intervals (a, b) holding va - vb roots, va and vb being
    # the variation counts at a and b, each lying in [bounds[i], bounds[j]],
    # taken left to right.  Split at the middle bracket while the span covers
    # more than one octave, then at arithmetic midpoints; a root found at the
    # split point becomes an exact point with a root-free gap around it.
    todo = [(bounds[0], bounds[-1], var(bounds[0]), var(bounds[-1]), 0, len(bounds) - 1)]
    while todo:
        a, b, va, vb, i, j = todo.pop()
        if va == vb:
            continue
        if j - i > 1:
            k = (i + j) // 2
            m, start, left, right = bounds[k], abs(bounds[k]) / 4, (i, k), (k, j)
        elif va - vb == 1:
            refine(a, b)
            continue
        else:
            m, start, left, right = (a + b) / 2, (b - a) / 4, (i, j), (i, j)
        if _sign_at(row, m):
            d = _ZERO
            vl = vr = var(m)
        else:
            roots.append((m, m))
            d, vl, vr = hug(m, start)
        todo.append((m + d, b, vr, vb, *right))
        todo.append((a, m - d, va, vl, *left))
    return roots


def _locate(p: Polynomial, width: Optional[_Width]) -> RootIsolation:
    """The real roots of nonzero p, sorted, with their multiplicities.

    The root at 0 takes the multiplicity of p's leading zero coefficients.
    The rest, f, is isolated on its Sturm chain.  Level 0 is f / gcd(f, f'),
    and the levels above are the gcd tower from the chain's last row.  A row
    owns a root (a, b), an exact point when a == b, iff it vanishes at a or
    changes sign between a and b; a root's multiplicity is 1 + the highest
    level owning it, and level 0 owns every root.
    """
    row = primitive_integer_coeffs(p)
    z = next(i for i, c in enumerate(row) if c)
    f = Polynomial(row[z:])
    located = [(_ZERO, _ZERO, z)] if z else []
    if f.degree > 0:
        chain = sturm_chain(f)
        levels = [primitive_integer_coeffs(f.exact_div(chain.polys[-1])), *_gcd_tower(chain.rows[-1])]

        def owns(row: Tuple[int, ...], a: Fraction, b: Fraction) -> bool:
            sa = _sign_at(row, a)
            return not sa or (a < b and sa != _sign_at(row, b))

        for a, b in _isolate_squarefree(chain, levels[0], width):
            owners = [i for i, row in enumerate(levels) if owns(row, a, b)]
            if owners[:1] != [0]:
                raise RuntimeError("internal error: isolated root matches no factor")
            located.append((a, b, 1 + owners[-1]))
    return RootIsolation([IsolatedRoot(*r) for r in sorted(located)])


def isolate_real_roots(
    p: Polynomial, min_width: Optional[Scalar] = Fraction(1, 256)
) -> RootIsolation:
    """Isolate the real roots of p with multiplicities.

    min_width=None skips width refinement and stops as soon as the
    locations are pairwise isolating; otherwise it must be a positive int or
    Fraction.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("root isolation requires a nonconstant polynomial")
    if min_width is not None and _coerce(min_width) <= 0:
        raise ValueError(f"min_width must be positive or None, got {min_width}")
    return _locate(p, None if min_width is None else lambda a, b: min_width)


def approximate_real_roots(p: Polynomial, digits: int = 20) -> List[Tuple[Fraction, int]]:
    """(midpoint, multiplicity) pairs for the real roots of p, with each
    isolation interval refined below the root magnitude times 10^-(digits+1),
    so the midpoint carries `digits` significant decimal digits.

    The midpoints are approximations; every decision elsewhere stays exact.
    """
    if p.is_zero or p.degree < 1:
        raise ValueError("root isolation requires a nonconstant polynomial")
    if digits < 1:
        raise ValueError(f"digits must be at least 1, got {digits}")
    rel = Fraction(1, 10 ** (digits + 1))
    iso = _locate(p, lambda a, b: max(abs(a), abs(b)) * rel)
    return [(r.midpoint, r.multiplicity) for r in iso]


def is_real_rooted(p: Polynomial) -> bool:
    """True iff every complex root of p is real: the Cauchy index Ind(p'/p)
    counts p's distinct real roots, and must reach p.degree - deg gcd(p, p'),
    the number of its distinct roots."""
    if p.is_zero:
        raise ValueError("real-rootedness is undefined for the zero polynomial")
    return p.degree < 1 or _index_interlaces(p.derivative(), p)


# ---------------------------------------------------------------------------
# interlacing


def _index_interlaces(g: Polynomial, f: Polynomial) -> bool:
    """Ind(g/f) = deg f - deg gcd(f, g).  For real-rooted f and g with
    positive leading coefficients, g weakly interlaces f; for g = f', f is
    real-rooted."""
    rows = _remainder_rows(f, g)
    return _index(rows) == len(rows[0]) - len(rows[-1])


def interlaces(g: Polynomial, f: Polynomial) -> bool:
    """True iff the roots of g weakly interlace the roots of f
    (... <= s_2 <= r_2 <= s_1 <= r_1, multiplicities included, shared roots
    allowed).

    Preconditions, enforced: both real-rooted with positive leading
    coefficients and deg(g) in {deg(f) - 1, deg(f)}.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("interlacing is undefined for the zero polynomial")
    if f.leading_coefficient <= 0 or g.leading_coefficient <= 0:
        raise ValueError("interlacing requires positive leading coefficients")
    if g.degree not in (f.degree - 1, f.degree):
        raise ValueError("degree of g must be deg(f) or deg(f) - 1")
    if not (is_real_rooted(f) and is_real_rooted(g)):
        raise ValueError("interlacing requires real-rooted polynomials")
    return _index_interlaces(g, f)


# ---------------------------------------------------------------------------
# stability certificates


# The evidence classes add no __slots__: cached_property keeps what it
# builds in the instance dict.
class _HermiteBiehlerFields(NamedTuple):
    even_part: Optional[Polynomial]
    odd_part: Optional[Polynomial]
    interlacing: Optional[bool]
    detail: str = ""


class HermiteBiehlerEvidence(_HermiteBiehlerFields):
    """Witness data for a weak-stability verdict: the even and odd parts
    (None for a part that vanishes identically), the interlacing outcome
    (None when a degenerate split or an earlier failure made it
    inapplicable) and the failed conditions.  The parts' real-root
    isolations, even_part_roots and odd_part_roots, are built when first
    read; no verdict needs them."""

    @functools.cached_property
    def even_part_roots(self) -> Optional[RootIsolation]:
        return None if self.even_part is None else _locate(self.even_part, None)

    @functools.cached_property
    def odd_part_roots(self) -> Optional[RootIsolation]:
        return None if self.odd_part is None else _locate(self.odd_part, None)


class _HurwitzFields(NamedTuple):
    polynomial: Polynomial


class HurwitzEvidence(_HurwitzFields):
    """Witness data for a strict-stability verdict: the polynomial.  Its
    Hurwitz determinants are built when first read; no verdict needs them."""

    @functools.cached_property
    def determinants(self) -> Tuple[Fraction, ...]:
        return hurwitz_determinants(self.polynomial)


class StabilityCertificate(NamedTuple):
    verdict: str
    evidence: Union[HermiteBiehlerEvidence, HurwitzEvidence]


def hermite_biehler_weakly_stable(p: Polynomial) -> StabilityCertificate:
    """Decide weak Hurwitz stability (no zeros with positive real part).

    Normalizes the leading coefficient to be positive and writes
    p(x) = E(x^2) + x*O(x^2).  Then p is weakly stable iff every coefficient
    is nonnegative, E and O are real-rooted, deg O is deg E or deg E - 1 and
    O interlaces E: a real-rooted part with positive leading coefficient has
    no positive root iff its coefficients are nonnegative.  The last two
    conditions are read off the remainder sequence of E and O alone.  When
    one part vanishes identically, p is a dilated copy of the other part
    composed with x^2, so the verdict reduces to nonnegative coefficients
    and a real-rooted surviving part.  A failing verdict names every failed
    condition in the detail, each read from remainder sequences too.
    """
    if p.is_zero:
        ev = HermiteBiehlerEvidence(None, None, None, "zero polynomial vanishes identically")
        return StabilityCertificate(UNSTABLE, ev)
    if p.leading_coefficient < 0:
        p = -p
    even, odd = p.even_odd_split()
    nonnegative = min(primitive_integer_coeffs(p)) >= 0

    if even.is_zero or odd.is_zero:
        ok = nonnegative and is_real_rooted(even if odd.is_zero else odd)
        if odd.is_zero:
            ev = HermiteBiehlerEvidence(even, None, None, "degenerate split: odd part vanishes")
        else:
            ev = HermiteBiehlerEvidence(None, odd, None, "degenerate split: even part vanishes")
        return StabilityCertificate(WEAKLY_STABLE if ok else UNSTABLE, ev)

    interlacing: Optional[bool] = None
    compatible = odd.degree in (even.degree - 1, even.degree)
    if nonnegative and compatible:
        # O interlaces E iff Ind(O/E) = deg E - deg h, h = gcd(E, O).  Then
        # E/h has simple real roots only and O/h a root between any two of
        # them, so O/h is real-rooted too: E and O are real-rooted iff h is.
        rows = _remainder_rows(even, odd)
        interlacing = _index(rows) == len(rows[0]) - len(rows[-1])
        if interlacing and is_real_rooted(Polynomial(rows[-1])):
            return StabilityCertificate(WEAKLY_STABLE, HermiteBiehlerEvidence(even, odd, True))

    # A part q has a root r > 0 iff q(y^2) has the real roots +-sqrt(r).  With
    # no other failure p's coefficients are nonnegative, so the index was read.
    problems = []
    if even.leading_coefficient <= 0 or odd.leading_coefficient <= 0:
        problems.append("an even/odd part has a nonpositive leading coefficient")
    if not is_real_rooted(even):
        problems.append("even part is not real-rooted")
    if not is_real_rooted(odd):
        problems.append("odd part is not real-rooted")
    if any(_count_real(q.of_x_squared()) > (q.constant_term == 0) for q in (even, odd)):
        problems.append("a part has a positive real root")
    if not compatible:
        problems.append("even/odd degrees are incompatible with interlacing")
    if problems:
        interlacing = None
    elif not interlacing:
        problems.append("odd part does not interlace the even part")

    verdict = UNSTABLE if problems else WEAKLY_STABLE
    return StabilityCertificate(verdict, HermiteBiehlerEvidence(even, odd, interlacing, "; ".join(problems)))


# ---------------------------------------------------------------------------
# Hurwitz determinants


def _bareiss_det(rows: List[List[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - mik * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def hurwitz_determinants(p: Polynomial) -> Tuple[Fraction, ...]:
    """The leading principal minors of the Hurwitz matrix of p.

    With p(z) = sum(a_{n-k} z^k) (a_0 the leading coefficient), the k-th
    matrix has entry (i, j) = a_{2j-i} (1-indexed, a_m = 0 outside 0..n).
    Determinants are computed fraction-free over the integers on the
    primitive integer coefficients b = scale * a, then rescaled by scale^-k.
    """
    if p.is_zero:
        raise ValueError("Hurwitz determinants require a nonzero polynomial")
    n = p.degree
    b = primitive_integer_coeffs(p)[::-1]  # b_0 .. b_n
    scale = b[0] / p.leading_coefficient

    def entry(i: int, j: int) -> int:
        m = 2 * j - i
        return b[m] if 0 <= m <= n else 0

    dets = []
    for k in range(1, n + 1):
        rows = [[entry(i, j) for j in range(1, k + 1)] for i in range(1, k + 1)]
        dets.append(_bareiss_det(rows) / scale**k)
    return tuple(dets)


def is_strictly_hurwitz_stable(p: Polynomial) -> StabilityCertificate:
    """Decide strict Hurwitz stability (every zero in the open left half
    plane).  Requires a positive leading coefficient (normalize first).

    With p(x) = E(x^2) + x*O(x^2), p is strictly stable iff every
    coefficient is positive and Ind(O/E) = deg E on the remainder sequence
    of E and O (Hermite-Biehler): positive coefficients force deg O to be
    deg E or deg E - 1, and that index makes gcd(E, O) constant and the
    roots of E and O simple, negative and strictly interlacing.

    An "unstable" verdict here means only that strict stability fails; the
    polynomial may still be weakly stable (zeros on the imaginary axis).
    """
    if p.is_zero:
        raise ValueError("stability is undefined for the zero polynomial")
    if p.leading_coefficient <= 0:
        raise ValueError("the leading coefficient must be positive; normalize the sign first")
    even, odd = p.even_odd_split()
    stable = min(primitive_integer_coeffs(p)) > 0 and _index(_remainder_rows(even, odd)) == even.degree
    return StabilityCertificate(STRICTLY_STABLE if stable else UNSTABLE, HurwitzEvidence(p))
