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
  with the multiplicity of the leading zero coefficients, and one recursive
  bisection isolates the rest, f: f's own Sturm chain counts its distinct
  roots, and the squarefree quotient f / gcd(f, f') gives every sign.  Its
  first splits are the power-of-two magnitude brackets between the Cauchy
  bounds (root magnitudes of the polynomials handled here span many orders,
  so plain midpoint bisection from the bound would waste dozens of Sturm
  evaluations per root); inside one octave it splits at midpoints.  The
  Sturm variation counts at an interval's endpoints travel down the
  recursion, so no point is evaluated twice.  An interval that holds one
  simple root is refined by the sign change alone, with no Sturm count.
  Multiplicities come from the gcd tower a_1 = gcd(f, f'), the chain's last
  row, a_{i+1} = gcd(a_i, a_i') (Musser 1971): a root of multiplicity m is
  a simple root of a_{m-1} (a_0 = f / a_1) and no root of a_m.
* Weak Hurwitz stability is decided by the even/odd interlacing criterion:
  p is weakly stable iff its even and odd parts are real-rooted with only
  nonpositive zeros and the odd part interlaces the even part (with a
  direct image argument handling the degenerate case where one part
  vanishes identically).
* Strict Hurwitz stability is decided by positivity of the Hurwitz
  determinants, computed fraction-free (Bareiss) after clearing
  denominators.

Division of labor: real-rootedness and interlacing, the interlacing step of
weak stability included, are decided by the index of one remainder sequence.
Root isolation, on one Sturm chain and its gcd tower per polynomial, serves
output and the weak-stability certificate, which isolates each part for its
evidence fields and reads the parts' real-rootedness and root signs off
them.  Strict stability always goes through the determinants.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .polynomial import (
    Polynomial,
    Scalar,
    _coerce,
    _remainder_rows,
    primitive_integer_coeffs,
)

WEAKLY_STABLE = "weakly_stable"
STRICTLY_STABLE = "strictly_stable"
UNSTABLE = "unstable"

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Sturm chains


@dataclasses.dataclass(frozen=True)
class SturmChain:
    """Sturm sequence of a nonzero polynomial.

    polys holds p, p', then the negated remainders; rows holds their
    primitive integer coefficient vectors, on which every sign is evaluated.
    The remainders are primitive pseudo-remainders computed on integer rows:
    positive multiples of the rational remainders, so every sign is kept.
    """

    polys: Tuple[Polynomial, ...]
    rows: Tuple[Tuple[int, ...], ...] = dataclasses.field(repr=False, compare=False)

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


def _sign_at(coeffs: Sequence[int], x: Fraction) -> int:
    """Sign of sum(c_i * num^i * den^(d-i)), i.e. of the polynomial at num/den = x."""
    num, den = x.numerator, x.denominator
    acc = coeffs[-1]
    dp = 1
    for c in coeffs[-2::-1]:
        dp *= den
        acc = acc * num + c * dp
    return (acc > 0) - (acc < 0)


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
    return tuple((qi.monic(), i) for i, qi in enumerate(q, 1) if qi.degree > 0)


# ---------------------------------------------------------------------------
# root isolation


@dataclasses.dataclass(frozen=True)
class IsolatedRoot:
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


@dataclasses.dataclass(frozen=True)
class RootIsolation:
    """Sorted, pairwise disjoint isolating locations with multiplicities."""

    roots: Tuple[IsolatedRoot, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def __iter__(self):
        return iter(self.roots)

    def __len__(self) -> int:
        return len(self.roots)


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
    counts travel down the recursion, so no point is evaluated twice.
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

    def bisect(a: Fraction, b: Fraction, va: int, vb: int, i: int, j: int) -> None:
        # (a, b) holds va - vb roots, va and vb being the variation counts at
        # a and b, and lies in [bounds[i], bounds[j]].  Split at the middle
        # bracket while the span covers more than one octave, then at
        # arithmetic midpoints; a root found at the split point becomes an
        # exact point with a root-free gap around it.
        if va == vb:
            return
        if j - i > 1:
            k = (i + j) // 2
            m, start, left, right = bounds[k], abs(bounds[k]) / 4, (i, k), (k, j)
        elif va - vb == 1:
            refine(a, b)
            return
        else:
            m, start, left, right = (a + b) / 2, (b - a) / 4, (i, j), (i, j)
        if _sign_at(row, m):
            d = _ZERO
            vl = vr = var(m)
        else:
            roots.append((m, m))
            d, vl, vr = hug(m, start)
        bisect(a, m - d, va, vl, *left)
        bisect(m + d, b, vr, vb, *right)

    bisect(bounds[0], bounds[-1], var(bounds[0]), var(bounds[-1]), 0, len(bounds) - 1)
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
    z = next(i for i, c in enumerate(p.coeffs) if c)
    f = Polynomial(p.coeffs[z:])
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
    return RootIsolation(tuple(IsolatedRoot(*r) for r in sorted(located)))


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
    """True iff every complex root of p is real.

    Decided on one Sturm chain of p: it ends at gcd(p, p'), so p has
    p.degree - deg(gcd) distinct roots, and they are all real iff the
    Cauchy index Ind(p'/p), which counts the distinct real roots, equals
    that number.
    """
    if p.is_zero:
        raise ValueError("real-rootedness is undefined for the zero polynomial")
    if p.degree < 1:
        return True
    rows = sturm_chain(p).rows
    return _index(rows) == len(rows[0]) - len(rows[-1])


# ---------------------------------------------------------------------------
# interlacing


def _index_interlaces(g: Polynomial, f: Polynomial) -> bool:
    """Whether real-rooted g weakly interlaces real-rooted f, both with
    positive leading coefficients: Ind(g/f) = deg f - deg gcd(f, g)."""
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


@dataclasses.dataclass(frozen=True)
class HermiteBiehlerEvidence:
    """Witness data for a weak-stability verdict: real-root isolations of
    the even and odd parts and the interlacing outcome (None when a
    degenerate split made it inapplicable)."""

    even_part_roots: Optional[RootIsolation]
    odd_part_roots: Optional[RootIsolation]
    interlacing: Optional[bool]
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class HurwitzEvidence:
    determinants: Tuple[Fraction, ...]


@dataclasses.dataclass(frozen=True)
class StabilityCertificate:
    verdict: str
    evidence: Union[HermiteBiehlerEvidence, HurwitzEvidence]


def hermite_biehler_weakly_stable(p: Polynomial) -> StabilityCertificate:
    """Decide weak Hurwitz stability (no zeros with positive real part).

    Writes p(x) = E(x^2) + x*O(x^2) and checks that E and O are real-rooted
    with only nonpositive zeros and that O interlaces E.  When one part
    vanishes identically, p is a dilated copy of the other part composed
    with x^2, so the verdict reduces to the nonpositive-real-roots condition
    on the surviving part alone.
    """
    if p.is_zero:
        ev = HermiteBiehlerEvidence(None, None, None, "zero polynomial vanishes identically")
        return StabilityCertificate(UNSTABLE, ev)
    if p.leading_coefficient < 0:
        p = -p
    even, odd = p.even_odd_split()

    if even.is_zero or odd.is_zero:
        part = even if odd.is_zero else odd
        iso = _locate(part, None)
        ok = iso.total_multiplicity == part.degree and all(r.hi <= 0 for r in iso)
        if odd.is_zero:
            ev = HermiteBiehlerEvidence(iso, None, None, "degenerate split: odd part vanishes")
        else:
            ev = HermiteBiehlerEvidence(None, iso, None, "degenerate split: even part vanishes")
        return StabilityCertificate(WEAKLY_STABLE if ok else UNSTABLE, ev)

    even_iso, odd_iso = _locate(even, None), _locate(odd, None)

    problems = []
    if even.leading_coefficient <= 0 or odd.leading_coefficient <= 0:
        problems.append("an even/odd part has a nonpositive leading coefficient")
    if even_iso.total_multiplicity != even.degree:
        problems.append("even part is not real-rooted")
    if odd_iso.total_multiplicity != odd.degree:
        problems.append("odd part is not real-rooted")
    if any(r.hi > 0 for r in even_iso) or any(r.hi > 0 for r in odd_iso):
        problems.append("a part has a positive real root")
    if odd.degree not in (even.degree - 1, even.degree):
        problems.append("even/odd degrees are incompatible with interlacing")

    interlacing: Optional[bool] = None
    if not problems:
        interlacing = _index_interlaces(odd, even)
        if not interlacing:
            problems.append("odd part does not interlace the even part")

    detail = "; ".join(problems)
    verdict = WEAKLY_STABLE if not problems else UNSTABLE
    ev = HermiteBiehlerEvidence(even_iso, odd_iso, interlacing, detail)
    return StabilityCertificate(verdict, ev)


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
    """Routh-Hurwitz criterion: strictly stable iff every Hurwitz determinant
    is positive.  Requires a positive leading coefficient (normalize first).

    An "unstable" verdict here means only that strict stability fails; the
    polynomial may still be weakly stable (zeros on the imaginary axis).
    """
    if p.is_zero:
        raise ValueError("stability is undefined for the zero polynomial")
    if p.leading_coefficient <= 0:
        raise ValueError("the leading coefficient must be positive; normalize the sign first")
    dets = hurwitz_determinants(p)
    verdict = STRICTLY_STABLE if all(d > 0 for d in dets) else UNSTABLE
    return StabilityCertificate(verdict, HurwitzEvidence(dets))
