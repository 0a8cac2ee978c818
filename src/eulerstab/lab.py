"""Executable verification suite for the polynomial families.

Four kinds of checks live here:

* verify_identities: the cross-family algebraic identities, each verified by
  exact polynomial equality at every applicable rank (fractional forms are
  cleared by multiplying through before comparison).
* verify_d_affine_b / verify_half_reciprocal / verify_family_stability /
  operator_symbol_check: real-rootedness, interlacing, and weak-stability
  statements, each certified through the exact machinery in
  `eulerstab.stability`, plus the two-variable symbol identity of the
  first-order operator behind the stability argument.
* critical_k: rational bisection brackets for the strict-stability threshold
  of (x+1)*A_{n-1} + k*x*A_{n-2} in k; the bracket is compared against the
  conjectured value -2*E_n/E_{n-1} built from the zigzag numbers.
* scan_distinct_roots: per-k verdicts for when A_{n-1} + k*x*A_{n-3} has all
  distinct real zeros, compared against the conjectured region
  k < -n(n-1) or k > -E_{2m+1}/E_{2m-1} with m = floor(n/2).  Boundary
  points are recorded as observations, never judged.

Failures are collected into reports, not raised; only domain errors and the
two "the conjecture itself just broke" conditions (a bad initial bracket, a
non-monotone stability grid) raise.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .eulerian import (
    affine_b,
    eulerian_a,
    eulerian_b,
    eulerian_d,
    half_b,
    half_d,
    zigzag,
)
from .polynomial import Polynomial, Scalar, _coerce
from .stability import (
    STRICTLY_STABLE,
    WEAKLY_STABLE,
    _count_real,
    hermite_biehler_weakly_stable,
    interlaces,
    is_real_rooted,
    is_strictly_hurwitz_stable,
)

_X = Polynomial.x()
_ONE_PLUS_X = Polynomial([1, 1])
_TWO_X = Polynomial([0, 2])


class BracketError(RuntimeError):
    """The initial threshold bracket violated its expected sign conditions
    (which would itself falsify the conjectured threshold)."""


class MonotonicityError(RuntimeError):
    """Strict stability was not monotone in k on the sampled grid, so
    bisection would be meaningless."""


class VerificationReport:
    """One check's outcome over a rank range; each failure is (rank, message)."""

    def __init__(
        self, check_id: str, rank_range: Tuple[int, int], failures: Optional[List[Tuple[int, str]]] = None,
        observations: Optional[List[str]] = None, checks_run: int = 0, elapsed: float = 0.0,
    ) -> None:
        self.check_id = check_id
        self.rank_range = rank_range
        self.failures = [] if failures is None else failures
        self.observations = [] if observations is None else observations
        self.checks_run = checks_run
        self.elapsed = elapsed

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(self) == vars(other)

    @property
    def status(self) -> str:
        return "pass" if not self.failures else "fail"

    def check(self, rank: int, ok: bool, message: str) -> None:
        self.checks_run += 1
        if not ok:
            self.failures.append((rank, message))


class ThresholdBracket(NamedTuple):
    """Rational bracket around the strict-stability threshold in k.

    upper is strictly stable, lower is not; the conjectured threshold is
    -2*E_n/E_{n-1}."""

    n: int
    lower: Fraction
    upper: Fraction
    conjectured: Fraction

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def merge_reports(check_id: str, reports: Sequence[VerificationReport]) -> VerificationReport:
    if not reports:
        raise ValueError("merge_reports needs at least one report")
    merged = VerificationReport(
        check_id,
        (min(r.rank_range[0] for r in reports), max(r.rank_range[1] for r in reports)),
    )
    for r in reports:
        merged.failures.extend(r.failures)
        merged.observations.extend(r.observations)
        merged.checks_run += r.checks_run
        merged.elapsed += r.elapsed
    return merged


# ---------------------------------------------------------------------------
# constructions shared by several checks


def stability_family(n: int, k: Scalar) -> Polynomial:
    """(x+1)*A_{n-1}(x) + k*x*A_{n-2}(x), n >= 2."""
    if n < 2:
        raise ValueError("the stability family needs n >= 2")
    return _ONE_PLUS_X * eulerian_a(n - 1) + _coerce(k) * _X * eulerian_a(n - 2)


def apply_stability_operator(p: Polynomial, n: int, k: Scalar) -> Polynomial:
    """(n*x + n + k)*p - (x^2 - 1)*p'."""
    k = _coerce(k)
    return Polynomial([n + k, n]) * p - Polynomial([-1, 0, 1]) * p.derivative()


def padded_stability_source(n: int) -> Polynomial:
    """(x+1)^(n+1)*A_{n-1} - n*x*(x+1)^n*A_{n-2}; its even/odd split is
    (D_n, affine_b(n)/(2x))."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return _ONE_PLUS_X ** (n + 1) * eulerian_a(n - 1) - n * _X * _ONE_PLUS_X**n * eulerian_a(n - 2)


def conjectured_threshold(n: int) -> Fraction:
    """-2 * E_n / E_{n-1} from the zigzag numbers."""
    table = zigzag(n)
    return -2 * table.ratio(n)


def distinct_root_boundaries(n: int) -> Tuple[Fraction, Fraction]:
    """(-n*(n-1), -E_{2m+1}/E_{2m-1}) with m = floor(n/2)."""
    m = n // 2
    table = zigzag(2 * m + 1)
    return Fraction(-n * (n - 1)), -Fraction(table[2 * m + 1], table[2 * m - 1])


def default_k_grid(n: int) -> List[Fraction]:
    """The half-integer grid -n, -n + 1/2, ..., 5."""
    return [Fraction(-n) + Fraction(i, 2) for i in range(2 * (n + 5) + 1)]


def default_distinct_grid(n: int) -> List[Fraction]:
    """8 interior samples per region segment plus the two boundary points."""
    left, right = distinct_root_boundaries(n)
    step = (right - left) / 9
    ks = [left - j for j in range(8, 0, -1)]
    ks.append(left)
    ks.extend(left + j * step for j in range(1, 9))
    ks.append(right)
    ks.extend(right + j for j in range(1, 9))
    return ks


# ---------------------------------------------------------------------------
# identity suite


def _identity_checks(n: int) -> List[Tuple[str, Polynomial, Polynomial]]:
    out = []
    a_prev = eulerian_a(n - 1)
    pad = _ONE_PLUS_X ** (n + 1) * a_prev
    out.append(
        (
            "even-odd-b",
            pad,
            Polynomial.monomial(1, 2**n) * a_prev.of_x_squared() + eulerian_b(n).of_x_squared(),
        )
    )
    bp, bm = half_b(n)
    out.append(
        (
            "even-odd-half-b",
            _X * (_ONE_PLUS_X**n * a_prev),
            _X * bp.of_x_squared() + bm.of_x_squared(),
        )
    )
    out.append(("half-b-reversal", bm, bp.reciprocal(n)))
    if n < 2:
        return out
    a_prev2 = eulerian_a(n - 2)
    out.append(("d-from-b", eulerian_d(n), eulerian_b(n) - n * 2 ** (n - 1) * _X * a_prev2))
    out.append(("affine-b-formula", affine_b(n), _TWO_X * (2**n * a_prev - n * eulerian_b(n - 1))))
    out.append(
        (
            "even-odd-d-affine",
            _TWO_X * padded_stability_source(n),
            _TWO_X * eulerian_d(n).of_x_squared() + affine_b(n).of_x_squared(),
        )
    )
    dp, dm = half_d(n)
    out.append(("affine-b-from-half-d", affine_b(n), 2 * (_X * dp + dm)))
    out.append(
        (
            "even-odd-half-d",
            _X * (_ONE_PLUS_X**n * a_prev - n * _X * _ONE_PLUS_X ** (n - 1) * a_prev2),
            _X * dp.of_x_squared() + dm.of_x_squared(),
        )
    )
    out.append(("half-d-reversal", dm, dp.reciprocal(n)))
    return out


def verify_identities(n_max: int) -> VerificationReport:
    """Exact polynomial equality of all nine cross-family identities for
    every applicable rank up to n_max."""
    if n_max < 2:
        raise ValueError("identity sweep needs n_max >= 2")
    report = VerificationReport("identities", (1, n_max))
    start = time.perf_counter()
    for n in range(1, n_max + 1):
        for check_id, lhs, rhs in _identity_checks(n):
            report.check(n, lhs == rhs, f"{check_id}: sides differ")
    report.elapsed = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# interlacing and stability theorems


def _interlacing(g: Polynomial, f: Polynomial, message: str) -> Tuple[bool, str]:
    """Whether g interlaces f, with the failure message; a failed precondition
    of `interlaces` (say, f is not real-rooted) fails with its own message."""
    try:
        return interlaces(g, f), message
    except ValueError as exc:
        return False, f"{message}: {exc}"


def verify_d_affine_b(n: int) -> VerificationReport:
    """D_n and the affine type-B polynomial are real-rooted, D_n interlaces
    the affine polynomial, and both drop out of the even/odd split of the
    padded weakly stable polynomial."""
    if n < 2:
        raise ValueError("needs n >= 2")
    report = VerificationReport("d-affine-interlacing", (n, n))
    start = time.perf_counter()
    d = eulerian_d(n)
    ab = affine_b(n)
    report.check(n, is_real_rooted(d), "type-D polynomial is not real-rooted")
    report.check(n, is_real_rooted(ab), "affine type-B polynomial is not real-rooted")
    report.check(n, *_interlacing(d, ab, "type-D roots do not interlace the affine type-B roots"))
    padded = padded_stability_source(n)
    even, odd = padded.even_odd_split()
    report.check(n, even == d, "even part of the padded source is not D_n")
    report.check(n, _TWO_X * odd == ab, "2x * odd part of the padded source is not the affine polynomial")
    cert = hermite_biehler_weakly_stable(padded)
    report.check(
        n,
        cert.verdict == WEAKLY_STABLE,
        f"padded source is not weakly stable: {cert.evidence.detail}",
    )
    report.elapsed = time.perf_counter() - start
    return report


def verify_half_reciprocal(n: int) -> VerificationReport:
    """Each half polynomial interlaces its own degree-n reversal, hence the
    full polynomials B_n (and D_n for n >= 2) are real-rooted."""
    if n < 1:
        raise ValueError("needs n >= 1")
    report = VerificationReport("half-reciprocal", (n, n))
    start = time.perf_counter()
    bp = half_b(n).plus
    report.check(n, *_interlacing(bp, bp.reciprocal(n), "B+ does not interlace its reversal"))
    report.check(n, is_real_rooted(eulerian_b(n)), "B_n is not real-rooted")
    if n >= 2:
        dp = half_d(n).plus
        report.check(n, *_interlacing(dp, dp.reciprocal(n), "D+ does not interlace its reversal"))
        report.check(n, is_real_rooted(eulerian_d(n)), "D_n is not real-rooted")
    report.elapsed = time.perf_counter() - start
    return report


def verify_family_stability(n: int, ks: Sequence[Scalar]) -> VerificationReport:
    """Weak Hurwitz stability of (x+1)*A_{n-1} + k*x*A_{n-2} at each sampled k.

    The guarantee covers k >= -n; callers may probe smaller k, in which case
    a failure is a genuine instability, not a bug.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    report = VerificationReport("family-stability", (n, n))
    start = time.perf_counter()
    for k in ks:
        cert = hermite_biehler_weakly_stable(stability_family(n, k))
        report.check(
            n,
            cert.verdict == WEAKLY_STABLE,
            f"k={_coerce(k)}: not weakly stable ({cert.evidence.detail})",
        )
    report.elapsed = time.perf_counter() - start
    return report


def operator_symbol_check(n: int, k: Scalar) -> VerificationReport:
    """Two-variable symbol identity of T = (n*x + n + k) - (x^2 - 1)*d/dx.

    Expanding sum_j C(n, j) * T(x^j) * y^j must equal
    (x*y + 1)^(n-1) * ((k+n)*(x*y+1) + n*(x+y)), compared coefficient
    polynomial by coefficient polynomial in y.  For n >= 2 the operator
    applied to x*A_{n-2} must reproduce the stability family itself.
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    k = _coerce(k)
    report = VerificationReport("operator-symbol", (n, n))
    start = time.perf_counter()

    lhs = [comb(n, j) * apply_stability_operator(Polynomial.monomial(j), n, k) for j in range(n + 1)]

    # (x*y + 1)^(n-1) has y^j coefficient C(n-1, j) * x^j; multiply by
    # ((k+n)*(x*y+1) + n*(x+y)) = (k+n+n*x) + ((k+n)*x + n)*y.
    base = [comb(n - 1, j) * Polynomial.monomial(j) for j in range(n)]
    m0 = Polynomial([k + n, n])
    m1 = Polynomial([n, k + n])
    rhs = []
    for j in range(n + 1):
        term = Polynomial.zero()
        if j < n:
            term = term + base[j] * m0
        if j >= 1:
            term = term + base[j - 1] * m1
        rhs.append(term)

    for j in range(n + 1):
        report.check(n, lhs[j] == rhs[j], f"k={k}: symbol mismatch at y^{j}")
    if n >= 2:
        report.check(
            n,
            apply_stability_operator(_X * eulerian_a(n - 2), n, k) == stability_family(n, k),
            f"k={k}: operator applied to x*A_(n-2) does not give the stability family",
        )
    report.elapsed = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# threshold bracketing and the distinct-roots scan


def critical_k(n: int, width_target: Fraction) -> ThresholdBracket:
    """Bisect the strict-stability threshold of the family in k.

    Starts from [conjectured - 1, 0], verifies the bracket's sign conditions
    and spot-checks monotonicity of strict stability on a 16-point grid
    (raising BracketError / MonotonicityError on violation), then bisects
    to the requested width.
    """
    if n < 3:
        raise ValueError("threshold bracketing needs n >= 3")
    width_target = _coerce(width_target)
    if width_target <= 0:
        raise ValueError("width target must be positive")

    def strictly_stable(k: Fraction) -> bool:
        return is_strictly_hurwitz_stable(stability_family(n, k)).verdict == STRICTLY_STABLE

    conjectured = conjectured_threshold(n)
    lower, upper = conjectured - 1, Fraction(0)
    if not strictly_stable(upper):
        raise BracketError(f"n={n}: expected strict stability at k={upper}")
    if strictly_stable(lower):
        raise BracketError(f"n={n}: expected strict instability at k={lower}")
    flags = [strictly_stable(lower + Fraction(i, 17) * (upper - lower)) for i in range(1, 17)]
    for a, b in zip(flags, flags[1:]):
        if a and not b:
            raise MonotonicityError(f"n={n}: strict stability is not monotone on the sampled grid")

    while upper - lower > width_target:
        mid = (lower + upper) / 2
        if strictly_stable(mid):
            upper = mid
        else:
            lower = mid
    return ThresholdBracket(n, lower, upper, conjectured)


def scan_distinct_roots(n: int, ks: Sequence[Scalar]) -> VerificationReport:
    """Per-k check that A_{n-1} + k*x*A_{n-3} has all distinct real zeros
    exactly when k is in the conjectured region.

    "All distinct real zeros" is decided on the remainder sequence of p and
    p': its Cauchy index Ind(p'/p) counts the distinct real roots and must
    reach deg(p).
    Boundary values of k are recorded as observations without a pass/fail
    judgment.
    """
    if n < 4:
        raise ValueError("the distinct-roots scan needs n >= 4")
    left, right = distinct_root_boundaries(n)
    report = VerificationReport("distinct-roots", (n, n))
    report.observations.append(
        f"n={n}: conjectured all-distinct-real region is k < {left} or k > {right}"
        f" (stability threshold for comparison: {conjectured_threshold(n)})"
    )
    start = time.perf_counter()
    for raw in ks:
        k = _coerce(raw)
        p = eulerian_a(n - 1) + k * _X * eulerian_a(n - 3)
        distinct_real = _count_real(p) == p.degree
        if k == left or k == right:
            report.observations.append(
                f"n={n} boundary k={k}: all-distinct-real-roots={distinct_real}"
            )
            continue
        expected = k < left or k > right
        report.check(
            n,
            distinct_real == expected,
            f"k={k}: all-distinct-real-roots={distinct_real}, conjectured region says {expected}",
        )
    report.elapsed = time.perf_counter() - start
    return report
