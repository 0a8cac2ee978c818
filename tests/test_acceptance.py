"""Acceptance suite.

Each criterion prints one PASS/FAIL line.  All comparisons are exact except
the bisection widths, which are pinned at 10^-6.  The oracle sweep runs type
A to 10 letters and types B and D to rank 10.  Set EULERSTAB_EXTENDED=1 to
raise the oracle sweep to 11 letters and rank 11, the weak-stability sweep
from rank 30 to rank 40, the interlacing checks from rank 30 to rank 50 and
the threshold brackets from n = 24 to n = 40.
"""

import io
import json
import os
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction as F
from math import factorial

from eulerstab.cli import emit, polynomial_from_record, run
from eulerstab.eulerian import (
    FamilyId,
    affine_b,
    eulerian_a,
    eulerian_b,
    eulerian_d,
    family_polynomial,
    half_b,
    half_d,
)
from eulerstab.lab import (
    apply_stability_operator,
    conjectured_threshold,
    critical_k,
    default_distinct_grid,
    default_k_grid,
    operator_symbol_check,
    scan_distinct_roots,
    stability_family,
    verify_d_affine_b,
    verify_family_stability,
    verify_half_reciprocal,
    verify_identities,
)
from eulerstab.oracle import distribution
from eulerstab.polynomial import Polynomial
from eulerstab.stability import (
    STRICTLY_STABLE,
    WEAKLY_STABLE,
    hermite_biehler_weakly_stable,
    is_strictly_hurwitz_stable,
)

P = Polynomial
X = Polynomial.x()

EXTENDED = os.environ.get("EULERSTAB_EXTENDED") == "1"
ORACLE_MAX = 11 if EXTENDED else 10
ORACLE_A_LETTERS = 11 if EXTENDED else 10
WEAK_MAX = 40 if EXTENDED else 30
INTERLACING_MAX = 50 if EXTENDED else 30
THRESHOLD_MAX = 40 if EXTENDED else 24


def _finish(criterion: str, failures: list, started: float) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} [{time.time() - started:.1f}s]")
    assert not failures, failures[:10]


def test_criterion_01_identity_suite():
    started = time.time()
    report = verify_identities(40)
    failures = list(report.failures)
    _finish("1 identity-suite ranks<=40", failures, started)


def test_criterion_02_oracle_equivalence():
    started = time.time()
    failures = []

    def check(label, lhs, rhs):
        if lhs != rhs:
            failures.append(label)

    def oracle(group, stat, n, flt="all"):
        # |B_n| bounds every group of rank n; from B_9 on it exceeds the default
        # budget of 10^8.
        return distribution(group, stat, n, flt, budget=2**n * factorial(n))

    for m in range(1, ORACLE_A_LETTERS + 1):
        check(f"A letters={m}", distribution("A", "des", m), eulerian_a(m - 1))
        check(f"A+ letters={m}", distribution("A", "des", m, "last_positive"), eulerian_a(m - 1))
    for n in range(1, ORACLE_MAX + 1):
        check(f"B n={n}", oracle("B", "des", n), eulerian_b(n))
        check(f"B+ n={n}", oracle("B", "des", n, "last_positive"), half_b(n).plus)
        check(f"B- n={n}", oracle("B", "des", n, "last_negative"), half_b(n).minus)
    for n in range(2, ORACLE_MAX + 1):
        halves = half_d(n)
        affine_halves = oracle("B", "affdes", n, "last_positive") + oracle("B", "affdes", n, "last_negative")
        check(f"affine-B n={n}", oracle("B", "affdes", n), affine_b(n))
        check(f"affine-B+ + affine-B- n={n}", affine_halves, affine_b(n))
        check(f"D n={n}", oracle("D", "des", n), eulerian_d(n))
        check(f"D+ n={n}", oracle("D", "des", n, "last_positive"), halves.plus)
        check(f"D- n={n}", oracle("D", "des", n, "last_negative"), halves.minus)
        check(f"D by des_d n={n}", oracle("D", "des_d", n), eulerian_d(n))
        check(f"D+ by des_d n={n}", oracle("D", "des_d", n, "last_positive"), halves.plus)
        check(f"D- by des_d n={n}", oracle("D", "des_d", n, "last_negative"), halves.minus)
        check(f"2D over B by des_d n={n}", oracle("B", "des_d", n), 2 * eulerian_d(n))
        check(f"2D+ over sign-filtered B n={n}", oracle("B", "des_d", n, "last_positive"), 2 * halves.plus)
        check(f"2D- over sign-filtered B n={n}", oracle("B", "des_d", n, "last_negative"), 2 * halves.minus)
    _finish(f"2 oracle-equivalence A letters<={ORACLE_A_LETTERS}, B/D ranks<={ORACLE_MAX}", failures, started)


def test_criterion_03_weak_stability_sweep():
    started = time.time()
    failures = []
    for n in range(2, WEAK_MAX + 1):
        report = verify_family_stability(n, default_k_grid(n))
        failures.extend(report.failures)
    _finish(f"3 weak-stability 2<=n<={WEAK_MAX}, k in {{-n..5 step 1/2}}", failures, started)


def test_criterion_04_d_affine_interlacing():
    started = time.time()
    failures = []
    for n in range(2, INTERLACING_MAX + 1):
        failures.extend(verify_d_affine_b(n).failures)
    _finish(f"4 D/affine-B real-rootedness+interlacing 2<=n<={INTERLACING_MAX}", failures, started)


def test_criterion_05_half_reciprocal_interlacing():
    started = time.time()
    failures = []
    for n in range(1, INTERLACING_MAX + 1):
        failures.extend(verify_half_reciprocal(n).failures)
    _finish(f"5 half-polynomial reciprocal interlacing n<={INTERLACING_MAX}", failures, started)


def test_criterion_06_threshold_brackets():
    started = time.time()
    failures = []
    width = F(1, 10**6)
    for n in range(3, THRESHOLD_MAX + 1):
        bracket = critical_k(n, width)
        conj = conjectured_threshold(n)
        if not (bracket.lower <= conj <= bracket.upper):
            failures.append(f"n={n}: bracket misses the conjectured threshold")
        if bracket.width > width:
            failures.append(f"n={n}: bracket too wide")
        up = is_strictly_hurwitz_stable(stability_family(n, conj + F(1, 1000)))
        down = is_strictly_hurwitz_stable(stability_family(n, conj - F(1, 1000)))
        if up.verdict != STRICTLY_STABLE:
            failures.append(f"n={n}: not strictly stable just above the threshold")
        if down.verdict == STRICTLY_STABLE:
            failures.append(f"n={n}: strictly stable just below the threshold")
    if conjectured_threshold(3) != F(-4):
        failures.append("n=3 threshold is not exactly -4")
    _finish(f"6 threshold brackets 3<=n<={THRESHOLD_MAX} width<=1e-6", failures, started)


def test_criterion_07_operator_symbol():
    started = time.time()
    failures = []
    rng = random.Random(20260810)
    for n in range(1, 16):
        for _ in range(5):
            k = F(rng.randint(-50, 50), rng.randint(1, 20))
            failures.extend(operator_symbol_check(n, k).failures)
    for n in range(2, 16):
        k = F(rng.randint(-50, 50), rng.randint(1, 20))
        if apply_stability_operator(X * eulerian_a(n - 2), n, k) != stability_family(n, k):
            failures.append(f"n={n}: operator form mismatch")
    _finish("7 operator symbol n<=15", failures, started)


def test_criterion_08_engine_self_consistency():
    started = time.time()
    failures = []
    rng = random.Random(8675309)
    for trial in range(200):
        p = P([1])
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                p = p * P([F(rng.randint(1, 40), rng.randint(1, 8)), 1])
            else:
                b = F(rng.randint(1, 40), rng.randint(1, 8))
                c = F(rng.randint(1, 40), rng.randint(1, 8))
                p = p * P([c, b, 1])
        if is_strictly_hurwitz_stable(p).verdict != STRICTLY_STABLE:
            failures.append(f"trial {trial}: strict verdict wrong on stable product")
        if hermite_biehler_weakly_stable(p).verdict != WEAKLY_STABLE:
            failures.append(f"trial {trial}: weak verdict wrong on stable product")
        bad = p * P([-F(rng.randint(1, 20), rng.randint(1, 4)), 1])
        if is_strictly_hurwitz_stable(bad).verdict == STRICTLY_STABLE:
            failures.append(f"trial {trial}: strict verdict missed the unstable factor")
        if hermite_biehler_weakly_stable(bad).verdict == WEAKLY_STABLE:
            failures.append(f"trial {trial}: weak verdict missed the unstable factor")
    _finish("8 engine self-consistency, 200 random products", failures, started)


def test_criterion_09_distinct_roots_scan():
    started = time.time()
    failures = []
    for n in range(4, 21):
        report = scan_distinct_roots(n, default_distinct_grid(n))
        failures.extend(report.failures)
        if report.checks_run != 24:
            failures.append(f"n={n}: expected 24 non-boundary samples, ran {report.checks_run}")
    _finish("9 distinct-roots region scan 4<=n<=20", failures, started)


def test_criterion_10_serialization():
    started = time.time()
    failures = []
    ranks = {"A": range(0, 11), "B": range(1, 11), "AffineB": range(1, 11),
             "BPlus": range(1, 11), "BMinus": range(1, 11), "D": range(2, 11),
             "DPlus": range(2, 11), "DMinus": range(2, 11)}
    for tag, rng in ranks.items():
        for n in rng:
            poly = family_polynomial(FamilyId(tag, n))
            rec = json.loads(emit(poly, "json", family=tag, n=n))
            if polynomial_from_record(rec) != poly:
                failures.append(f"{tag}({n}): JSON round trip changed the polynomial")

    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run(argv)
        return code, buf.getvalue()

    for argv in (
        ["gen", "--family", "D", "--n", "2", "--n-max", "8", "--format", "json"],
        ["gen", "--family", "BPlus", "--n", "1", "--n-max", "8", "--format", "csv"],
        ["zigzag", "--n", "10", "--format", "json"],
    ):
        if capture(argv) != capture(argv):
            failures.append(f"non-deterministic output for argv {argv}")
    _finish("10 serialization round-trip + determinism", failures, started)
