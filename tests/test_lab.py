"""Verification suite: identities, interlacing theorems, thresholds, scans."""

from fractions import Fraction as F

import pytest

from eulerstab import lab
from eulerstab.eulerian import HalfPair, affine_b, eulerian_a, eulerian_d, half_b, zigzag
from eulerstab.lab import (
    VerificationReport,
    apply_stability_operator,
    conjectured_threshold,
    critical_k,
    default_distinct_grid,
    default_k_grid,
    distinct_root_boundaries,
    merge_reports,
    operator_symbol_check,
    padded_stability_source,
    scan_distinct_roots,
    stability_family,
    verify_d_affine_b,
    verify_family_stability,
    verify_half_reciprocal,
    verify_identities,
)
from eulerstab.polynomial import Polynomial
from eulerstab.stability import STRICTLY_STABLE, is_strictly_hurwitz_stable

P = Polynomial
X = Polynomial.x()


# ---------------------------------------------------------------------------
# identity suite


def test_identity_hand_expansions_rank_2():
    # (x+1)^3 (1+x) - 2x (x+1)^2 expands to x^4 + 2x^3 + 2x^2 + 2x + 1 ...
    padded = padded_stability_source(2)
    assert padded == P([1, 2, 2, 2, 1])
    # ... and equals D_2(x^2) + affine_b(2)(x^2) / (2x)
    assert 2 * X * padded == 2 * X * eulerian_d(2).of_x_squared() + affine_b(2).of_x_squared()


def test_identity_hand_expansion_rank_1():
    # (x+1)^2 = 2x * 1 + (1 + x^2)
    assert P([1, 1]) ** 2 == P([0, 2]) + P([1, 0, 1])


def test_verify_identities_pass():
    report = verify_identities(15)
    assert report.status == "pass"
    assert report.failures == []
    assert report.checks_run > 100


def test_verify_identities_rejects_small_n_max():
    with pytest.raises(ValueError):
        verify_identities(1)


# ---------------------------------------------------------------------------
# D / affine-B interlacing


def test_d_affine_rank2_roots():
    # D_2 = (1+x)^2 has roots {-1, -1}; affine_b(2) = 4x(1+x) has {-1, 0}
    assert eulerian_d(2) == P([1, 1]) ** 2
    assert affine_b(2) == 4 * X * P([1, 1])
    assert verify_d_affine_b(2).status == "pass"


def test_d_affine_small_ranks():
    for n in range(2, 13):
        report = verify_d_affine_b(n)
        assert report.status == "pass", report.failures


def test_d_affine_records_failed_interlacing_precondition(monkeypatch):
    # x^3 + 11x^2 + 11x + 100 is not real-rooted, so `interlaces` rejects it.
    checks = verify_d_affine_b(3).checks_run
    monkeypatch.setattr(lab, "eulerian_d", lambda n: P([100, 11, 11, 1]))
    report = verify_d_affine_b(3)
    assert report.status == "fail" and report.checks_run == checks
    assert (
        3,
        "type-D roots do not interlace the affine type-B roots: "
        "interlacing requires real-rooted polynomials",
    ) in report.failures


def test_d_affine_failed_interlacing_of_real_rooted_polynomials(monkeypatch):
    # (1 + x)^3 is real-rooted with a positive leading coefficient but does
    # not interlace affine_b(3), whose roots are 0 and two irrational ones.
    checks = verify_d_affine_b(3).checks_run
    monkeypatch.setattr(lab, "eulerian_d", lambda n: P([1, 1]) ** 3)
    report = verify_d_affine_b(3)
    assert report.checks_run == checks
    assert (3, "type-D roots do not interlace the affine type-B roots") in report.failures
    assert not any("real-rooted" in message for _, message in report.failures)


def test_d_affine_rejects_rank_1():
    with pytest.raises(ValueError):
        verify_d_affine_b(1)


# ---------------------------------------------------------------------------
# half-polynomial reciprocal interlacing


def test_half_reciprocal_examples():
    # n=2 part (i): 1+3x vs x^2+3x
    assert half_b(2).plus == P([1, 3])
    assert half_b(2).plus.reciprocal(2) == P([0, 3, 1])
    for n in range(1, 13):
        report = verify_half_reciprocal(n)
        assert report.status == "pass", report.failures


def test_half_reciprocal_records_failed_interlacing_precondition(monkeypatch):
    checks = verify_half_reciprocal(2).checks_run
    monkeypatch.setattr(lab, "half_b", lambda n: HalfPair(P([1, 0, 1]), P([1, 0, 1])))
    report = verify_half_reciprocal(2)
    assert report.checks_run == checks
    assert report.failures == [
        (2, "B+ does not interlace its reversal: interlacing requires real-rooted polynomials")
    ]


# ---------------------------------------------------------------------------
# weak stability of the k-family


def test_stability_family_construction():
    # n=3, k=-3: (x+1)(1+4x+x^2) - 3x(1+x) = x^3 + 2x^2 + 2x + 1
    assert stability_family(3, -3) == P([1, 2, 2, 1])
    # n=2, k=0: (x+1)^2
    assert stability_family(2, 0) == P([1, 2, 1])
    # n=3, k=-4: (x+1)(x^2+1)
    assert stability_family(3, -4) == P([1, 1, 1, 1])


@pytest.mark.parametrize("n", range(2, 31))
def test_stability_family_matches_its_product_form(n):
    # The row is built from A's integer rows; pin it to the product form.
    ks = [0, 7, -n, -3 * n - 1, F(-7, 2), F(10**40 + 1, 3**60), F(-(10**30), 10**30 + 7)]
    if n == 2:
        ks += [-1, -2]  # at k = -2 the odd part 2 + k vanishes
        assert stability_family(2, -2).even_odd_split()[1].is_zero
    for k in ks:
        expected = P([1, 1]) * eulerian_a(n - 1) + k * P([0, 1]) * eulerian_a(n - 2)
        assert stability_family(n, k) == expected


def test_stability_family_rejects_float_k_and_low_rank():
    with pytest.raises(TypeError):
        stability_family(5, 0.5)
    for n in (1, 0, -3):
        with pytest.raises(ValueError):
            stability_family(n, 1)


def test_verify_family_stability_small():
    for n in range(2, 9):
        report = verify_family_stability(n, default_k_grid(n))
        assert report.status == "pass", report.failures


def test_family_stability_holds_at_closed_endpoint():
    # the guarantee includes k = -n itself
    for n in range(2, 12):
        assert verify_family_stability(n, [F(-n)]).status == "pass"


def test_family_stability_at_conjectured_boundary():
    # at the conjectured threshold the family is weakly (not strictly) stable
    assert verify_family_stability(3, [F(-4)]).status == "pass"
    assert is_strictly_hurwitz_stable(stability_family(3, F(-4))).verdict != STRICTLY_STABLE


def test_family_stability_fails_below_threshold():
    report = verify_family_stability(3, [F(-5)])
    assert report.status == "fail"


def test_padded_family_is_weakly_stable():
    # multiplying by (x+1)^n preserves weak stability and exercises the
    # higher-degree even/odd splits
    from eulerstab.stability import WEAKLY_STABLE, hermite_biehler_weakly_stable

    onepx = P([1, 1])
    for n in (2, 3, 5, 8, 12):
        for k in (F(-n), F(-n) + F(1, 2), F(0), F(1), F(5)):
            padded = onepx**n * stability_family(n, k)
            assert hermite_biehler_weakly_stable(padded).verdict == WEAKLY_STABLE


# ---------------------------------------------------------------------------
# operator symbol


def test_operator_symbol_n1():
    # both sides equal (x+1)(1+y) at n=1, k=0
    report = operator_symbol_check(1, 0)
    assert report.status == "pass"


def test_operator_symbol_various():
    for n in (2, 3, 5, 8):
        for k in (F(0), F(-7, 2), F(13, 5)):
            assert operator_symbol_check(n, k).status == "pass"


def test_operator_applied_to_family():
    for n in range(2, 16):
        k = F(5, 3)
        assert apply_stability_operator(X * eulerian_a(n - 2), n, k) == stability_family(n, k)


# ---------------------------------------------------------------------------
# threshold bracketing


def test_conjectured_threshold_values():
    assert conjectured_threshold(3) == F(-4)
    assert conjectured_threshold(4) == F(-5)
    assert conjectured_threshold(5) == F(-32, 5)


def test_critical_k_n3_exact():
    bracket = critical_k(3, F(1, 10**6))
    assert bracket.conjectured == -4
    assert bracket.lower <= -4 <= bracket.upper
    assert bracket.width <= F(1, 10**6)
    assert is_strictly_hurwitz_stable(stability_family(3, F(-4) + F(1, 1000))).verdict == STRICTLY_STABLE
    assert is_strictly_hurwitz_stable(stability_family(3, F(-4) - F(1, 1000))).verdict != STRICTLY_STABLE


def test_critical_k_n4_bracket():
    bracket = critical_k(4, F(1, 10**6))
    assert bracket.conjectured == -5
    assert bracket.lower <= -5 <= bracket.upper
    assert bracket.width <= F(1, 10**6)


def test_exact_boundary_is_not_strictly_stable():
    for n in range(3, 11):
        k = conjectured_threshold(n)
        assert is_strictly_hurwitz_stable(stability_family(n, k)).verdict != STRICTLY_STABLE


def test_critical_k_domain():
    with pytest.raises(ValueError):
        critical_k(2, F(1, 100))
    with pytest.raises(ValueError):
        critical_k(5, F(0))


# ---------------------------------------------------------------------------
# distinct-roots scan


def test_distinct_root_boundaries_n4():
    left, right = distinct_root_boundaries(4)
    assert (left, right) == (F(-12), F(-8))
    assert zigzag(5)[5] == 16 and zigzag(3)[3] == 2


def test_scan_n4_sweep():
    ks = [F(-20), F(-13), F(-25, 2), F(-5), F(-4), F(-1)]
    report = scan_distinct_roots(4, ks)
    assert report.status == "pass", report.failures
    assert report.checks_run == 6


def test_scan_k0_is_inside_region():
    for n in (4, 5, 6):
        assert scan_distinct_roots(n, [F(0)]).status == "pass"


def test_scan_boundary_recorded_as_observation():
    report = scan_distinct_roots(4, [F(-12), F(-8)])
    assert report.checks_run == 0
    # one region-summary note plus the two boundary probes
    assert len(report.observations) == 3
    assert report.status == "pass"


def test_scan_default_grid():
    for n in (4, 5, 6, 7):
        report = scan_distinct_roots(n, default_distinct_grid(n))
        assert report.status == "pass", report.failures
        assert report.checks_run == 24
        assert len(report.observations) == 3


def test_scan_domain():
    with pytest.raises(ValueError):
        scan_distinct_roots(3, [F(0)])
    for n in (-1, 0, 1, 3):
        with pytest.raises(ValueError, match=r"^the distinct-roots scan needs n >= 4$"):
            distinct_root_boundaries(n)


# ---------------------------------------------------------------------------
# report plumbing


def test_report_status_and_merge():
    good = VerificationReport("x", (1, 2), checks_run=3)
    bad = VerificationReport("x", (3, 4), failures=[(3, "boom")], checks_run=2)
    assert good.status == "pass" and bad.status == "fail"
    merged = merge_reports("x", [good, bad])
    assert merged.rank_range == (1, 4)
    assert merged.checks_run == 5
    assert merged.status == "fail"


def test_merge_reports_rejects_empty_list():
    with pytest.raises(ValueError, match="^merge_reports needs at least one report$"):
        merge_reports("x", [])
