"""Family generators against brute-force oracles and series expansions."""

import sys
import tracemalloc
from fractions import Fraction as F
from itertools import permutations
from math import comb, factorial

import pytest

from eulerstab import eulerian
from eulerstab.eulerian import (
    FAMILIES,
    FamilyId,
    affine_b,
    eulerian_a,
    eulerian_b,
    eulerian_d,
    family_polynomial,
    half_b,
    half_d,
    zigzag,
)
from eulerstab.lab import apply_stability_operator, stability_family
from eulerstab.oracle import distribution
from eulerstab.polynomial import Polynomial

P = Polynomial


def _series_coeffs(num: Polynomial, m: int, count: int):
    """First `count` Taylor coefficients of num / (1 - x)^m, exactly."""
    out = []
    for i in range(count):
        total = F(0)
        for j, c in enumerate(num.coeffs):
            if j > i:
                break
            total += c * comb(i - j + m - 1, m - 1)
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# type A


def test_eulerian_a_small():
    assert eulerian_a(0) == P([1])
    assert eulerian_a(1) == P([1, 1])
    assert eulerian_a(2) == P([1, 4, 1])


def test_eulerian_a_matches_descent_enumeration():
    # independent brute force, letters = m + 1
    for m in range(0, 5):
        hist = [0] * (m + 1)
        for perm in permutations(range(1, m + 2)):
            hist[sum(1 for a, b in zip(perm, perm[1:]) if a > b)] += 1
        assert eulerian_a(m) == P(hist)


def test_eulerian_a_matches_the_product_recurrence(monkeypatch):
    # The module recurrence as polynomial products, the reference for the
    # coefficient recurrence eulerian_a runs on integer rows.
    monkeypatch.setattr(eulerian, "_A_RANKS", {0: P.one()})
    a = P.one()
    for m in range(1, 301):
        a = P([1, m]) * a - P([0, -1, 1]) * a.derivative()
        if m <= 60 or m in (97, 200, 300):
            assert eulerian_a(m) == a, m


def test_eulerian_a_rejects_negative():
    with pytest.raises(ValueError):
        eulerian_a(-1)


def test_eulerian_a_depth_does_not_grow_with_rank(monkeypatch):
    # Build A_300 from an empty memo with only ~150 frames of headroom.
    monkeypatch.setattr(eulerian, "_A_RANKS", {0: P.one()})
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        a300 = eulerian_a(300)
    finally:
        sys.setrecursionlimit(limit)
    assert a300(1) == factorial(301)


def test_eulerian_a_keeps_only_the_ranks_asked_for(monkeypatch):
    # Keeping A_0..A_400 would trace over 100 times A_400's own size.
    monkeypatch.setattr(eulerian, "_A_RANKS", {0: P.one()})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        a400 = eulerian_a(400)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # A_400 as stored: its integer row over its denominator.
    own = sys.getsizeof(a400._row) + sum(map(sys.getsizeof, a400._row)) + sys.getsizeof(a400._den)
    assert held < 3 * own


def test_cold_d_build_runs_each_type_a_step_once(monkeypatch):
    # D_n reads A_(n-1) through B_n and then A_(n-2): building A_(n-1) from
    # A_0 must leave A_(n-2) behind, not a second walk up from A_0.
    monkeypatch.setattr(eulerian, "_A_RANKS", {0: P.one()})
    eulerian_b.cache_clear()
    eulerian_d.cache_clear()
    steps = []
    step = eulerian._a_step
    monkeypatch.setattr(eulerian, "_a_step", lambda row, s: steps.append(s) or step(row, s))
    d40 = eulerian_d(40)
    assert len(steps) == 39
    assert d40(1) == 2**39 * factorial(40)


def test_a_series_expansion():
    # A_{n-1}(x) / (1-x)^(n+1) = sum (i+1)^n x^i
    for n in range(1, 11):
        got = _series_coeffs(eulerian_a(n - 1), n + 1, 30)
        assert got == [F((i + 1) ** n) for i in range(30)]


# ---------------------------------------------------------------------------
# type B


def test_eulerian_b_small():
    assert eulerian_b(1) == P([1, 1])
    assert eulerian_b(2) == P([1, 6, 1])


def test_eulerian_b_coefficient_sum_is_group_order():
    for n in range(1, 9):
        assert eulerian_b(n)(1) == 2**n * factorial(n)


def test_b_series_expansion():
    # B_n(x) / (1-x)^(n+1) = sum (2i+1)^n x^i
    for n in range(1, 11):
        got = _series_coeffs(eulerian_b(n), n + 1, 30)
        assert got == [F((2 * i + 1) ** n) for i in range(30)]


def test_palindromic_families():
    for m in range(0, 10):
        assert eulerian_a(m).reciprocal(max(m, 0)) == eulerian_a(m)
    for n in range(1, 10):
        assert eulerian_b(n).reciprocal(n) == eulerian_b(n)


# ---------------------------------------------------------------------------
# type D and affine B


def test_eulerian_d_small():
    assert eulerian_d(2) == P([1, 2, 1])
    assert eulerian_d(3)(1) == 2**2 * factorial(3)
    for n in range(2, 8):
        assert eulerian_d(n).constant_term == 1
        assert eulerian_d(n)(1) == 2 ** (n - 1) * factorial(n)


def test_affine_b_small():
    assert affine_b(1) == P([0, 2])
    assert affine_b(2) == P([0, 4, 4])
    for n in range(1, 9):
        assert affine_b(n).constant_term == 0
        assert affine_b(n)(1) == 2**n * factorial(n)


def test_rank_domain_errors():
    for fn, bad in ((eulerian_b, 0), (eulerian_d, 1), (affine_b, 0), (half_b, 0), (half_d, 1)):
        with pytest.raises(ValueError):
            fn(bad)


# ---------------------------------------------------------------------------
# half families


def test_half_b_small():
    assert half_b(1) == (P([1]), P([0, 1]))
    plus, minus = half_b(2)
    assert (plus, minus) == (P([1, 3]), P([0, 3, 1]))
    assert plus + minus == eulerian_b(2)


def test_half_d_small():
    plus, minus = half_d(2)
    assert (plus, minus) == (P([1, 1]), P([0, 1, 1]))
    assert 2 * (P([0, 1]) * plus + minus) == affine_b(2)
    for n in range(2, 8):
        assert half_d(n).plus.constant_term == 1


def test_half_b_plus_series_expansion():
    # B_n^+(x) / (1-x)^n = sum ((2i+1)^n - (2i)^n) x^i
    for n in range(1, 11):
        got = _series_coeffs(half_b(n).plus, n, 30)
        assert got == [F((2 * i + 1) ** n - (2 * i) ** n) for i in range(30)]


# ---------------------------------------------------------------------------
# recurrence / operator consistency


def test_recurrence_operator_consistency():
    # (x+1)A_{n-1} + k x A_{n-2} == (n x + n + k)(x A_{n-2}) - (x^2-1)(x A_{n-2})'
    x = P([0, 1])
    for n in range(2, 16):
        for k in (F(0), F(-3), F(7, 2), F(-11, 3), F(5)):
            lhs = stability_family(n, k)
            assert apply_stability_operator(x * eulerian_a(n - 2), n, k) == lhs


def test_all_families_match_oracle_distributions():
    for m in range(1, 6):
        assert distribution("A", "des", m) == eulerian_a(m - 1)
    for n in range(1, 6):
        assert distribution("B", "des", n) == eulerian_b(n)
        assert distribution("B", "des", n, "last_positive") == half_b(n).plus
        assert distribution("B", "des", n, "last_negative") == half_b(n).minus
    for n in range(2, 6):
        assert distribution("D", "des", n) == eulerian_d(n)
        assert distribution("B", "affdes", n) == affine_b(n)
        assert distribution("D", "des", n, "last_positive") == half_d(n).plus
        assert distribution("D", "des", n, "last_negative") == half_d(n).minus


# ---------------------------------------------------------------------------
# zigzag numbers


def _count_updown(m: int) -> int:
    count = 0
    for perm in permutations(range(1, m + 1)):
        if all((perm[i] < perm[i + 1]) == (i % 2 == 0) for i in range(m - 1)):
            count += 1
    return count


def test_zigzag_small():
    assert zigzag(0) == (1,)
    assert zigzag(3) == (1, 1, 1, 2)
    assert zigzag(5)[5] == 16
    assert zigzag(8) == (1, 1, 1, 2, 5, 16, 61, 272, 1385)


def test_zigzag_matches_updown_enumeration():
    table = zigzag(8)
    for m in range(0, 9):
        assert table[m] == _count_updown(m)


def test_zigzag_rejects_negative():
    with pytest.raises(ValueError):
        zigzag(-1)


def test_zigzag_ratio_domain():
    table = zigzag(3)
    assert [table.ratio(n) for n in (1, 2, 3)] == [1, 1, 2]
    # E_(-1) does not exist; the index must not wrap around to E_3.
    with pytest.raises(ValueError, match=r"needs n >= 1, got 0$"):
        table.ratio(0)


# ---------------------------------------------------------------------------
# FamilyId


def test_family_id_domains():
    assert family_polynomial(FamilyId("A", 0)) == P([1])
    assert family_polynomial(FamilyId("D", 4)) == eulerian_d(4)
    assert family_polynomial(FamilyId("BPlus", 2)) == half_b(2).plus
    assert family_polynomial(FamilyId("DMinus", 2)) == half_d(2).minus
    with pytest.raises(ValueError):
        FamilyId("D", 1)
    with pytest.raises(ValueError):
        FamilyId("A", -1)
    with pytest.raises(ValueError):
        FamilyId("Q", 3)


@pytest.mark.parametrize("tag", FAMILIES)
def test_every_family_starts_at_its_lowest_rank(tag):
    # FamilyId and the generator behind the tag agree on the domain.
    lowest, generate = eulerian._FAMILIES[tag]
    assert not family_polynomial(FamilyId(tag, lowest)).is_zero
    with pytest.raises(ValueError, match="needs rank"):
        FamilyId(tag, lowest - 1)
    with pytest.raises(ValueError):
        generate(lowest - 1)
