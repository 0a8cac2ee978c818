"""Window-notation statistics and exhaustive distributions."""

from collections import Counter
from itertools import permutations, product, starmap
from math import factorial
from operator import gt, itemgetter

import pytest

from eulerstab import oracle
from eulerstab.eulerian import affine_b, eulerian_b, eulerian_d, half_d
from eulerstab.oracle import (
    FILTERS,
    GROUPS,
    STATS,
    BudgetExceededError,
    distribution,
    group_order,
)
from eulerstab.polynomial import Polynomial

P = Polynomial


# Naive reference statistics on plain window tuples, written from the
# padded-window rules in the oracle's module notes.
def des_a(w):
    return sum(a > b for a, b in zip(w, w[1:]))


def des_b(w):
    return des_a((0, *w))


def des_d(w):
    return des_a((-w[1], *w))


def affdes_b(w):
    a, b = w[0], w[1]
    return des_b(w) + ((a if abs(a) < abs(b) else b) > 0)


# The reference statistics on hand-checked windows.
def test_des_a():
    assert [des_a(w) for w in ((1, 2, 3), (3, 2, 1), (2, 1, 3))] == [0, 2, 1]


def test_des_b():
    assert [des_b(w) for w in ((1, 2), (-1, -2), (2, -1), (-2, 1))] == [0, 2, 1, 1]


def test_des_d():
    assert [des_d(w) for w in ((1, 2), (-1, -2))] == [0, 2]


def test_affdes_b():
    assert [affdes_b(w) for w in ((1, 2), (-1, 2))] == [1, 1]


def test_rank2_distributions():
    assert distribution("B", "des", 2) == P([1, 6, 1])
    assert distribution("D", "des", 2) == P([1, 2, 1])
    assert distribution("B", "affdes", 2) == P([0, 4, 4])
    assert distribution("B", "des", 2, "last_positive") == P([1, 3])
    assert distribution("A", "des", 3) == P([1, 4, 1])


def test_distribution_matches_families():
    for n in range(2, 6):
        assert distribution("B", "des", n) == eulerian_b(n)
        assert distribution("D", "des", n) == eulerian_d(n)
        assert distribution("B", "affdes", n) == affine_b(n)
        assert distribution("B", "des_d", n, "last_positive") == 2 * half_d(n).plus
        assert distribution("B", "des_d", n, "last_negative") == 2 * half_d(n).minus


def test_sign_flip_involution_preserves_last_entry_class():
    # flipping the sign of the first entry is an involution that never moves
    # an element across the sign-of-last-entry classes (n >= 2)
    from itertools import permutations

    for n in (2, 3, 4):
        windows = []
        for perm in permutations(range(1, n + 1)):
            for mask in range(1 << n):
                windows.append(tuple(-v if (mask >> i) & 1 else v for i, v in enumerate(perm)))
        flip = lambda w: (-w[0],) + w[1:]
        for w in windows:
            assert flip(flip(w)) == w
            assert (flip(w)[-1] > 0) == (w[-1] > 0)
        assert sorted(flip(w) for w in windows) == sorted(windows)


def test_global_negation_complements_degrees():
    # negating every entry swaps the last-entry classes and complements the
    # descent statistic, i.e. the distributions are degree reversals
    for n in range(2, 6):
        pos = distribution("B", "des", n, "last_positive")
        neg = distribution("B", "des", n, "last_negative")
        assert neg == pos.reciprocal(n)
        pos_d = distribution("D", "des", n, "last_positive")
        neg_d = distribution("D", "des", n, "last_negative")
        assert neg_d == pos_d.reciprocal(n)


def test_group_order():
    assert group_order("A", 4) == 24
    assert group_order("B", 3) == 48
    assert group_order("D", 3) == 24
    assert group_order("D", 2) == 4


@pytest.mark.parametrize("group, n", [("A", 0), ("B", 0), ("D", 1), ("D", 0), ("B", -1)])
def test_group_order_rejects_rank_below_minimum(group, n):
    with pytest.raises(ValueError, match="needs rank"):
        group_order(group, n)


def test_group_order_rejects_unknown_group():
    with pytest.raises(ValueError, match="unknown group"):
        group_order("Z", 3)


# (group, stat) -> (per-element statistic, lowest rank); type A is unsigned.
_NAIVE_STATS = {
    ("A", "des"): (des_a, 1),
    ("B", "des"): (des_b, 1),
    ("B", "des_d"): (des_d, 2),
    ("B", "affdes"): (affdes_b, 2),
    ("D", "des"): (des_d, 2),
    ("D", "des_d"): (des_d, 2),
}


def _naive_elements(group, n):
    if group == "A":
        return list(permutations(range(1, n + 1)))
    elements = [
        tuple(s * v for s, v in zip(signs, perm))
        for perm in permutations(range(1, n + 1))
        for signs in product((1, -1), repeat=n)
    ]
    return [w for w in elements if group == "B" or sum(v < 0 for v in w) % 2 == 0]


@pytest.mark.parametrize("n", range(1, 7))
def test_distribution_matches_naive_window_enumeration(n):
    # Builds every window independently of the oracle's lanes and descent
    # classes, once per group, and counts the reference statistics.
    elements = {}
    for (group, stat), (statistic, lowest) in _NAIVE_STATS.items():
        if n < lowest:
            continue
        if group not in elements:
            elements[group] = _naive_elements(group, n)
            assert len(elements[group]) == group_order(group, n)
        counted = [(statistic(w), w[-1] > 0) for w in elements[group]]
        for flt in FILTERS:
            hist = Counter(
                k for k, last_positive in counted if flt == "all" or last_positive == (flt == "last_positive")
            )
            want = P([hist[k] for k in range(n + 2)])
            got = distribution(group, stat, n, flt)
            assert got == want, (group, stat, n, flt)
            order = group_order(group, n)
            if group == "A":
                order = {"all": order, "last_positive": order, "last_negative": 0}[flt]
            elif flt != "all":
                order //= 2
            assert sum(got.coeffs) == order, (group, stat, n, flt)


def _reference_lanes(n):
    # One pass over the permutations per adjacent pair: lane t, counted from
    # the top bit, is 1 where the t-th permutation descends at that pair.
    to_ascii = bytes.maketrans(b"\0\1", b"01")
    pairs = (map(itemgetter(i, i + 1), permutations(range(1, n + 1))) for i in range(n - 1))
    return [int(bytes(starmap(gt, row)).translate(to_ascii), 2) for row in pairs]


@pytest.mark.parametrize("n", range(1, 10))
def test_descent_lanes_match_permutation_comparisons(n):
    assert oracle._descent_lanes(n) == _reference_lanes(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_descent_classes_match_permutation_descent_sets(n):
    # Bit i of a descent set is set when the permutation descends at (i, i + 1).
    want = Counter(
        sum(1 << i for i in range(n - 1) if perm[i] > perm[i + 1]) for perm in permutations(range(1, n + 1))
    )
    assert oracle._descent_classes(n) == [want[cls] for cls in range(1 << (n - 1))]


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        distribution("B", "des", 10, budget=1000)


@pytest.mark.parametrize("n", range(1, 9))
def test_packed_classes_hold_the_descent_classes_one_per_slot(n):
    oracle._packed_classes.cache_clear()
    w, slot, packed = oracle._packed_classes(n)
    assert slot % 8 == 0 and slot >= (n + 2) * w
    assert 2**w > 2**n * factorial(n)
    classes = oracle._descent_classes(n)
    assert packed >> slot * len(classes) == 0
    assert [packed >> slot * j & (1 << slot) - 1 for j in range(len(classes))] == classes


# Criterion c2's calls at rank 6: type A at 6 letters, then every B and D row.
_C2_RANK6_CALLS = [("A", "des", "all"), ("A", "des", "last_positive")] + [
    (group, stat, flt)
    for group, stat in (("B", "des"), ("B", "affdes"), ("D", "des"), ("D", "des_d"), ("B", "des_d"))
    for flt in FILTERS
]


def test_packed_classes_are_built_once_per_rank(monkeypatch):
    oracle._packed_classes.cache_clear()
    built = []
    descent_classes = oracle._descent_classes
    monkeypatch.setattr(oracle, "_descent_classes", lambda n: built.append(n) or descent_classes(n))
    assert len(_C2_RANK6_CALLS) == 17
    for group, stat, flt in _C2_RANK6_CALLS:
        distribution(group, stat, 6, flt)
    assert built == [6]


def test_budget_guard_holds_after_the_cache_is_filled():
    oracle._packed_classes.cache_clear()
    assert distribution("B", "des", 8) == eulerian_b(8)
    with pytest.raises(BudgetExceededError, match="group order 10321920 exceeds the enumeration budget 1000"):
        distribution("B", "des", 8, budget=1000)


def test_refused_call_builds_no_classes():
    oracle._packed_classes.cache_clear()
    distribution("A", "des", 3)
    size = oracle._packed_classes.cache_info().currsize
    with pytest.raises(BudgetExceededError):
        distribution("B", "des", 9, budget=1000)
    with pytest.raises(ValueError, match="needs rank"):
        distribution("B", "affdes", 1)
    assert oracle._packed_classes.cache_info().currsize == size


def test_budget_guard_skips_order_of_huge_rank(monkeypatch):
    # factorial(10**6) alone takes seconds; the refusal must not need it.
    monkeypatch.setattr(oracle, "factorial", lambda n: pytest.fail("group order computed"))
    for group in ("A", "B", "D"):
        with pytest.raises(BudgetExceededError, match="at rank 1000000"):
            distribution(group, "des", 10**6)


def test_incompatible_combinations():
    with pytest.raises(ValueError, match="unknown group"):
        distribution("Z", "des", 2)
    with pytest.raises(ValueError, match="unknown statistic"):
        distribution("B", "bogus", 2)
    with pytest.raises(ValueError, match="unknown filter"):
        distribution("B", "des", 2, "bogus")


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("stat", STATS)
def test_pair_domains_match_the_naive_table(group, stat):
    # A pair the naive enumeration leaves out has no distribution at any
    # rank; a listed pair has one from its lowest rank on, and none below.
    if (group, stat) not in _NAIVE_STATS:
        for n in range(5):
            with pytest.raises(ValueError, match="not defined"):
                distribution(group, stat, n)
        return
    lowest = _NAIVE_STATS[group, stat][1]
    with pytest.raises(ValueError, match="needs rank"):
        distribution(group, stat, lowest - 1)
    assert sum(distribution(group, stat, lowest).coeffs) == group_order(group, lowest)


def test_empty_filter_gives_zero_polynomial():
    assert distribution("A", "des", 3, "last_negative") == P()
