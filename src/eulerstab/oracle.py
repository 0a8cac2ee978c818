"""Brute-force descent statistics over (signed) permutation groups.

This module is the ground truth the closed-form generators are checked
against.  Elements are windows: tuples (s_1, ..., s_n) of nonzero integers
whose absolute values are a permutation of 1..n.  Statistics are computed
from padded-window characterizations:

* type A   - descents of the plain sequence
* type B   - descents of (0, s_1, ..., s_n)
* type D   - descents of (-s_2, s_1, ..., s_n)
* affine B - type-B descents, plus one extra when the window entry of
             smaller absolute value among {s_1, s_2} is positive (the image
             of e_1 + e_2 is then a positive root)

Nothing here shares code with `eulerstab.eulerian`, so distribution
agreement between the two is meaningful evidence that both are right.

Enumeration is exhaustive and deterministic: permutations in lexicographic
order and, for each one, sign masks in reflected Gray code order, mask bit i
negating s_{i+1}.  Step t of the code flips bit ctz(t) only, so the padded
descent count is updated from the two comparisons beside that entry (plus
the head comparison when the type-D pad -s_2 moves) instead of recounted.
The last bit flips once, at step 2^(n-1), so the last_positive and
last_negative filters are the first and second half of the walk; every step
changes the parity of the mask, so type D is the even steps.  Type A is the
same walk with no sign bits: one element per permutation.
A budget guard refuses group orders that are too large to enumerate.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Iterable, NamedTuple, Sequence, Tuple, Union

from .polynomial import Polynomial

# (group, statistic) -> lowest rank, for every pair with a distribution; a
# group's own "des" row is also the domain of the group itself.
_LOWEST_RANK = {
    ("A", "des"): 1,
    ("B", "des"): 1,
    ("B", "affdes"): 2,
    ("B", "des_d"): 2,
    ("D", "des"): 2,
    ("D", "des_d"): 2,
}
GROUPS = tuple(dict.fromkeys(group for group, _ in _LOWEST_RANK))
STATS = tuple(dict.fromkeys(stat for _, stat in _LOWEST_RANK))
FILTERS = ("all", "last_positive", "last_negative")

DEFAULT_BUDGET = 10**8


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


class _SignedPermFields(NamedTuple):
    window: Tuple[int, ...]


class SignedPerm(_SignedPermFields):
    """Signed permutation in window notation."""

    __slots__ = ()

    def __new__(cls, window: Iterable[int]) -> "SignedPerm":
        w = tuple(window)
        if sorted(abs(v) for v in w) != list(range(1, len(w) + 1)):
            raise ValueError(
                "window entries must be nonzero and cover 1..n in absolute value"
            )
        return super().__new__(cls, w)

    @property
    def n(self) -> int:
        return len(self.window)

    def is_even_signed(self) -> bool:
        """True when the element lies in the type-D subgroup."""
        return sum(1 for v in self.window if v < 0) % 2 == 0


WindowLike = Union[SignedPerm, Sequence[int]]


def _window_of(sp: WindowLike) -> Tuple[int, ...]:
    if isinstance(sp, SignedPerm):
        return sp.window
    return SignedPerm(tuple(sp)).window


def _descents(seq: Sequence[int]) -> int:
    return sum(1 for a, b in zip(seq, seq[1:]) if a > b)


def des_a(perm: Iterable[int]) -> int:
    """Descents of a sequence of distinct integers."""
    seq = tuple(perm)
    if len(set(seq)) != len(seq):
        raise ValueError("entries must be distinct")
    return _descents(seq)


def des_b(sp: WindowLike) -> int:
    """Type-B descents: descents of the window padded with s_0 = 0."""
    w = _window_of(sp)
    return _descents((0,) + w)


def des_d(sp: WindowLike) -> int:
    """Type-D descents: descents of the window padded with s_0 = -s_2.

    Defined on every signed permutation of rank >= 2, not only on
    even-signed ones.
    """
    w = _window_of(sp)
    if len(w) < 2:
        raise ValueError("the type-D statistic needs rank >= 2")
    return _descents((-w[1],) + w)


def _node0_affine_descent(w: Tuple[int, ...]) -> bool:
    a, b = w[0], w[1]
    return (a if abs(a) < abs(b) else b) > 0


def affdes_b(sp: WindowLike) -> int:
    """Affine type-B descents: des_b plus the node-0 contribution."""
    w = _window_of(sp)
    if len(w) < 2:
        raise ValueError("the affine type-B statistic needs rank >= 2")
    return _descents((0,) + w) + (1 if _node0_affine_descent(w) else 0)


def group_order(group: str, n: int) -> int:
    """Number of elements of the rank-n group (A: n letters)."""
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    lowest = _LOWEST_RANK[group, "des"]
    if n < lowest:
        raise ValueError(f"group {group} needs rank >= {lowest}")
    if group == "A":
        return factorial(n)
    if group == "B":
        return 2**n * factorial(n)
    return 2 ** (n - 1) * factorial(n)


def distribution(
    group: str,
    stat: str,
    n: int,
    filter: str = "all",
    budget: int = DEFAULT_BUDGET,
) -> Polynomial:
    """Exact distribution polynomial of a statistic over a filtered group.

    group selects the element set (A: permutations of 1..n, B: all signed
    permutations, D: even-signed ones); stat selects the statistic, where
    "des" means the group's own descent statistic and "des_d" forces the
    type-D rule on any signed group; filter restricts by the sign of the
    last window entry.
    """
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}")
    if filter not in FILTERS:
        raise ValueError(f"unknown filter {filter!r}")
    lowest = _LOWEST_RANK.get((group, stat))
    if lowest is None:
        raise ValueError(f"statistic {stat} is not defined over group {group}")
    if n < lowest:
        raise ValueError(f"group {group} with statistic {stat} needs rank >= {lowest}")
    # Every group order is at least 2^(n-1), so a huge rank is refused
    # without computing (and printing) its order.
    if n - 1 >= budget.bit_length():
        raise BudgetExceededError(f"group order at rank {n} exceeds the enumeration budget {budget}")
    order = group_order(group, n)
    if order > budget:
        raise BudgetExceededError(f"group order {order} exceeds the enumeration budget {budget}")

    if group == "A" and filter == "last_negative":
        return Polynomial()
    d_pad = stat == "des_d" or (stat == "des" and group == "D")
    affine = stat == "affdes"
    # Type A is the walk with no sign bits.  A filter walks half of the Gray
    # code: the (n-1)-bit code, whose steps are also steps 2^(n-1)+1.. of the
    # n-bit one.  Each step is (padded position of the negated entry,
    # whether the element is counted).
    bits = 0 if group == "A" else n if filter == "all" else n - 1
    steps = [((t & -t).bit_length(), group == "B" or t % 2 == 0) for t in range(1, 1 << bits)]
    head_pos = 2 if d_pad else -1

    hist = [0] * (n + 2)
    for perm in itertools.permutations(range(1, n + 1)):
        # p = (head, s_1, ..., s_n, n + 1); the sentinel n + 1 adds no descent.
        p = [0, *perm, n + 1]
        if filter == "last_negative":
            # step 2^(n-1): mask 2^(n-2) (the first half's last), plus entry n
            p[n] = -p[n]
            if n >= 2:
                p[n - 1] = -p[n - 1]
        if d_pad:
            p[0] = -p[2]
        k = _descents(p)
        # node 0: the sign of the entry of smaller absolute value in s_1, s_2
        m = 2 if affine and perm[1] < perm[0] else 1
        hist[k + (affine and p[m] > 0)] += 1
        for j, counted in steps:
            u, v, x = p[j - 1], p[j], p[j + 1]
            k += (u > -v) - (u > v) + (-v > x) - (v > x)
            p[j] = -v
            if j == head_pos:
                h = p[0]
                p[0] = v
                k += (v > p[1]) - (h > p[1])
            if counted:
                hist[k + (affine and p[m] > 0)] += 1
    return Polynomial(hist)
