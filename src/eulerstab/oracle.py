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

Enumeration is exhaustive and bit-sliced (Biham, FSE 1997): lane t of an
int is the t-th permutation of 1..n, in lexicographic order, lane 0 in the
top bit.  The lanes where a pair of adjacent absolute values descends are
built from the block structure of that order, without visiting any
permutation: the permutations of 1..m fall into m blocks of (m-1)! lanes,
one per first letter a, and each block lists the permutations of the other
letters in lexicographic order.  A descent depends only on relative order,
so a pair i >= 1 repeats rank m - 1's lanes of pair i - 1 in every block,
and pair 0 descends on the first (a-1)*(m-2)! lanes of block a.  Under a
fixed sign mask each padded pair is a descent on no lane, on every lane, or
where the absolute values descend (signs +,+) or ascend (signs -,-), so one
loop over the masks counts the n! elements of each mask at once.  A budget
guard refuses group orders that are too large to enumerate.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable, List, NamedTuple, Sequence, Tuple, Union

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


def _descent_lanes(n: int) -> List[int]:
    """desc[i]: the lanes, one per permutation of 1..n in lexicographic order
    with lane 0 in the top bit, on which |s_(i+1)| > |s_(i+2)|."""
    desc: List[int] = []
    for m in range(2, n + 1):  # from rank m - 1's lanes to rank m's
        width, run = factorial(m - 1), factorial(m - 2)
        head = 0  # block a + 1 descends at pair 0 on its first a * run lanes
        for a in range(m):
            head = (head << width) | ((1 << a * run) - 1) << (width - a * run)
        # One copy of the rank-(m - 1) lanes per block; big-int products
        # would be super-linear, byte and bit-string copies are linear.
        if width % 8:
            desc = [int(f"{lanes:0{width}b}" * m, 2) for lanes in desc]
        else:
            desc = [int.from_bytes(lanes.to_bytes(width // 8, "big") * m, "big") for lanes in desc]
        desc.insert(0, head)
    return desc


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
    desc = _descent_lanes(n)
    everyone = (1 << factorial(n)) - 1
    asc = [everyone ^ lanes for lanes in desc]
    d_pad = stat == "des_d" or (stat == "des" and group == "D")
    hist = [0] * (n + 2)
    # Mask bit i negates s_(i+1); type A is the single mask 0.
    for mask in range(1 << (0 if group == "A" else n)):
        neg = [(mask >> i) & 1 for i in range(n)]
        if (group == "D" and sum(neg) % 2) or (filter != "all" and neg[-1] != (filter == "last_negative")):
            continue
        base, indicators = 0, []  # base: the descents on every lane
        for i in range(n - 1):
            if neg[i] == neg[i + 1]:
                indicators.append(asc[i] if neg[i] else desc[i])
            else:
                base += neg[i + 1]
        if d_pad and neg[0] != neg[1]:  # the head (-s_2, s_1)
            indicators.append(desc[0] if neg[0] else asc[0])
        else:  # the head (0, s_1), or (-s_2, s_1) with equal signs
            base += neg[0]
        if stat == "affdes":  # node 0: the entry of smaller |.| in s_1, s_2 is positive
            indicators.append((0 if neg[0] else asc[0]) | (0 if neg[1] else desc[0]))
        # slices[j] holds bit j of every lane's count; split the lanes by count.
        slices = [0] * (n + 1).bit_length()
        for carry in indicators:
            j = 0
            while carry:
                slices[j], carry = slices[j] ^ carry, slices[j] & carry
                j += 1
        parts = [everyone]
        for bit in reversed(slices):
            parts = [part for lanes in parts for part in (lanes & ~bit, lanes & bit)]
        for v, lanes in enumerate(parts):
            if lanes:
                hist[base + v] += lanes.bit_count()
    return Polynomial(hist)
