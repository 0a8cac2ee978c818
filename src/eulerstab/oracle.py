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
and pair 0 descends on the first (a-1)*(m-2)! lanes of block a.

Counting has two stages.  The lanes are split pair by pair into descent
classes, counting every permutation from its own lane: the number with each
descent set (Stanley's beta_n(S), EC1 section 1.4), built once per rank and
cached, one slot per class in one int.  Under a padded-window rule each pair
is a descent never, always, or where the absolute values descend (signs +,+)
or ascend (signs -,-), so one transfer over positions sums the sign masks
instead of visiting them one at a time: its state is the sign of the current
entry (and, for type D, the parity of the negated entries), each state is
one int of class slots, and each pair folds them two into one with a shift.
A budget guard refuses group orders too large to enumerate before the cache
is read, so it bounds the one class build per rank.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import List, Tuple

from .polynomial import Polynomial, _from_row

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


def _descent_classes(n: int) -> List[int]:
    """counts[D]: the number of permutations of 1..n whose descent set is D,
    bit i set when |s_(i+1)| > |s_(i+2)|."""
    desc = _descent_lanes(n)
    counts = [0] * (1 << len(desc))

    def split(lanes: int, i: int, cls: int) -> None:
        if i == len(desc):
            counts[cls] = lanes.bit_count()
            return
        down = lanes & desc[i]
        split(lanes ^ down, i + 1, cls)
        split(down, i + 1, cls | 1 << i)

    split((1 << factorial(n)) - 1, 0, 0)
    return counts


@cache
def _packed_classes(n: int) -> Tuple[int, int, int]:
    """(w, slot, packed): rank n's descent classes, little-endian, in slots of
    n + 2 digits of w bits, where 2^w > |B_n| = 2^n * n! bounds every group."""
    w = (2**n * factorial(n)).bit_length()
    size = -(-(n + 2) * w // 8)
    packed = b"".join(c.to_bytes(size, "little") for c in _descent_classes(n))
    return w, size * 8, int.from_bytes(packed, "little")


def check_request(group: str, stat: str, n: int, filter: str, budget: int) -> None:
    """Raise the error `distribution` refuses these arguments with, if any."""
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
    check_request(group, stat, n, filter, budget)
    w, slot, packed = _packed_classes(n)
    d_pad = stat == "des_d" or (stat == "des" and group == "D")
    is_d, affine = group == "D", stat == "affdes"
    signs = (0,) if group == "A" else (0, 1)
    # (s_j negated, parity of negated entries for type D) -> each unread class's
    # distribution so far, one slot each; the head (0, s_1) descends if s_1 < 0.
    states = {(s, s & is_d): packed << (0 if d_pad else w * s) for s in signs}
    for i in range(n - 1):  # pair i, (s_(i+1), s_(i+2)), is class bit i
        # The live classes sit every 2^i slots, each one's partner with bit i
        # set gap bits higher.  No mask clears the other slots: a digit there
        # counts distinct elements at most n + 1 digits up, so none carries.
        gap = slot << i
        moved = {}
        for (s, p), vec in states.items():
            desc = vec >> gap
            for t in signs:
                # The descents the pair adds where |.| ascends, descends:
                # signs +,+ give (0, 1), -,- give (1, 0), mixed ones (t, t).
                e0, e1 = (s, 1 - s) if s == t else (t, t)
                if i == 0:
                    # The head (-s_2, s_1) adds (t, s); node 0 adds one when
                    # the entry of smaller |.| in s_1, s_2 is positive.
                    e0 += d_pad * t + affine * (1 - s)
                    e1 += d_pad * s + affine * (1 - t)
                key = (t, (p ^ t) & is_d)
                moved[key] = moved.get(key, 0) + (vec << w * e0) + (desc << w * e1)
        states = moved
    last = (0, 1) if filter == "all" else (filter == "last_negative",)
    total = sum(vec for (t, p), vec in states.items() if t in last and not p)
    return _from_row([total >> w * k & (1 << w) - 1 for k in range(n + 2)])
