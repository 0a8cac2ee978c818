"""Eulerian polynomial families for the classical Coxeter groups.

Everything is generated from the type-A recurrence

    A_0 = 1,    A_m = (m*x + 1) * A_{m-1} - x*(x - 1) * A_{m-1}'

and from exact closed forms on top of it:

* B_n is the even part of (x+1)^(n+1) * A_{n-1}(x); the odd part of the same
  product must equal 2^n * A_{n-1}(x), which is asserted on every build.
* D_n = B_n - n * 2^(n-1) * x * A_{n-2}.
* The affine type-B polynomial is 2x * (2^n * A_{n-1} - n * B_{n-1}).
* The half families split over the sign of the last window entry; they come
  out of the even/odd parts of (x+1)^n * A_{n-1} (type B) and of
  (x+1)^n * A_{n-1} - n*x*(x+1)^(n-1) * A_{n-2} (type D).

Indexing: ``eulerian_a(m)`` is the Coxeter-index convention, i.e. the descent
polynomial of the symmetric group on m+1 letters.  Off-by-one mistakes here
are the easiest way to break everything downstream, so the brute-force group
enumeration in `eulerstab.oracle` cross-checks all of these distributions.

Each construction carries redundant internal identities (half sums, degree
reversals, the affine combination) and raises ConsistencyError when one
fails; a failure always means an implementation bug, not bad input.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .polynomial import Polynomial, _from_row

_X = Polynomial.x()
_ONE_PLUS_X = Polynomial([1, 1])

# Per family tag: (lowest rank, generator).  Each row calls its generator
# by its module-level name, so a later rebinding of that name (a tracing
# wrapper, say) is seen here too.
_FAMILIES = {
    "A": (0, lambda n: eulerian_a(n)),
    "B": (1, lambda n: eulerian_b(n)),
    "D": (2, lambda n: eulerian_d(n)),
    "AffineB": (1, lambda n: affine_b(n)),
    "BPlus": (1, lambda n: half_b(n).plus),
    "BMinus": (1, lambda n: half_b(n).minus),
    "DPlus": (2, lambda n: half_d(n).plus),
    "DMinus": (2, lambda n: half_d(n).minus),
}
FAMILIES = tuple(_FAMILIES)


class ConsistencyError(RuntimeError):
    """An internal cross-check of a closed-form construction failed."""


class HalfPair(NamedTuple):
    plus: Polynomial
    minus: Polynomial


class _FamilyIdFields(NamedTuple):
    tag: str
    rank: int


class FamilyId(_FamilyIdFields):
    """A polynomial family tag plus a rank inside its domain: the tag is one
    of FAMILIES and the rank is at least that family's lowest rank."""

    __slots__ = ()

    def __new__(cls, tag: str, rank: int) -> "FamilyId":
        if tag not in _FAMILIES:
            raise ValueError(f"unknown family {tag!r}; expected one of {FAMILIES}")
        lowest = _FAMILIES[tag][0]
        if rank < lowest:
            raise ValueError(f"family {tag} needs rank >= {lowest}, got {rank}")
        return super().__new__(cls, tag, rank)


# A_m at index m for the ranks asked for so far and the rank below each,
# None for the ranks passed through on the way: keeping every rank would
# grow memory cubically.
_A_RANKS: List[Optional[Polynomial]] = [Polynomial.one()]


def _a_step(row: Sequence[int], s: int) -> List[int]:
    """A_s's integer row from A_(s-1)'s, by the module recurrence read off
    coefficient by coefficient: a_k <- (k+1)*a_k + (s-k+1)*a_(k-1)."""
    return [(k + 1) * c + (s - k + 1) * d for k, (c, d) in enumerate(zip([*row, 0], [0, *row]))]


def eulerian_a(m: int) -> Polynomial:
    """Type-A Eulerian polynomial A_m (descents of m+1 letters), built
    bottom-up from the highest kept rank below m, so that no call recurses,
    however large m is."""
    if m < 0:
        raise ValueError("type-A index must be nonnegative")
    _A_RANKS.extend([None] * (m + 1 - len(_A_RANKS)))
    r = next(r for r in range(m, -1, -1) if _A_RANKS[r] is not None)
    row = _A_RANKS[r]._row
    for s in range(r + 1, m + 1):
        if s == m and _A_RANKS[m - 1] is None:
            # Keep A_(m-1) too: every rank-n family reads A_(n-1) and A_(n-2).
            _A_RANKS[m - 1] = _from_row(row)
        row = _a_step(row, s)
    if r < m:
        _A_RANKS[m] = _from_row(row)
    return _A_RANKS[m]


@functools.cache
def eulerian_b(n: int) -> Polynomial:
    """Type-B Eulerian polynomial B_n."""
    if n < 1:
        raise ValueError("type-B rank must be >= 1")
    even, odd = (_ONE_PLUS_X ** (n + 1) * eulerian_a(n - 1)).even_odd_split()
    if odd != 2**n * eulerian_a(n - 1):
        raise ConsistencyError(f"odd part of the rank-{n} type-B source is not 2^n * A_(n-1)")
    return even


@functools.cache
def eulerian_d(n: int) -> Polynomial:
    """Type-D Eulerian polynomial D_n (even-signed permutations)."""
    if n < 2:
        raise ValueError("type-D rank must be >= 2")
    return eulerian_b(n) - n * 2 ** (n - 1) * _X * eulerian_a(n - 2)


@functools.cache
def affine_b(n: int) -> Polynomial:
    """Affine type-B Eulerian polynomial 2x * (2^n * A_{n-1} - n * B_{n-1})."""
    if n < 1:
        raise ValueError("affine type-B rank must be >= 1")
    b_prev = Polynomial.one() if n == 1 else eulerian_b(n - 1)
    return Polynomial([0, 2]) * (2**n * eulerian_a(n - 1) - n * b_prev)


@functools.cache
def half_b(n: int) -> HalfPair:
    """Half type-B pair: descent distribution split by the sign of the last entry.

    plus is the even part of (x+1)^n * A_{n-1}(x); minus is x times the odd
    part.  Both the sum identity plus + minus == B_n and the reversal
    minus == x^n * plus(1/x) are asserted.
    """
    if n < 1:
        raise ValueError("half type-B rank must be >= 1")
    even, odd = (_ONE_PLUS_X**n * eulerian_a(n - 1)).even_odd_split()
    plus, minus = even, _X * odd
    if plus + minus != eulerian_b(n):
        raise ConsistencyError(f"half type-B parts at rank {n} do not sum to B_n")
    if minus != plus.reciprocal(n):
        raise ConsistencyError(f"half type-B minus at rank {n} is not the degree-{n} reversal of plus")
    return HalfPair(plus, minus)


@functools.cache
def half_d(n: int) -> HalfPair:
    """Half type-D pair, from the even/odd parts of
    (x+1)^n * A_{n-1} - n*x*(x+1)^(n-1) * A_{n-2}.

    Asserts plus + minus == D_n, the degree reversal minus == x^n * plus(1/x),
    and the affine combination 2*(x*plus + minus) == affine_b(n).
    """
    if n < 2:
        raise ValueError("half type-D rank must be >= 2")
    source = _ONE_PLUS_X**n * eulerian_a(n - 1) - n * _X * _ONE_PLUS_X ** (n - 1) * eulerian_a(n - 2)
    even, odd = source.even_odd_split()
    plus, minus = even, _X * odd
    if plus + minus != eulerian_d(n):
        raise ConsistencyError(f"half type-D parts at rank {n} do not sum to D_n")
    if minus != plus.reciprocal(n):
        raise ConsistencyError(f"half type-D minus at rank {n} is not the degree-{n} reversal of plus")
    if 2 * (_X * plus + minus) != affine_b(n):
        raise ConsistencyError(f"half type-D parts at rank {n} do not recombine to the affine polynomial")
    return HalfPair(plus, minus)


def family_polynomial(fid: FamilyId) -> Polynomial:
    """The polynomial of a FamilyId, from its family's generator."""
    return _FAMILIES[fid.tag][1](fid.rank)


class ZigzagTable(tuple):
    """Euler zigzag numbers E_0..E_n (counts of up-down permutations), as a
    tuple of ints."""

    __slots__ = ()

    @property
    def values(self) -> Tuple[int, ...]:
        return tuple(self)

    def ratio(self, n: int) -> Fraction:
        """E_n / E_{n-1} as an exact rational."""
        return Fraction(self[n], self[n - 1])


def zigzag(n: int) -> ZigzagTable:
    """E_0..E_n via the boustrophedon triangle.

    Each row is the reversed running sum of the previous row seeded with 0;
    the last entry of row m is E_m.  Integer-only, O(n^2) additions.
    """
    if n < 0:
        raise ValueError("zigzag index must be nonnegative")
    values = [1]
    row = [1]
    for _ in range(n):
        new = [0]
        for v in reversed(row):
            new.append(new[-1] + v)
        row = new
        values.append(row[-1])
    return ZigzagTable(values)
