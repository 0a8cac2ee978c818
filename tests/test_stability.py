"""Sturm chains, root isolation, interlacing, and both stability criteria."""

import gc
import itertools
import random
import signal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerstab import lab, stability
from eulerstab.eulerian import affine_b, eulerian_a, eulerian_d, half_b
from eulerstab.lab import default_k_grid, padded_stability_source, stability_family
from eulerstab.polynomial import Polynomial
from eulerstab.stability import (
    STRICTLY_STABLE,
    UNSTABLE,
    WEAKLY_STABLE,
    approximate_real_roots,
    hermite_biehler_weakly_stable,
    hurwitz_determinants,
    interlaces,
    is_real_rooted,
    is_strictly_hurwitz_stable,
    isolate_real_roots,
    squarefree_decompose,
    sturm_chain,
)

P = Polynomial
X = Polynomial.x()


# ---------------------------------------------------------------------------
# Sturm chains and root counting


def _sturm_count(p, lo, hi):
    # Distinct real roots of p in (lo, hi), neither end a root (Sturm).
    chain = sturm_chain(p)
    return chain.variations(lo) - chain.variations(hi)


def test_sturm_chain_examples():
    assert _sturm_count(P([-2, 0, 1]), -2, 2) == 2
    assert _sturm_count(P([1, 0, 1]), -10, 10) == 0
    assert _sturm_count(P([1, 4, 1]), -4, 0) == 2


def test_sturm_chain_structure():
    chain = sturm_chain(P([1, 4, 1]))
    assert chain.polys[0] == P([1, 4, 1])
    assert chain.polys[1] == P([4, 2])
    # consecutive elements satisfy the negated-remainder relation up to a
    # positive rational factor (remainders are content-normalized)
    for a, b, c in zip(chain.polys, chain.polys[1:], chain.polys[2:]):
        r = -(a % b)
        scale = r.leading_coefficient / c.leading_coefficient
        assert scale > 0
        assert r == scale * c


def test_sturm_chain_ends_at_common_factor():
    # for non-squarefree input the last chain element is gcd(p, p') up to scale
    from eulerstab.polynomial import poly_gcd

    p = P([1, 1]) ** 2 * P([2, 1])
    chain = sturm_chain(p)
    last = chain.polys[-1]
    assert last.monic() == poly_gcd(p, p.derivative())


def test_count_real_roots_examples():
    assert _sturm_count(P([1, 4, 1]), -4, 0) == 2
    assert _sturm_count(P([1, 0, 1]), -10, 10) == 0
    assert _sturm_count(X, -1, 1) == 1


def test_sturm_chain_rejects_zero():
    with pytest.raises(ValueError):
        sturm_chain(P())


def test_remainder_sequences_run_on_integer_rows(monkeypatch):
    # Sturm chains and gcds share one integer-row remainder sequence; no
    # Fraction polynomial division may run on their paths.
    from eulerstab.polynomial import poly_gcd

    def no_divmod(self, other):
        raise AssertionError("Fraction polynomial division on an integer-row path")

    p = P([1, 1]) ** 2 * P([-2, 0, 1]) * P([F(1, 3), -1]) ** 3
    monkeypatch.setattr(P, "__divmod__", no_divmod)
    assert len(sturm_chain(p).rows) == 5
    assert poly_gcd(p, p.derivative()) == P([1, 1]) * P([F(-1, 3), 1]) ** 2
    assert _sturm_count(p, -10, 10) == 4
    assert not is_real_rooted(p * P([1, 0, 1]))
    assert is_real_rooted(p)


# ---------------------------------------------------------------------------
# squarefree decomposition


def test_squarefree_examples():
    assert squarefree_decompose(P([1, 1]) ** 3) == ((P([1, 1]), 3),)
    assert squarefree_decompose(P([-1, 0, 1])) == ((P([-1, 0, 1]), 1),)
    assert squarefree_decompose(P([0, 1, 2, 1])) == ((P([0, 1]), 1), (P([1, 1]), 2))


def test_squarefree_reconstruction():
    from eulerstab.polynomial import poly_gcd

    rng = random.Random(7)
    for _ in range(20):
        p = P([rng.randint(1, 5)])
        for _ in range(rng.randint(1, 3)):
            p = p * P([rng.randint(-3, 3), 1]) ** rng.randint(1, 5)
        factors = squarefree_decompose(p)
        rebuilt = P([p.leading_coefficient])
        for q, m in factors:
            assert q.leading_coefficient == 1
            assert poly_gcd(q, q.derivative()).degree == 0
            rebuilt = rebuilt * q**m
        assert rebuilt == p
        for (q, m), (r, n) in itertools.combinations(factors, 2):
            assert m < n and poly_gcd(q, r).degree == 0


# ---------------------------------------------------------------------------
# root isolation


def test_isolate_quadratic():
    iso = isolate_real_roots(P([1, 4, 1]))
    assert len(iso) == 2 and iso.total_multiplicity == 2
    first, second = iso
    # roots are -2 +- sqrt(3), approximately -3.732 and -0.268
    assert F(-38, 10) <= first.lo < first.hi <= F(-37, 10)
    assert F(-3, 10) <= second.lo < second.hi <= F(-2, 10)


def test_isolate_repeated_rational_root():
    iso = isolate_real_roots(P([1, 1]) ** 2)
    assert len(iso) == 1
    (root,) = iso
    assert root.is_point and root.lo == -1 and root.multiplicity == 2


def test_isolate_rational_roots():
    iso = isolate_real_roots(X * P([3, 1]))
    assert [(r.lo, r.hi, r.multiplicity) for r in iso] == [(-3, -3, 1), (0, 0, 1)]
    # the root at 0, split off with its multiplicity, sorts between +-sqrt(2)
    for k in (1, 2, 3):
        iso = isolate_real_roots(F(-3, 2) * X**k * P([3, 1]) * P([-2, 0, 1]))
        shape = [(r.is_point, r.multiplicity) for r in iso]
        assert shape == [(True, 1), (False, 1), (True, k), (False, 1)]
        assert [r.lo for r in iso if r.is_point] == [-3, 0]
    # a tall gcd tower: the roots +-sqrt(2) of multiplicity 3 are double
    # roots of a_1 = gcd(f, f'), which keeps its sign across their intervals,
    # and simple roots of a_2 = gcd(a_1, a_1'), which changes sign there
    p = P([1, 1]) ** 5 * P([-2, 1]) ** 3 * P([-2, 0, 1]) ** 3 * X**2
    for min_width in (F(1, 256), None):
        iso = isolate_real_roots(p, min_width)
        assert [r.multiplicity for r in iso] == [3, 5, 2, 3, 3]
        assert [r.lo for r in iso if r.is_point] == [-1, 0, 2]


def test_isolate_no_real_roots():
    assert len(isolate_real_roots(P([1, 0, 1]))) == 0


def test_isolate_rejects_constants():
    with pytest.raises(ValueError):
        isolate_real_roots(P([3]))
    with pytest.raises(ValueError):
        isolate_real_roots(P())


def test_isolation_sign_conditions():
    # odd multiplicity: opposite endpoint signs; even: equal signs; points
    # are exact roots whose linear factor divides to the stated multiplicity
    for p in (P([1, 4, 1]), P([1, 1]) ** 2 * P([-2, 0, 1]), X * P([3, 1]) ** 3, eulerian_d(6)):
        iso = isolate_real_roots(p)
        for root in iso:
            if root.is_point:
                assert p(root.lo) == 0
                q = p
                for _ in range(root.multiplicity):
                    q = q.exact_div(P([-root.lo, 1]))
                assert q(root.lo) != 0
            else:
                product = p(root.lo) * p(root.hi)
                assert product < 0 if root.multiplicity % 2 else product > 0


def test_isolation_intervals_are_disjoint_and_sorted():
    p = eulerian_a(7) * P([1, 1])  # shared root at -1 bumps multiplicity
    iso = isolate_real_roots(p)
    assert iso.total_multiplicity == p.degree
    for a, b in zip(iso, iso[1:]):
        assert a.hi <= b.lo


def test_approximate_real_roots():
    # roots of x^2 + 4x + 1 are -2 +- sqrt(3)
    approx = approximate_real_roots(P([1, 4, 1]))
    assert len(approx) == 2
    lo, hi = approx[0][0], approx[1][0]
    assert abs(lo + F(37320508075688772935, 10**19)) < F(1, 10**18)
    assert abs(hi + F(2679491924311227065, 10**19)) < F(1, 10**18)
    assert approximate_real_roots(P([1, 1]) ** 2) == [(F(-1), 2)]
    assert approximate_real_roots(P([1, 0, 1])) == []


def _within(seconds, call):
    """call(), or a TimeoutError once it has run for the given seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_isolation_rejects_nonpositive_width_and_digits():
    p = P([-2, 0, 1])  # irrational roots: refining to width 0 would never stop
    for width in (F(0), 0, F(-1, 2)):
        with pytest.raises(ValueError, match="min_width"):
            _within(10, lambda: isolate_real_roots(p, width))
    with pytest.raises(TypeError):
        isolate_real_roots(p, 0.5)
    for digits in (0, -3):
        with pytest.raises(ValueError, match="digits"):
            approximate_real_roots(p, digits)


def test_isolation_evaluates_each_point_once(monkeypatch):
    # The recursion hands each interval's endpoint counts to its halves, and
    # the gap around an exact root at a split point hands its own counts on.
    seen = []
    variations = stability.SturmChain.variations

    def spy(chain, x):
        seen.append(x)
        return variations(chain, x)

    monkeypatch.setattr(stability.SturmChain, "variations", spy)
    hugged = P([1, 1]) * P([-3, 1]) * P([-2, 0, 1])  # roots -1 and 3 are split points
    for p in (hugged, padded_stability_source(12)):
        for run in (isolate_real_roots, lambda q: isolate_real_roots(q, None), approximate_real_roots):
            seen.clear()
            run(p)
            assert seen and len(set(seen)) == len(seen)
    assert [r.lo for r in isolate_real_roots(hugged) if r.is_point] == [-1, 3]


def test_isolation_builds_one_remainder_sequence(monkeypatch):
    # The Sturm chain that the bisection counts on ends at gcd(f, f'), the
    # first row of the gcd tower that gives the multiplicities, and the root
    # at 0 is split off first.  On squarefree f that row is a constant, so
    # locating f builds one remainder sequence of two nonzero inputs, makes
    # one division (the squarefree quotient f / gcd(f, f')) and no gcd call.
    from collections import Counter

    from eulerstab import polynomial

    counts = Counter()
    remainder_rows = polynomial._remainder_rows
    divmod_ = Polynomial.__divmod__
    poly_gcd = polynomial.poly_gcd

    def spy(p, q):
        counts["rows"] += not q.is_zero
        return remainder_rows(p, q)

    def divmod_spy(p, q):
        counts["divmod"] += 1
        return divmod_(p, q)

    def gcd_spy(p, q):
        counts["gcd"] += 1
        return poly_gcd(p, q)

    monkeypatch.setattr(Polynomial, "__divmod__", divmod_spy)
    for module in (stability, polynomial):
        monkeypatch.setattr(module, "_remainder_rows", spy)
        monkeypatch.setattr(module, "poly_gcd", gcd_spy, raising=False)
    for p in (eulerian_d(8), X * eulerian_d(8)):
        counts.clear()
        isolate_real_roots(p)
        assert (counts["rows"], counts["divmod"], counts["gcd"]) == (1, 1, 0)


def test_isolation_skips_root_free_side(monkeypatch):
    # (x - 3)(x^2 + 10^6): the Cauchy bound 1 + 3*10^6 gives hi = 2^22 and
    # the reciprocal's bound 4/3 gives lo = 1/2.  No root is negative, so of
    # the negative brackets only the ends -hi and -lo may be evaluated.
    seen = []
    sign_at = stability._sign_at

    def spy(row, x):
        seen.append(x)
        return sign_at(row, x)

    monkeypatch.setattr(stability, "_sign_at", spy)
    iso = isolate_real_roots(P([-3, 1]) * P([10**6, 0, 1]), None)
    assert [(r.lo < 3 < r.hi, r.multiplicity) for r in iso] == [(True, 1)]
    assert {x for x in seen if x < 0} <= {F(-(2**22)), F(-1, 2)}


def test_isolation_leaves_no_reference_cycles():
    # With the collector off, every object isolation makes is freed by
    # reference counting alone, so a collection afterwards finds nothing.
    gc.collect()
    gc.disable()
    try:
        for n in range(2, 12):
            isolate_real_roots(eulerian_d(n) * P([1, 0, 1]))
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# real-rootedness


def test_is_real_rooted_examples():
    assert is_real_rooted(eulerian_d(3))
    assert not is_real_rooted(P([1, 0, 1]))
    assert is_real_rooted(affine_b(4))
    assert is_real_rooted(P([5]))
    with pytest.raises(ValueError):
        is_real_rooted(P())


def test_is_real_rooted_reads_one_index_at_high_multiplicity():
    # The gcd (x + 1)^1099 is not tested again: one level per multiplicity
    # would recurse past the interpreter's limit.
    assert is_real_rooted(P([1, 1]) ** 1100)


# ---------------------------------------------------------------------------
# interlacing


def test_interlaces_examples():
    assert interlaces(P([1, 1]), P([1, 4, 1]))
    assert interlaces(half_b(2).plus, half_b(2).minus)
    assert interlaces(eulerian_a(4), eulerian_a(4))


def test_interlaces_degenerate_constant():
    assert interlaces(P([1]), X)
    assert interlaces(P([2]), P([3]))


def test_interlaces_with_shared_roots():
    # f has roots {-1, -2}, g has roots {-1, -3}: -3 <= -2 <= -1 <= -1
    f = P([1, 1]) * P([2, 1])
    g = P([1, 1]) * P([3, 1])
    assert interlaces(g, f)
    assert not interlaces(f, g)


def test_interlaces_failure_case():
    # roots of f: -1, -10; roots of g: -20, -30 (all below f's roots)
    f = P([1, 1]) * P([10, 1])
    g = P([20, 1]) * P([30, 1])
    assert not interlaces(g, f)


def test_interlaces_scaling_invariance():
    f, g = P([1, 4, 1]), P([1, 1])
    assert interlaces(g, f) == interlaces(3 * g, f) == interlaces(g, F(7, 2) * f)


def test_interlaces_preconditions():
    with pytest.raises(ValueError):
        interlaces(P([1, 0, 1]), P([1, 2, 1, 1]))  # g not real-rooted
    with pytest.raises(ValueError):
        interlaces(P([1, 1]), P([0, 0, 0, 1]))  # degree gap 2
    with pytest.raises(ValueError):
        interlaces(-P([1, 1]), P([1, 2, 1]))  # negative leading coefficient
    with pytest.raises(ValueError):
        interlaces(P(), P([1, 1]))


def test_interlaces_rejects_a_shared_nonreal_factor():
    # The bare index holds, deg f - deg h = 4 - 2 on h = x^2 + 1, but h has no
    # real root, so neither input is real-rooted.
    f = P([1, 0, 1]) * P([1, 1]) * P([2, 1])
    g = P([1, 0, 1]) * P([3, 2])
    rows = stability._remainder_rows(f, g)
    assert len(rows[-1]) == 3 and stability._index(rows) == 2
    with pytest.raises(ValueError, match="^interlacing requires real-rooted polynomials$"):
        interlaces(g, f)


def test_holding_interlacing_builds_one_remainder_sequence(monkeypatch):
    built = []
    remainder_rows = stability._remainder_rows

    def spy(p, q):
        built.append((p, q))
        return remainder_rows(p, q)

    monkeypatch.setattr(stability, "_remainder_rows", spy)
    assert interlaces(eulerian_d(8), affine_b(8))
    assert built == [(affine_b(8), eulerian_d(8))]


# ---------------------------------------------------------------------------
# weak stability (even/odd criterion)


def test_weak_stability_examples():
    assert hermite_biehler_weakly_stable(P([1, 1]) ** 3).verdict == WEAKLY_STABLE
    # x^2 + 1: odd part vanishes, even part has the single root -1
    cert = hermite_biehler_weakly_stable(P([1, 0, 1]))
    assert cert.verdict == WEAKLY_STABLE
    assert cert.evidence.odd_part is None
    assert hermite_biehler_weakly_stable(P([-1, 0, 1])).verdict == UNSTABLE


def test_weak_stability_evidence():
    cert = hermite_biehler_weakly_stable(P([1, 1]) ** 3)
    ev = cert.evidence
    assert ev.interlacing is True
    even_roots = isolate_real_roots(ev.even_part, None)
    assert [r.multiplicity for r in even_roots] == [1]
    assert [r.multiplicity for r in isolate_real_roots(ev.odd_part, None)] == [1]
    assert all(r.hi <= 0 for r in even_roots)


def test_weak_stability_degenerate_even_part():
    # x^3 + x = x * (x^2 + 1): even part vanishes, odd part is 1 + y
    cert = hermite_biehler_weakly_stable(P([0, 1, 0, 1]))
    assert cert.verdict == WEAKLY_STABLE
    # x^3 - x: odd part 1 -> root +1 after the split of (y - 1)
    assert hermite_biehler_weakly_stable(P([0, -1, 0, 1])).verdict == UNSTABLE


def test_weak_stability_sign_flip_and_zero():
    assert hermite_biehler_weakly_stable(-(P([1, 1]) ** 2)).verdict == WEAKLY_STABLE
    assert hermite_biehler_weakly_stable(P()).verdict == UNSTABLE
    assert hermite_biehler_weakly_stable(P([5])).verdict == WEAKLY_STABLE


def test_weak_stability_catches_mixed_signs():
    # z^2 - z + 1 has roots with positive real part
    assert hermite_biehler_weakly_stable(P([1, -1, 1])).verdict == UNSTABLE
    # z^3 + 1 has roots at e^(i pi/3): degree gap in the split
    assert hermite_biehler_weakly_stable(P([1, 0, 0, 1])).verdict == UNSTABLE


def _isolation_certificate(p):
    """The weak-stability decision read off root isolations: each part's
    real-rootedness and root signs come from `_locate`, and the interlacing
    step from the index.  The reference for the remainder-sequence decision;
    returns (verdict, even_part, odd_part, interlacing, detail), a vanishing
    part given as None."""
    if p.is_zero:
        return UNSTABLE, None, None, None, "zero polynomial vanishes identically"
    if p.leading_coefficient < 0:
        p = -p
    even, odd = p.even_odd_split()

    if even.is_zero or odd.is_zero:
        part = even if odd.is_zero else odd
        iso = stability._locate(part, None)
        ok = iso.total_multiplicity == part.degree and all(r.hi <= 0 for r in iso)
        verdict = WEAKLY_STABLE if ok else UNSTABLE
        if odd.is_zero:
            return verdict, even, None, None, "degenerate split: odd part vanishes"
        return verdict, None, odd, None, "degenerate split: even part vanishes"

    even_iso, odd_iso = stability._locate(even, None), stability._locate(odd, None)
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
    interlacing = None
    if not problems:
        rows = stability._remainder_rows(even, odd)
        interlacing = stability._index(rows) == len(rows[0]) - len(rows[-1])
        if not interlacing:
            problems.append("odd part does not interlace the even part")
    verdict = WEAKLY_STABLE if not problems else UNSTABLE
    return verdict, even, odd, interlacing, "; ".join(problems)


def _weak_certificate_matches_isolation(p) -> str:
    cert = hermite_biehler_weakly_stable(p)
    ev = cert.evidence
    got = (cert.verdict, ev.even_part, ev.odd_part, ev.interlacing, ev.detail)
    assert got == _isolation_certificate(p), p
    return cert.verdict


def test_weak_stability_matches_isolation_on_the_family_grid():
    # The acceptance grid k in [-n, 5] (all stable) plus k = -2n and -3n,
    # below the conjectured threshold (about -4n/pi), for failing verdicts.
    verdicts = []
    for n in range(2, 13):
        for k in [*default_k_grid(n), -2 * n, -3 * n]:
            verdicts.append(_weak_certificate_matches_isolation(stability_family(n, k)))
    assert verdicts.count(UNSTABLE) >= 10 and verdicts.count(WEAKLY_STABLE) > 200


def _c8_products():
    # The acceptance suite's self-consistency products (same seed and draws):
    # each stable product of x + r and x^2 + bx + c is followed by its
    # multiple by x - s, the bad one.
    rng = random.Random(8675309)
    for _ in range(200):
        p = P([1])
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                p = p * P([F(rng.randint(1, 40), rng.randint(1, 8)), 1])
            else:
                b = F(rng.randint(1, 40), rng.randint(1, 8))
                c = F(rng.randint(1, 40), rng.randint(1, 8))
                p = p * P([c, b, 1])
        yield p
        yield p * P([-F(rng.randint(1, 20), rng.randint(1, 4)), 1])


def test_weak_stability_matches_isolation_on_random_products():
    for i, p in enumerate(_c8_products()):
        assert _weak_certificate_matches_isolation(p) == (UNSTABLE if i % 2 else WEAKLY_STABLE)


_nonnegative = st.fractions(min_value=0, max_value=6, max_denominator=4)
_positive = _nonnegative.filter(bool)
_signed = st.fractions(min_value=-6, max_value=6, max_denominator=4)
# Factors with every zero in Re <= 0: x + r (x itself at r = 0), x^2 + a
# (a pair on the imaginary axis) and x^2 + bx + c, with r, a, b, c >= 0.
_left_factors = st.one_of(
    _nonnegative.map(lambda r: P([r, 1])),
    _nonnegative.map(lambda a: P([a, 0, 1])),
    st.tuples(_nonnegative, _nonnegative).map(lambda bc: P([bc[1], bc[0], 1])),
)
# Factors with a zero in Re > 0: x - r and x^2 - a, r, a > 0, x^2 + bx + c
# with b < 0 or c < 0, and x^4 + bx^2 + c with b^2 < 4c, b >= 0, which
# leaves the coefficients nonnegative but puts the non-real-rooted factor
# y^2 + by + c into gcd(E, O).
_right_factors = st.one_of(
    _positive.map(lambda r: P([-r, 1])),
    _positive.map(lambda a: P([-a, 0, 1])),
    st.tuples(_nonnegative, _positive)
    .filter(lambda bc: bc[0] ** 2 < 4 * bc[1])
    .map(lambda bc: P([bc[1], 0, bc[0], 0, 1])),
    st.tuples(_positive, _signed).map(lambda bc: P([bc[1], -bc[0], 1])),
    st.tuples(_signed, _positive).map(lambda bc: P([-bc[1], bc[0], 1])),
)
_signed_scales = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)


@given(
    _signed_scales,
    st.lists(st.tuples(_left_factors, st.integers(1, 3)), min_size=1, max_size=4),
    st.lists(_right_factors, max_size=2),
    st.sampled_from(["none", "odd part vanishes", "even part vanishes"]),
)
@settings(max_examples=60, deadline=None)
def test_weak_stability_matches_isolation_on_constructed_products(scale, left, right, split):
    # Repeated zeros, powers of x, zeros on the imaginary axis, and p(x^2) or
    # x * p(x^2) for the degenerate splits, whose verdict only the reference
    # gives.
    p = P([scale])
    for q, m in left:
        p = p * q**m
    for q in right:
        p = p * q
    if split != "none":
        p = p.of_x_squared() * (X if split == "even part vanishes" else P([1]))
    verdict = _weak_certificate_matches_isolation(p)
    if split == "none":
        assert verdict == (UNSTABLE if right else WEAKLY_STABLE)


@given(st.lists(_nonnegative, min_size=1, max_size=5), _positive, st.data())
@settings(max_examples=50, deadline=None)
def test_weak_stability_matches_isolation_on_chosen_parts(even_roots, scale, data):
    # p = E(x^2) + x O(x^2) with E and O given by their roots -r <= 0, shared
    # and repeated ones included: weakly stable iff O's roots interlace E's.
    odd_roots = data.draw(st.lists(_nonnegative, min_size=len(even_roots) - 1, max_size=len(even_roots)))
    even, odd = P([1]), P([scale])
    for r in even_roots:
        even = even * P([r, 1])
    for r in odd_roots:
        odd = odd * P([r, 1])
    p = even.of_x_squared() + X * odd.of_x_squared()
    stable = _weakly_alternate([-r for r in even_roots], [-r for r in odd_roots])
    assert _weak_certificate_matches_isolation(p) == (WEAKLY_STABLE if stable else UNSTABLE)


def test_certificates_isolate_no_roots(monkeypatch):
    located = []
    locate = stability._locate

    def spy(p, width):
        located.append(p)
        return locate(p, width)

    monkeypatch.setattr(stability, "_locate", spy)
    # (x + 1)^3 (x^2 + 1) and x^2 + 1, whose odd part vanishes
    for p in (P([1, 1]) ** 3 * P([1, 0, 1]), P([1, 0, 1])):
        assert hermite_biehler_weakly_stable(p).verdict == WEAKLY_STABLE and located == []
    # A failing verdict names what failed without isolating either part.
    cert = hermite_biehler_weakly_stable(P([1, 1]) ** 3 * P([-1, 1]))
    assert cert.verdict == UNSTABLE and located == []
    assert cert.evidence.detail == "a part has a positive real root"
    # Strict verdicts, passing and failing, isolate nothing either.
    for p in (P([1, 2, 2, 1]), P([1, 1, 1, 1]), P([1, -1, 1])):
        is_strictly_hurwitz_stable(p)
    assert located == []


def test_decisions_read_no_fraction_coefficients(monkeypatch):
    # Every decision runs on integer rows; `coeffs` builds Fractions for
    # output only, so reading it anywhere on a decision path is refused.
    def refuse(self):
        raise AssertionError("a decision read Polynomial.coeffs")

    monkeypatch.setattr(Polynomial, "coeffs", property(refuse))
    for n in (3, 6, 9, 12):
        for k in default_k_grid(n)[::3]:
            p = stability_family(n, k)
            assert hermite_biehler_weakly_stable(p).verdict == WEAKLY_STABLE
            is_real_rooted(p)
        conj = lab.conjectured_threshold(n)
        for k, verdict in ((conj + F(1, 1000), STRICTLY_STABLE), (conj - F(1, 1000), UNSTABLE)):
            assert is_strictly_hurwitz_stable(stability_family(n, k)).verdict == verdict
    for n in range(2, 10):
        d, ab = eulerian_d(n), affine_b(n)
        assert is_real_rooted(d) and is_real_rooted(ab) and interlaces(d, ab)
    # Failing verdicts name their conditions on rows too.
    for p in (stability_family(5, F(-15, 2)), P([1, 1]) ** 3 * P([-1, 1]), P([-1, 0, 1, 2])):
        assert hermite_biehler_weakly_stable(p).verdict == UNSTABLE


def test_integer_certificates_build_no_fraction(monkeypatch):
    # From the family to the verdict, an integer input stays on integer
    # rows: signs are read off the row, not from Fraction coefficients.
    def refuse(cls, *args, **kwargs):
        raise AssertionError("an integer stability certificate built a Fraction")

    strict = [P([1, 1]) ** 5, P([2, 3, 5, 1]), P([1, 1]) ** 2 * P([1, 1, 1])]
    monkeypatch.setattr(F, "__new__", staticmethod(refuse))
    verdicts = {
        hermite_biehler_weakly_stable(stability_family(n, k)).verdict
        for n in range(2, 13)
        for k in range(-3 * n, 6)
    }
    strict_verdicts = [is_strictly_hurwitz_stable(p).verdict for p in strict]
    monkeypatch.undo()
    assert verdicts == {WEAKLY_STABLE, UNSTABLE}
    assert strict_verdicts == [STRICTLY_STABLE] * 3


def test_interlacing_failure_builds_one_part_sequence(monkeypatch):
    built = []
    remainder_rows = stability._remainder_rows

    def spy(p, q):
        built.append((p, q))
        return remainder_rows(p, q)

    monkeypatch.setattr(stability, "_remainder_rows", spy)
    # n = 5, k = -15/2 fails at the interlacing step alone.
    cert = hermite_biehler_weakly_stable(stability_family(5, F(-15, 2)))
    ev = cert.evidence
    assert cert.verdict == UNSTABLE and ev.interlacing is False
    assert ev.detail == "odd part does not interlace the even part"
    assert built.count((ev.even_part, ev.odd_part)) == 1


# ---------------------------------------------------------------------------
# Hurwitz determinants and strict stability


def test_hurwitz_determinants_examples():
    assert hurwitz_determinants(P([2, 3, 1])) == (3, 6)
    assert hurwitz_determinants(P([1, 5, 5, 1])) == (5, 24, 24)
    assert hurwitz_determinants(P([1, 0, 1])) == (0, 0)


def test_hurwitz_determinants_rational_coefficients():
    # (z + 1/2)(z + 2) = z^2 + 5/2 z + 1
    dets = hurwitz_determinants(P([1, F(5, 2), 1]))
    assert dets == (F(5, 2), F(5, 2))


def test_strict_stability_examples():
    assert is_strictly_hurwitz_stable(P([2, 3, 1])).verdict == STRICTLY_STABLE
    assert is_strictly_hurwitz_stable(P([1, 0, 1])).verdict == UNSTABLE
    assert is_strictly_hurwitz_stable(P([1, 2, 2, 1])).verdict == STRICTLY_STABLE
    assert hurwitz_determinants(P([1, 2, 2, 1])) == (2, 3, 3)


def test_strict_stability_requires_positive_leading():
    with pytest.raises(ValueError):
        is_strictly_hurwitz_stable(P([-2, -3, -1]))
    with pytest.raises(ValueError):
        is_strictly_hurwitz_stable(P())


def test_strict_certificate_invariant():
    p = P([1, 2, 2, 1])
    cert = is_strictly_hurwitz_stable(p)
    assert cert.verdict == STRICTLY_STABLE and all(d > 0 for d in hurwitz_determinants(p))


def test_strict_stability_evidence():
    # A failing strict verdict says which condition failed.
    cert = is_strictly_hurwitz_stable(P([1, -1, 1]))
    assert cert.verdict == UNSTABLE and cert.evidence.interlacing is None
    assert cert.evidence.detail == "a coefficient is not positive"
    # (1 + x)(1 + x^2): positive coefficients, zeros +-i on the axis
    cert = is_strictly_hurwitz_stable(P([1, 1, 1, 1]))
    assert cert.verdict == UNSTABLE and cert.evidence.interlacing is False
    assert cert.evidence.detail == "odd part does not strictly interlace the even part"
    assert cert.evidence == (P([1, 1]), P([1, 1]), False, cert.evidence.detail)
    # A vanishing part is None, as in the weak certificate.
    cert = is_strictly_hurwitz_stable(X)
    assert cert.verdict == UNSTABLE and cert.evidence.even_part is None
    assert cert.evidence.odd_part == P([1])
    cert = is_strictly_hurwitz_stable(P([3]))
    assert cert.verdict == STRICTLY_STABLE and cert.evidence.odd_part is None
    p = P([1, 2, 2, 1])
    cert = is_strictly_hurwitz_stable(p)
    assert cert.verdict == STRICTLY_STABLE and cert.evidence.detail == ""
    assert (cert.evidence.even_part, cert.evidence.odd_part) == p.even_odd_split()


def test_strict_verdict_matches_hurwitz_determinants():
    # The index verdict against the Routh-Hurwitz criterion it replaced.
    inputs = []
    for n in range(3, 13):
        conj = lab.conjectured_threshold(n)
        inputs += [stability_family(n, conj + F(j, 7)) for j in range(-7, 8)]
    inputs += list(_c8_products())
    rng = random.Random(17)
    for _ in range(150):
        p = P([rng.randint(1, 5)])
        for _ in range(rng.randint(0, 5)):
            r = rng.random()
            if r < 0.3:
                p = p * P([F(rng.randint(-3, 30), rng.randint(1, 6)), 1])
            elif r < 0.6:
                p = p * P([F(rng.randint(-3, 30), rng.randint(1, 6)), rng.randint(-3, 30), 1])
            elif r < 0.8:
                p = p * P([F(rng.randint(1, 9), rng.randint(1, 3)), 0, 1])  # zeros on the axis
            else:
                p = p * X
        inputs.append(p)
    inputs += [P([3]), P([F(1, 2)]), P([0, 1]), P([1, 1]), P([-1, 1]), P([F(2, 3), 5])]
    inputs += [X**k for k in range(2, 5)] + [P([1, 1]) * X**2, P([1, 0, 1]) ** 2]
    verdicts = {UNSTABLE: 0, STRICTLY_STABLE: 0}
    for p in inputs:
        cert = is_strictly_hurwitz_stable(p)
        assert (cert.verdict == STRICTLY_STABLE) == all(d > 0 for d in hurwitz_determinants(p)), p
        assert (cert.verdict == STRICTLY_STABLE) == (cert.evidence.detail == ""), p
        if cert.verdict == STRICTLY_STABLE:
            # Strict stability implies weak stability, on the same parts.
            weak = hermite_biehler_weakly_stable(p)
            assert weak.verdict == WEAKLY_STABLE, p
            assert weak.evidence[:2] == cert.evidence[:2], p
        verdicts[cert.verdict] += 1
    assert min(verdicts.values()) > 100


def test_strict_decisions_build_no_determinant(monkeypatch):
    calls = []
    determinants = stability.hurwitz_determinants

    def spy(p):
        calls.append(p)
        return determinants(p)

    monkeypatch.setattr(stability, "hurwitz_determinants", spy)
    for n in range(3, 9):
        lab.critical_k(n, F(1, 10**6))
    for p in _c8_products():
        is_strictly_hurwitz_stable(p)
    cert = is_strictly_hurwitz_stable(P([1, 2, 2, 1]))
    assert cert.verdict == STRICTLY_STABLE and cert.evidence.interlacing is True
    assert calls == []


# ---------------------------------------------------------------------------
# cross-criterion agreement


def _random_stable(rng: random.Random) -> Polynomial:
    p = P([1])
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            p = p * P([F(rng.randint(1, 30), rng.randint(1, 6)), 1])
        else:
            b = F(rng.randint(1, 30), rng.randint(1, 6))
            c = F(rng.randint(1, 30), rng.randint(1, 6))
            p = p * P([c, b, 1])
    return p


def test_criteria_agree_on_constructed_polynomials():
    rng = random.Random(101)
    for _ in range(40):
        p = _random_stable(rng)
        assert is_strictly_hurwitz_stable(p).verdict == STRICTLY_STABLE
        assert hermite_biehler_weakly_stable(p).verdict == WEAKLY_STABLE
        bad = p * P([-F(rng.randint(1, 10)), 1])
        assert is_strictly_hurwitz_stable(bad).verdict == UNSTABLE
        assert hermite_biehler_weakly_stable(bad).verdict == UNSTABLE


def test_sign_decisions_never_evaluate_fractions(monkeypatch):
    # Rational roots at 0, at the power of two -1 and at 3/2, the bisection
    # midpoint of the bracket (1, 2), reach every exact-zero test.
    f = P([1, 1]) * X * P([F(-3, 2), 1])
    p = f * P([1, 0, 1])

    def fraction_eval(self, point):
        raise AssertionError("a sign was decided by Fraction evaluation")

    monkeypatch.setattr(Polynomial, "__call__", fraction_eval)
    roots = [(-1, 1), (0, 1), (F(3, 2), 1)]
    assert [(r.lo, r.multiplicity) for r in isolate_real_roots(p) if r.is_point] == roots
    assert [r.multiplicity for r in isolate_real_roots(p * p, None)] == [2, 2, 2]
    assert approximate_real_roots(p, 5) == roots
    assert interlaces(P([F(1, 2), 1]) * P([-1, 1]), f)
    assert hermite_biehler_weakly_stable(p).verdict == UNSTABLE
    stable = P([2, 1]) * P([1, 1]) * X * P([1, 0, 1])
    assert hermite_biehler_weakly_stable(stable).verdict == WEAKLY_STABLE
    assert is_real_rooted(f * f) and not is_real_rooted(p)
    assert _sturm_count(p, -2, 2) == 3


def test_decisions_never_isolate_roots(monkeypatch):
    # Real-rootedness and interlacing come from the Cauchy index of one
    # remainder sequence; root isolation only produces output and evidence.
    shared = P([1, 1]) * P([-2, 0, 1])  # a rational and two irrational roots

    def refuse(*args):
        raise AssertionError("a decision went through root isolation")

    monkeypatch.setattr(stability, "_isolate_squarefree", refuse)
    monkeypatch.setattr(stability, "_locate", refuse)
    assert interlaces(shared * P([3, 1]), shared * P([1, 2]))
    assert not interlaces(P([20, 1]) * P([30, 1]), P([1, 1]) * P([10, 1]))
    with pytest.raises(ValueError, match="real-rooted"):
        interlaces(P([1, 0, 1]), P([1, 2, 1, 1]))
    assert is_real_rooted(shared**2) and not is_real_rooted(shared * P([1, 0, 1]))
    for report in (lab.verify_d_affine_b(6), lab.verify_half_reciprocal(6)):
        assert report.status == "pass" and report.checks_run >= 4
    scan = lab.scan_distinct_roots(6, lab.default_distinct_grid(6))
    assert scan.status == "pass" and scan.checks_run == 24
    report = lab.verify_family_stability(8, lab.default_k_grid(8))
    assert report.status == "pass" and report.checks_run == len(lab.default_k_grid(8))
    assert hermite_biehler_weakly_stable(P([0, 1, 0, 1])).verdict == WEAKLY_STABLE
    # Failing certificates name every failed condition without isolation:
    # the family below its threshold and at the CLI's pinned failing grid.
    details = set()
    for n in range(2, 13):
        for k in (-2 * n, -3 * n, -100, -13, -9, F(-15, 2), -5, F(-9, 2)):
            cert = hermite_biehler_weakly_stable(stability_family(n, k))
            if cert.verdict == UNSTABLE:
                details.update(cert.evidence.detail.split("; "))
    named = {d for d in details if not d.startswith("degenerate split")}
    assert len(named) == 6 and "odd part does not interlace the even part" in named
    cert = hermite_biehler_weakly_stable(P([-1, 0, 1]))
    assert cert.verdict == UNSTABLE and cert.evidence.detail == "degenerate split: odd part vanishes"


# ---------------------------------------------------------------------------
# multiplicity attribution against independent references

_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_linear = _rationals.map(lambda r: P([-r, 1]))
_quadratic = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(lambda bc: P([bc[1], bc[0], 1]))


@given(st.lists(st.tuples(st.one_of(_linear, _quadratic), st.integers(1, 3)), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_isolation_multiplicities_match_sturm_counts(factor_powers):
    # The reference comes from the drawn factors alone.  A factor q is x - r
    # or x^2 + bx + c, whose roots are real iff its discriminant is >= 0 and
    # coincide iff it is 0; a drawn (q, m) adds m times q's own multiplicity
    # at each of its roots.
    p = P([1])
    for q, m in factor_powers:
        p = p * q**m

    def disc(q):
        return q.coeffs[1] ** 2 - 4 * q.coeffs[0] if q.degree == 2 else 1

    real = sum(m * q.degree for q, m in factor_powers if disc(q) >= 0)
    for min_width in (F(1, 256), None):
        iso = isolate_real_roots(p, min_width)
        assert iso.total_multiplicity == real
        for root in iso:
            if root.is_point:
                hits = [(q, m) for q, m in factor_powers if q(root.lo) == 0]
            else:
                hits = [(q, m) for q, m in factor_powers if _sturm_count(q, root.lo, root.hi) == 1]
            assert root.multiplicity == sum(m * (2 if disc(q) == 0 else 1) for q, m in hits)


# Real-rooted factors with exactly known roots: x - r has the root r and
# x^2 - c the roots +-sqrt(c).  A root v is keyed by v*|v| (so r*|r| or +-c),
# an exact, strictly increasing image of v.
_keyed_linear = _rationals.map(lambda r: (P([-r, 1]), [r * abs(r)]))
_keyed_quadratic = st.fractions(min_value=F(1, 4), max_value=9, max_denominator=4).map(
    lambda c: (P([-c, 0, 1]), [c, -c])
)


def _weakly_alternate(f_keys, g_keys) -> bool:
    r, s = sorted(f_keys, reverse=True), sorted(g_keys, reverse=True)
    return all(r[i] >= s[i] for i in range(len(s))) and all(
        s[i] >= r[i + 1] for i in range(len(r) - 1)
    )


@given(st.lists(st.one_of(_keyed_linear, _keyed_quadratic), min_size=1, max_size=4), st.data())
@settings(max_examples=80, deadline=None)
def test_interlaces_matches_known_root_order(pool, data):
    # f and g draw factors from one pool, so they share roots
    def side():
        picks = st.tuples(st.sampled_from(pool), st.integers(1, 3))
        poly, keys = P([1]), []
        for (q, roots), m in data.draw(st.lists(picks, min_size=1, max_size=4)):
            poly, keys = poly * q**m, keys + roots * m
        return poly, keys

    (f, f_keys), (g, g_keys) = side(), side()
    if g.degree > f.degree:
        (f, f_keys), (g, g_keys) = (g, g_keys), (f, f_keys)
    target = data.draw(st.sampled_from([f.degree - 1, f.degree]))
    linears = [factor for factor in pool if factor[0].degree == 1]
    while g.degree < target:
        q, roots = data.draw(st.sampled_from(linears) if linears else _keyed_linear)
        g, g_keys = g * q, g_keys + roots
    assert interlaces(g, f) == _weakly_alternate(f_keys, g_keys)
    if g.degree == f.degree:
        assert interlaces(f, g) == _weakly_alternate(g_keys, f_keys)


# x^2 + c with c > 0: a pair of non-real roots.
_nonreal_quadratic = st.fractions(min_value=F(1, 4), max_value=9, max_denominator=4).map(
    lambda c: P([c, 0, 1])
)


@given(
    st.lists(st.one_of(_rationals.map(lambda r: P([-r, 1])), _nonreal_quadratic), min_size=1, max_size=4),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_interlaces_keeps_its_contract(pool, data):
    # The contract, written out: a ValueError unless both inputs are
    # real-rooted (here: drew no x^2 + c), else the bare index
    # Ind(g/f) = deg f - deg gcd(f, g).  f and g draw from one pool, so they
    # may share non-real factors.
    def side():
        picks = st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 2)), min_size=1, max_size=3)
        poly, real = P([1]), True
        for q, m in data.draw(picks):
            poly, real = poly * q**m, real and q.degree == 1
        return poly, real

    (f, f_real), (g, g_real) = side(), side()
    if g.degree > f.degree:
        (f, f_real), (g, g_real) = (g, g_real), (f, f_real)
    target = data.draw(st.sampled_from([f.degree - 1, f.degree]))
    while g.degree < target:
        g = g * P([-data.draw(_rationals), 1])
    g = g * data.draw(_positive)
    assert (is_real_rooted(f), is_real_rooted(g)) == (f_real, g_real)
    if f_real and g_real:
        rows = stability._remainder_rows(f, g)
        assert interlaces(g, f) == (stability._index(rows) == len(rows[0]) - len(rows[-1]))
    else:
        with pytest.raises(ValueError, match="^interlacing requires real-rooted polynomials$"):
            interlaces(g, f)
