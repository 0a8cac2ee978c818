"""Sturm chains, root isolation, interlacing, and both stability criteria."""

import itertools
import random
import signal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerstab import stability
from eulerstab.eulerian import affine_b, eulerian_a, eulerian_d, half_b
from eulerstab.lab import padded_stability_source
from eulerstab.polynomial import Polynomial
from eulerstab.stability import (
    STRICTLY_STABLE,
    UNSTABLE,
    WEAKLY_STABLE,
    approximate_real_roots,
    count_real_roots,
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


def test_sturm_chain_examples():
    assert sturm_chain(P([-2, 0, 1])).count(-2, 2) == 2
    assert sturm_chain(P([1, 0, 1])).count(-10, 10) == 0
    assert sturm_chain(P([1, 4, 1])).count(-4, 0) == 2


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
    assert count_real_roots(P([1, 4, 1]), -4, 0) == 2
    assert count_real_roots(P([1, 0, 1]), -10, 10) == 0
    assert count_real_roots(X, -1, 1) == 1


def test_count_real_roots_rejects_root_endpoints():
    with pytest.raises(ValueError):
        count_real_roots(X, 0, 1)
    with pytest.raises(ValueError):
        count_real_roots(X, -1, 0)
    with pytest.raises(ValueError):
        count_real_roots(X, 1, -1)


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
    assert count_real_roots(p, -10, 10) == 4
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
    first, second = iso.roots
    # roots are -2 +- sqrt(3), approximately -3.732 and -0.268
    assert F(-38, 10) <= first.lo < first.hi <= F(-37, 10)
    assert F(-3, 10) <= second.lo < second.hi <= F(-2, 10)


def test_isolate_repeated_rational_root():
    iso = isolate_real_roots(P([1, 1]) ** 2)
    assert len(iso) == 1
    (root,) = iso.roots
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
    for a, b in zip(iso.roots, iso.roots[1:]):
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


# ---------------------------------------------------------------------------
# real-rootedness


def test_is_real_rooted_examples():
    assert is_real_rooted(eulerian_d(3))
    assert not is_real_rooted(P([1, 0, 1]))
    assert is_real_rooted(affine_b(4))
    assert is_real_rooted(P([5]))
    with pytest.raises(ValueError):
        is_real_rooted(P())


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


# ---------------------------------------------------------------------------
# weak stability (even/odd criterion)


def test_weak_stability_examples():
    assert hermite_biehler_weakly_stable(P([1, 1]) ** 3).verdict == WEAKLY_STABLE
    # x^2 + 1: odd part vanishes, even part has the single root -1
    cert = hermite_biehler_weakly_stable(P([1, 0, 1]))
    assert cert.verdict == WEAKLY_STABLE
    assert cert.evidence.odd_part_roots is None
    assert hermite_biehler_weakly_stable(P([-1, 0, 1])).verdict == UNSTABLE


def test_weak_stability_evidence():
    cert = hermite_biehler_weakly_stable(P([1, 1]) ** 3)
    ev = cert.evidence
    assert ev.interlacing is True
    assert [r.multiplicity for r in ev.even_part_roots] == [1]
    assert [r.multiplicity for r in ev.odd_part_roots] == [1]
    assert all(r.hi <= 0 for r in ev.even_part_roots)


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
    assert is_strictly_hurwitz_stable(P([1, 2, 2, 1])).evidence.determinants == (2, 3, 3)


def test_strict_stability_requires_positive_leading():
    with pytest.raises(ValueError):
        is_strictly_hurwitz_stable(P([-2, -3, -1]))
    with pytest.raises(ValueError):
        is_strictly_hurwitz_stable(P())


def test_strict_certificate_invariant():
    cert = is_strictly_hurwitz_stable(P([1, 2, 2, 1]))
    assert all(d > 0 for d in cert.evidence.determinants)


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
    assert count_real_roots(p, -2, 2) == 3
    with pytest.raises(ValueError):
        count_real_roots(p, -1, 2)


def test_decisions_never_isolate_roots(monkeypatch):
    # Real-rootedness and interlacing come from the Cauchy index of one
    # remainder sequence; root isolation only produces output and evidence.
    from eulerstab import lab

    shared = P([1, 1]) * P([-2, 0, 1])  # a rational and two irrational roots
    # The weak-stability certificate isolates each part for its evidence
    # fields, so the padded source's certificate is built before the spy.
    cert = hermite_biehler_weakly_stable(padded_stability_source(6))
    assert cert.verdict == WEAKLY_STABLE

    def refuse(*args):
        raise AssertionError("a decision went through root isolation")

    monkeypatch.setattr(stability, "_isolate_squarefree", refuse)
    monkeypatch.setattr(lab, "hermite_biehler_weakly_stable", lambda p: cert)
    assert interlaces(shared * P([3, 1]), shared * P([1, 2]))
    assert not interlaces(P([20, 1]) * P([30, 1]), P([1, 1]) * P([10, 1]))
    with pytest.raises(ValueError, match="real-rooted"):
        interlaces(P([1, 0, 1]), P([1, 2, 1, 1]))
    assert is_real_rooted(shared**2) and not is_real_rooted(shared * P([1, 0, 1]))
    for report in (lab.verify_d_affine_b(6), lab.verify_half_reciprocal(6)):
        assert report.status == "pass" and report.checks_run >= 4
    scan = lab.scan_distinct_roots(6, lab.default_distinct_grid(6))
    assert scan.status == "pass" and scan.checks_run == 24


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
                hits = [(q, m) for q, m in factor_powers if count_real_roots(q, root.lo, root.hi) == 1]
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
