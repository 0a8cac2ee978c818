"""Differential tests against sympy's independent real-root and squarefree code."""

from collections import Counter
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eulerstab.polynomial import Polynomial, _remainder_rows, poly_gcd
from eulerstab.stability import (
    _index,
    approximate_real_roots,
    hermite_biehler_weakly_stable,
    interlaces,
    is_real_rooted,
    is_strictly_hurwitz_stable,
    isolate_real_roots,
    squarefree_decompose,
    sturm_chain,
)

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ  # noqa: E402
from sympy.polys.rootisolation import dup_count_complex_roots  # noqa: E402
from sympy.polys.subresultants_qq_zz import sign_seq, sturm_q  # noqa: E402

P = Polynomial
_x = sympy.Symbol("x")

_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_linear = _rationals.map(lambda r: P([-r, 1]))


def _irreducible(bc) -> bool:
    disc = bc[0] ** 2 - 4 * bc[1]
    return disc < 0 or isqrt(disc) ** 2 != disc


# x^2 + b x + c without rational roots: real pairs (x^2 - 2) and complex pairs (x^2 + 1)
_quadratic = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(_irreducible).map(
    lambda bc: P([bc[1], bc[0], 1])
)
_scales = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
_powers = st.tuples(st.one_of(_linear, _quadratic), st.integers(1, 3))

# +-2^e * r with e in -12..12 and r in [1, 2], r = 1 (an exact power of two)
# included: roots across many octaves, some on the isolation's magnitude
# brackets, whose exact-point gaps they exercise.
_octave_roots = st.builds(
    lambda sign, e, r: sign * F(2) ** e * r,
    st.sampled_from([-1, 1]),
    st.integers(-12, 12),
    st.just(F(1)) | st.fractions(min_value=1, max_value=2, max_denominator=8),
)
_octave_powers = st.tuples(
    st.one_of(_octave_roots.map(lambda r: P([-r, 1])), _quadratic), st.integers(1, 3)
)


@st.composite
def _products(draw, powers=_powers):
    """A nonzero scalar times powers of linear factors and irreducible quadratics."""
    p = P([draw(_scales)])
    for q, m in draw(st.lists(powers, min_size=1, max_size=4)):
        p = p * q**m
    return p


_any_products = _products() | _products(_octave_powers)


def _rational(c: F):
    return sympy.Rational(c.numerator, c.denominator)


def _to_sympy(p: Polynomial):
    return sympy.Poly([_rational(c) for c in reversed(p.coeffs)], _x, domain="QQ")


def _to_fraction(r) -> F:
    return F(int(r.p), int(r.q))


def _from_sympy(q) -> Polynomial:
    return P([_to_fraction(c) for c in reversed(sympy.Poly(q, _x, domain="QQ").all_coeffs())])


# interior zeros, the zero polynomial and denominators up to 12
_dense = st.lists(
    st.fractions(min_value=-50, max_value=50, max_denominator=12) | st.just(F(0)), max_size=9
).map(P)


@given(_dense, _dense)
@settings(max_examples=100, deadline=None)
def test_mul_matches_sympy(p, q):
    assert p * q == _from_sympy(_to_sympy(p).mul(_to_sympy(q)))


@given(_products())
@settings(max_examples=60, deadline=None)
def test_is_real_rooted_matches_sympy(p):
    assert is_real_rooted(p) == (len(sympy.real_roots(_to_sympy(p))) == p.degree)


@given(_products(), _rationals, _rationals)
@settings(max_examples=60, deadline=None)
def test_count_real_roots_matches_sympy(p, lo, hi):
    assume(lo < hi)
    sp, a, b = _to_sympy(p), _rational(lo), _rational(hi)
    assume(sp.eval(a) != 0 and sp.eval(b) != 0)
    chain = sturm_chain(p)
    assert chain.variations(lo) - chain.variations(hi) == sp.count_roots(a, b)


@given(_products(), _products(), _products())
@settings(max_examples=60, deadline=None)
def test_poly_gcd_matches_sympy(a, b, common):
    p, q = a * common, b * common
    assert poly_gcd(p, q) == _from_sympy(sympy.gcd(_to_sympy(p), _to_sympy(q)).monic())


@given(_products())
@settings(max_examples=60, deadline=None)
def test_sturm_rows_match_sympy(p):
    # sympy's `sturm` replaces p by its monic squarefree part first, so the
    # reference is `sturm_q(p, p')`: the Sturm sequence of p and p' by
    # remainders over Q, repeated factors and the sign of lc(p) kept.
    sp = _to_sympy(p).as_expr()
    expected = [_from_sympy(q) for q in sturm_q(sp, sympy.diff(sp, _x), _x)]
    rows = sturm_chain(p).rows
    assert len(rows) == len(expected)
    for row, q in zip(rows, expected):
        scale = q.leading_coefficient / row[-1]
        assert scale > 0
        assert q == P([scale * c for c in row])


@given(_products())
@settings(max_examples=60, deadline=None)
def test_squarefree_decompose_matches_sympy(p):
    _, factors = _to_sympy(p).sqf_list()
    expected = {
        (tuple(_to_fraction(c) for c in reversed(q.monic().all_coeffs())), m) for q, m in factors
    }
    assert {(q.coeffs, m) for q, m in squarefree_decompose(p)} == expected


_integer_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=8).map(P).filter(
    lambda p: not p.is_zero
)


@given(_integer_polys, _integer_polys, _integer_polys)
@settings(max_examples=60, deadline=None)
def test_cauchy_index_matches_sympy_sturm_q(f, g, common):
    # Ind(g/f) = V(-inf) - V(+inf) on sympy's signed remainder sequence of f
    # and g over Q; sturm_q puts the higher degree first, so deg f >= deg g.
    f, g = f * common, g * common
    if f.degree < g.degree:
        f, g = g, f
    assume(f.degree > 0)
    seq = sturm_q(_to_sympy(f).as_expr(), _to_sympy(g).as_expr(), _x)
    at_plus = sign_seq(seq, _x)
    at_minus = [s * (-1) ** sympy.degree(q, _x) for s, q in zip(at_plus, seq)]

    def variations(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    assert _index(_remainder_rows(f, g)) == variations(at_minus) - variations(at_plus)


# real-rooted factors only: rational roots and real irrational pairs
_real_quadratic = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda bc: _irreducible(bc) and bc[0] ** 2 > 4 * bc[1]
).map(lambda bc: P([bc[1], bc[0], 1]))
_real_powers = st.tuples(st.one_of(_linear, _real_quadratic), st.integers(1, 2))


@st.composite
def _interlacing_candidates(draw):
    """(g, f): real-rooted, positive leading coefficients, deg g in
    {deg f - 1, deg f}, sharing a factor such as x^2 - 2."""
    common = draw(st.just(P([-2, 0, 1])) | _products(_real_powers))
    f, g = (common * draw(_products(_real_powers)) for _ in range(2))
    if g.degree > f.degree:
        f, g = g, f
    target = draw(st.sampled_from([f.degree - 1, f.degree]))
    while g.degree < target:
        g = g * draw(_linear)
    return tuple(q if q.leading_coefficient > 0 else -q for q in (g, f))


def _weakly_alternate(f, g) -> bool:
    """r_1 >= s_1 >= r_2 >= s_2 >= ... on sympy's exact real roots, r of f
    and s of g, each descending with multiplicity."""
    r = sympy.real_roots(_to_sympy(f))[::-1]
    s = sympy.real_roots(_to_sympy(g))[::-1]
    return all(bool(a >= b) for a, b in zip(r, s)) and all(bool(b >= a) for a, b in zip(r[1:], s))


@given(_interlacing_candidates())
@settings(max_examples=60, deadline=None)
def test_interlaces_matches_sympy_root_order(pair):
    g, f = pair
    assert interlaces(g, f) == _weakly_alternate(f, g)
    if g.degree == f.degree:
        assert interlaces(f, g) == _weakly_alternate(g, f)


@given(_any_products)
@settings(max_examples=60, deadline=None)
def test_isolation_matches_sympy_real_roots(p):
    roots = Counter(sympy.real_roots(_to_sympy(p)))
    for min_width in (F(1, 256), None):
        iso = isolate_real_roots(p, min_width)
        assert len(iso) == len(roots)
        for root, mult in roots.items():
            holders = []
            for loc in iso:
                lo, hi = _rational(loc.lo), _rational(loc.hi)
                if root == lo if loc.is_point else bool(lo < root) and bool(root < hi):
                    holders.append(loc)
            assert len(holders) == 1
            assert holders[0].multiplicity == mult


@given(_any_products)
@settings(max_examples=60, deadline=None)
def test_approximate_roots_carry_twenty_digits(p):
    # sympy's rational intervals [a, b] of width <= 10^-30 hold each root r,
    # so |mid - r| <= |r| * 10^-20 is proved by max|mid - a|, |mid - b| <=
    # min(|a|, |b|) * 10^-20 (real roots of these products are 0 or at least
    # 2^-12 in magnitude).
    approx = approximate_real_roots(p, 20)
    exact = _to_sympy(p).intervals(eps=sympy.Rational(1, 10**30))
    assert len(approx) == len(exact)
    for (mid, mult), ((a, b), m) in zip(approx, exact):
        a, b = _to_fraction(a), _to_fraction(b)
        assert mult == m
        assert max(abs(mid - a), abs(mid - b)) <= min(abs(a), abs(b)) / 10**20


@given(_any_products)
@settings(max_examples=60, deadline=None)
def test_weak_stability_names_the_conditions_sympy_finds(p):
    # Roots of both signs and complex pairs.  Each part's real-rootedness
    # and positive roots come from sympy's own real-root code; count_roots
    # counts distinct roots in the closed interval [0, oo).
    cert = hermite_biehler_weakly_stable(p)
    even, odd = cert.evidence.even_part, cert.evidence.odd_part
    assume(cert.verdict == "unstable" and even is not None and odd is not None)
    detail = cert.evidence.detail.split("; ")
    parts = {"even": _to_sympy(even), "odd": _to_sympy(odd)}
    for name, part in parts.items():
        real_rooted = len(part.real_roots()) == part.degree()
        assert (f"{name} part is not real-rooted" in detail) == (not real_rooted)
    positive = any(part.count_roots(0) - (part.eval(0) == 0) > 0 for part in parts.values())
    assert ("a part has a positive real root" in detail) == positive


# No zero on the imaginary axis: x - r with r != 0, and x^2 + b x + c with
# b != 0 (complex roots have real part -b/2) and c != 0 (no root at 0).
_off_axis_powers = st.tuples(
    st.one_of(
        _rationals.filter(bool).map(lambda r: P([-r, 1])),
        st.tuples(st.integers(-6, 6).filter(bool), st.integers(-6, 6).filter(bool)).map(
            lambda bc: P([bc[1], bc[0], 1])
        ),
    ),
    st.integers(1, 3),
)


@given(_products(_off_axis_powers))
@example(P([4, -1, 1]) * P([3, 1]) ** 2)  # positive coefficients, two roots with Re > 0
@settings(max_examples=60, deadline=None)
def test_strict_stability_matches_sympy_left_half_plane_count(p):
    # Every root lies in the open square |Re|, |Im| < B (the Cauchy bound) and
    # off the imaginary axis, so p is strictly stable iff the rectangle
    # [-B, 0] x [-B, B] holds all deg p roots, counted with multiplicity.
    if p.leading_coefficient < 0:
        p = -p
    B = 1 + max(abs(c / p.leading_coefficient) for c in p.coeffs[:-1])
    B = QQ(B.numerator, B.denominator)
    f = [QQ(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    inside = dup_count_complex_roots(f, QQ, inf=(-B, -B), sup=(QQ(0), B))
    assert (is_strictly_hurwitz_stable(p).verdict == "strictly_stable") == (inside == p.degree)
