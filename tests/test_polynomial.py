"""Exact polynomial arithmetic: examples plus ring-axiom property tests."""

from fractions import Fraction as F
from itertools import permutations
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerstab.polynomial import (
    NEG_INFINITY,
    Polynomial,
    _remainder_rows,
    interleave,
    poly_gcd,
    primitive_integer_coeffs,
)

P = Polynomial
X = Polynomial.x()


# ---------------------------------------------------------------------------
# rational scalar contract (fractions.Fraction supplies the canonical form)


def test_rational_canonical_form():
    r = F(6, -4)
    assert r.numerator == -3 and r.denominator == 2
    assert F(0, 5) == F(0, 1)
    assert F("12/18") == F(2, 3)


# ---------------------------------------------------------------------------
# construction and normalization


def test_trailing_zeros_are_stripped():
    assert P([1, 2, 0, 0]) == P([1, 2])
    assert P([0, 0]).is_zero
    assert P([]).degree == NEG_INFINITY
    assert P([5]).degree == 0


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        P([0.5])
    with pytest.raises(TypeError):
        P([1, 1])(0.5)
    with pytest.raises(TypeError):
        P([1]) * 0.5
    with pytest.raises(TypeError):
        P([1]) + 0.5


def test_repr_and_str():
    assert str(P([1, 4, 1])) == "1 + 4*x + x^2"
    assert str(P([0, -1])) == "-x"
    assert str(P()) == "0"


def _fraction_str(p):
    """Reference printer over the Fraction coefficients."""
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            xs = "x" if i == 1 else f"x^{i}"
            parts.append(xs if c == 1 else f"-{xs}" if c == -1 else f"{c}*{xs}")
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += " - " + term[1:] if term.startswith("-") else " + " + term
    return out


# Units and zeros at every degree (so ±1 constants, ±x, interior zeros and
# negative leading terms), rationals, and integers too wide for 64 bits.
str_coeffs = (
    st.sampled_from([0, 1, -1]) | st.fractions(-9, 9, max_denominator=12) | st.integers(-(10**30), 10**30)
)


@given(st.lists(str_coeffs, max_size=8).map(P))
@settings(max_examples=300, deadline=None)
@example(P())
@example(P([0, 0, 0]))
@example(P([-1, -1, -1]))
@example(P([1, 0, 0, F(-1, 2)]))
@example(P([F(-3, 4), 1, 0, -1]))
def test_str_matches_the_fraction_printer(p):
    assert str(p) == _fraction_str(p)


@pytest.mark.parametrize("coeffs", [[], [1, -4, 0, 2], [F(1, 2), 3, F(-5, 4)], [F(4, 2), 7], [10**40, -1]])
def test_coeff_strings_are_str_of_each_coefficient(coeffs):
    p = P(coeffs)
    assert p.coeff_strings() == [str(c) for c in p.coeffs]
    assert repr(p) == f"Polynomial([{', '.join(str(c) for c in p.coeffs)}])"


# ---------------------------------------------------------------------------
# ring operations


def test_add_identity():
    assert P([1, 1]) + P() == P([1, 1])


def test_mul_binomial_square():
    assert P([1, 1]) * P([1, 1]) == P([1, 2, 1])


def test_mul_difference_of_squares():
    assert P([1, 1]) * P([1, -1]) == P([1, 0, -1])


def test_mul_of_integer_polynomials_runs_no_fraction_arithmetic(monkeypatch):
    # The product convolves integer rows; Fraction arithmetic in its inner
    # loop would cost one Fraction multiply and add per coefficient pair.
    def refuse(self, other):
        raise AssertionError("Fraction arithmetic in an integer product")

    p, q = P([1, -2, 0, 3]), P([4, 0, 5])
    monkeypatch.setattr(F, "__mul__", refuse)
    monkeypatch.setattr(F, "__add__", refuse)
    product = p * q
    monkeypatch.undo()
    assert product == P([4, -8, 5, 2, 0, 15])


def test_ring_operations_build_no_fraction(monkeypatch):
    # A polynomial is an integer row over one denominator; apart from
    # division, no operation makes a Fraction until coeffs is read.
    def refuse(cls, *args):
        raise AssertionError("a ring operation built a Fraction")

    p, q, half = P([F(1, 2), -2, 0, F(3, 4)]), P([4, F(-5, 6), 5]), F(1, 2)
    monkeypatch.setattr(F, "__new__", staticmethod(refuse))
    results = [p + q, p - q, -p, p * q, half * p, p + half, 3 - p, p**3, p.derivative(), p.monic()]
    results += [*p.even_odd_split(), p.reciprocal(5), interleave(p, q), p.of_x_squared(), p == q, hash(p)]
    monkeypatch.undo()
    assert results[3] == P(_schoolbook_product(p, q))
    assert results[9] == p * F(4, 3) and results[12] == P([0, 0, F(3, 4), 0, -2, F(1, 2)])


def test_scalar_and_pow():
    assert 3 * P([1, 1]) == P([3, 3])
    assert P([1, 1]) ** 3 == P([1, 3, 3, 1])
    assert P([1, 1]) ** 0 == P([1])


def test_pow_squares_only_while_bits_remain(monkeypatch):
    calls = []
    mul = Polynomial.__mul__

    def counting_mul(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    assert P([1, 1]) ** 8 == P([1, 8, 28, 56, 70, 56, 28, 8, 1])
    # 1 * base, then three squarings; no fourth square past the top bit
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# derivative


def test_derivative_examples():
    assert P([1]).derivative() == P()
    assert P([1, 4, 1]).derivative() == P([4, 2])
    assert P([0, 0, 0, 1]).derivative() == P([0, 0, 3])


# ---------------------------------------------------------------------------
# reciprocal


def test_reciprocal_examples():
    assert P([1, 3]).reciprocal(2) == P([0, 3, 1])
    assert P([1, 2, 1]).reciprocal(2) == P([1, 2, 1])
    assert P([1]).reciprocal(3) == P([0, 0, 0, 1])


def test_reciprocal_requires_m_at_least_degree():
    with pytest.raises(ValueError):
        P([1, 2, 1]).reciprocal(1)


# ---------------------------------------------------------------------------
# even/odd split and interleave


def test_split_examples():
    assert P([1, 3, 3, 1]).even_odd_split() == (P([1, 3]), P([3, 1]))
    assert P([1, 2, 1]).even_odd_split() == (P([1, 1]), P([2]))
    assert P([7]).even_odd_split() == (P([7]), P())


def test_interleave_examples():
    assert interleave(P([1, 3]), P([3, 1])) == P([1, 1]) ** 3
    assert interleave(P([1, 2]), P()) == P([1, 0, 2])
    assert interleave(P(), P([1])) == X


def test_of_x_squared():
    assert P([1, 2, 3]).of_x_squared() == P([1, 0, 2, 0, 3])


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_at_one_counts_group_orders():
    # sum of coefficients of the rank-2 type-A distribution is |S_3|
    assert len(list(permutations(range(3)))) == 6
    assert P([1, 4, 1])(1) == 6
    # and for the rank-2 type-B distribution, 2^2 * 2! = 8
    assert P([1, 6, 1])(1) == 8


def test_evaluate_at_zero_is_constant_term():
    assert P([7, 1, 5])(0) == 7
    assert P([1, 4, 1])(F(1, 2)) == F(13, 4)


def _fraction_horner(p, x):
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


# large numerators and denominators next to small ones, zero, and ints
wide_rationals = st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**40))
eval_coeffs = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=12) | wide_rationals
eval_points = st.just(0) | st.integers(-50, 50) | st.fractions(-9, 9, max_denominator=12) | wide_rationals


@given(st.lists(eval_coeffs, max_size=7).map(P), eval_points)
@settings(max_examples=300, deadline=None)
def test_evaluation_matches_fraction_horner(p, x):
    # the zero polynomial (empty list) and constants (one coefficient) included
    value = p(x)
    assert value == _fraction_horner(p, x)
    assert type(value) is F


# ---------------------------------------------------------------------------
# division and gcd


def test_divmod():
    q, r = divmod(P([1, 4, 1]), P([1, 1]))
    assert q * P([1, 1]) + r == P([1, 4, 1])
    assert r.degree < 1


def test_exact_div_raises_on_remainder():
    with pytest.raises(ValueError):
        P([1, 4, 1]).exact_div(P([1, 1]))
    assert P([1, 2, 1]).exact_div(P([1, 1])) == P([1, 1])


def test_gcd_examples():
    assert poly_gcd(P([-1, 0, 1]), P([-1, 1])) == P([-1, 1])
    assert poly_gcd(P([1, 4, 1]), P([1])) == P([1])
    assert poly_gcd(P([1, 1]) ** 2, P([1, 1]) * P([2, 1])) == P([1, 1])


def test_gcd_of_two_zeros_is_an_error():
    with pytest.raises(ValueError):
        poly_gcd(P(), P())


def _primitive_form(f):
    """f scaled by the positive rational that makes its entries coprime
    integers, computed from the Fraction coefficients."""
    den = lcm(*[c.denominator for c in f.coeffs])
    ints = [int(c * den) for c in f.coeffs]
    g = gcd(*ints)
    return tuple(v // g for v in ints)


def _signed_remainder_rows(p, q):
    """The nonzero ones among p and q, then -rem(f, g) of the last two
    (f, g) by divmod over Q, up to the first zero remainder, each in
    primitive integer form."""
    seq = [f for f in (p, q) if not f.is_zero]
    while len(seq) > 1:
        r = seq[-2] % seq[-1]
        if r.is_zero:
            break
        seq.append(-r)
    return [_primitive_form(f) for f in seq]


# zeros drawn often, for interior zero coefficients and degree gaps > 1;
# rationals, for divisor leading coefficients that do not divide the top
kernel_coeffs = st.just(0) | st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=5)
kernel_polys = st.lists(kernel_coeffs, max_size=8).map(P)
shared_factors = st.lists(st.integers(-4, 4), min_size=2, max_size=3).map(P).filter(lambda h: not h.is_zero)


@given(kernel_polys, kernel_polys, shared_factors)
@example(P([1, 0, 0, 0, 1]), P([0, 0, 0, 1]), P([1]))  # the degree drops from 3 to 0
@example(P([1, 2, -3]), P([-1, -5]), P([3, -2]))  # negative leading coefficients
@example(P([1, 1]), P([1, 0, 2]), P([1, 1]))  # deg p < deg q
@example(P(), P([2, 4]), P([1, 1]))  # one zero input
@example(P([3, 0, 0, 2, 0, 1]), P([0, 5, 0, -4]), P([-2, 0, 3]))  # interior zeros
@settings(max_examples=300, deadline=None)
def test_remainder_rows_match_the_signed_remainder_sequence_over_q(p, q, h):
    # (p*h, q*h) share the factor h, so their last row is nonconstant
    # whenever h is: the sequence stops at a zero remainder, not a constant.
    for a, b in ((p, q), (p * h, q * h)):
        assert _remainder_rows(a, b) == _signed_remainder_rows(a, b)


def test_remainder_rows_end_at_a_shared_factor():
    h = P([1, 1])
    rows = _remainder_rows(h**2 * P([-2, 1]), h * P([3, 1]))
    assert rows == _signed_remainder_rows(h**2 * P([-2, 1]), h * P([3, 1]))
    assert rows[-1] == (-1, -1)  # -(x + 1), the gcd up to sign


def test_primitive_integer_coeffs():
    assert primitive_integer_coeffs(P([F(1, 2), F(3, 4)])) == (2, 3)
    assert primitive_integer_coeffs(P([-4, -6])) == (-2, -3)


# ---------------------------------------------------------------------------
# property tests

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)
polys = st.lists(rationals, max_size=6).map(P)
small_polys = st.lists(rationals, max_size=4).map(P)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == P()


def _schoolbook_product(p, q):
    if p.is_zero or q.is_zero:
        return []
    out = [F(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return out


# interior zeros, the zero polynomial (all zeros) and negative leading terms
product_factors = st.lists(rationals | st.just(F(0)), max_size=7).map(P)


@given(product_factors, product_factors)
@settings(max_examples=200, deadline=None)
def test_mul_matches_schoolbook_fraction_convolution(p, q):
    product = p * q
    assert product.coeffs == tuple(_schoolbook_product(p, q))
    assert all(type(c) is F for c in product.coeffs)


def _assert_canonical(r):
    rebuilt = P(r.coeffs)
    assert rebuilt == r and hash(rebuilt) == hash(r)


def test_equal_values_built_by_different_routes_are_equal():
    routes = [P([F(1, 2), 1]) * 2, P([1, 2]), P([2, 4]).monic() * 2, P([F(3, 2), 3]) * F(2, 3)]
    routes += [P([F(1, 3), 1]) + P([F(2, 3), 1]), interleave(P([1]), P([2])), P([4, 2]).reciprocal(1) * F(1, 2)]
    assert len(set(routes)) == 1
    assert all(r == routes[1] and hash(r) == hash(routes[1]) for r in routes)


@given(product_factors, product_factors, rationals | st.integers(-5, 5))
@settings(max_examples=150, deadline=None)
def test_every_ring_operation_returns_canonical_form(p, q, c):
    results = [p + q, p - q, -p, p * q, p * c, c * p, p + c, c - p, p**2, p.derivative()]
    results += [*p.even_odd_split(), interleave(p, q), p.of_x_squared()]
    if not p.is_zero:
        results += [p.reciprocal(p.degree + 1), p.monic(), poly_gcd(p, q)]
    if not q.is_zero:
        results += list(divmod(p, q))
    for r in results:
        _assert_canonical(r)


@given(polys)
@settings(max_examples=60, deadline=None)
def test_split_interleave_roundtrip(p):
    even, odd = p.even_odd_split()
    assert interleave(even, odd) == p


@given(polys)
@settings(max_examples=60, deadline=None)
def test_reciprocal_involution(p):
    if p.is_zero or p.constant_term == 0:
        return
    m = p.degree
    assert p.reciprocal(m).reciprocal(m) == p


@given(small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_derivative_is_linear_and_leibniz(p, q):
    assert (p + q).derivative() == p.derivative() + q.derivative()
    assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


@given(small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(p, q):
    if p.is_zero and q.is_zero:
        return
    g = poly_gcd(p, q)
    if not p.is_zero:
        assert (p % g).is_zero
    if not q.is_zero:
        assert (q % g).is_zero
    assert g.leading_coefficient == 1
