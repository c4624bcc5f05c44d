"""The canonical form (n, den, dp) of Coeff, after every operation that builds one.

A Coeff is n / (den * (1+b)^dp) with int values in n, den > 0 coprime to the
content of n, zero as ({}, 1, 0), and n not divisible by (1+b) when dp > 0.
Equal values must then be equal field by field, however they were built.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from bconstell.coeffring import (
    _B_SHIFT, _REST_MASK, B, INV_1PB, ONE_PLUS_B, Q, U, Coeff, sum_products,
)

import refring
from refring import coeff, coeff_power, subs

rational = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 8))
atoms = st.sampled_from([B, U[1], U[2], Q[1], ONE_PLUS_B, Coeff.one()])


@st.composite
def coeffs(draw):
    """A sum of rational multiples of products of atoms, over (1+b)^k."""
    value = Coeff.zero()
    for _ in range(draw(st.integers(0, 4))):
        term = Coeff.from_rational(draw(rational))
        for atom in draw(st.lists(atoms, max_size=3)):
            term = term * atom
        value = value + term
    return value * Coeff.inv_one_plus_b(draw(st.integers(0, 3)))


def divisible_by_one_plus_b(n):
    """(1+b) divides n iff n vanishes at b = -1, for each rest monomial."""
    at_minus_one = {}
    for key, c in n.items():
        rest = key & _REST_MASK
        at_minus_one[rest] = at_minus_one.get(rest, 0) + (-c if key >> _B_SHIFT & 1 else c)
    return not any(at_minus_one.values())


def assert_canonical(x):
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int and c != 0 for c in x.n.values())
    if not x.n:
        assert (x.n, x.den, x.dp) == ({}, 1, 0)
        return
    assert gcd(x.den, *x.n.values()) == 1
    if x.dp > 0:
        assert not divisible_by_one_plus_b(x.n)
    assert coeff(x.num, x.dp) == x


@given(coeffs(), coeffs(), rational, st.integers(0, 3))
def test_operations_return_canonical_values(x, y, k, e):
    for value in (x, y, x + y, x + -y, x + -x, x * y, x * k, x + k, coeff_power(x, e)):
        assert_canonical(value)
    assert_canonical(sum_products([(x, y, k), (y, ONE_PLUS_B, 1), (x, B, -k)]))
    assert_canonical(sum_products([(x, y, k), (y, x, -k)]))
    assert_canonical(subs(x, {"u1": k}))
    assert_canonical(subs(x, {"b": 2, "q1": Fraction(1, 3)}))
    assert_canonical(refring.parse(str(x)))


@given(coeffs(), coeffs(), rational)
def test_equal_values_built_differently_are_equal(x, y, k):
    ways = [
        x * y * k,
        (x * k) * y,
        x * (y * k),
        sum_products([(x, y, k)]),
        sum_products([(x, y, k / 2), (y, x, k / 2)]),
        sum_products([(x * ONE_PLUS_B, y * INV_1PB, k)]),
    ]
    for value in ways:
        assert value == ways[0]
        assert hash(value) == hash(ways[0])
    assert x + y + -y == x and hash(x + y + -y) == hash(x)


def with_and_without_denominators(x, y):
    for left in (coeff(x.num), x * Coeff.inv_one_plus_b(4)):
        for right in (coeff(y.num), y * INV_1PB):
            yield left, right


# why a symbolic pass of the commutator sweep holds at every b != -1:
# substituting b = r is a ring homomorphism there
@given(coeffs(), coeffs(), rational.filter(lambda r: r != -1))
def test_substituting_b_respects_products(x, y, r):
    s = {"b": r}
    for left, right in with_and_without_denominators(x, y):
        assert subs(left * right, s) == subs(left, s) * subs(right, s)


@given(coeffs(), coeffs(), rational.filter(lambda r: r != -1))
def test_substituting_b_respects_sums(x, y, r):
    s = {"b": r}
    for left, right in with_and_without_denominators(x, y):
        assert subs(left + right, s) == subs(left, s) + subs(right, s)


@given(coeffs())
def test_substituting_b_minus_one_refuses_a_denominator(x):
    # the one point excluded above: (1+b) would be inverted at zero
    value = x * INV_1PB
    if value.dp:
        with pytest.raises(ZeroDivisionError):
            subs(value, {"b": -1})
    else:
        # a polynomial in b once (1+b) cancels: defined at every b
        assert subs(value, {"b": -1}) == subs(coeff(value.num), {"b": -1})


def test_rational_factors_meet_one_canonical_form():
    a = Fraction(2, 3) * Fraction(1, 2) * U[1]
    b = Coeff.from_rational(Fraction(2, 3)) * Fraction(1, 2) * U[1]
    c = Fraction(1, 3) * U[1]
    for value in (a, b):
        assert value == c and hash(value) == hash(c)
        assert (value.n, value.den, value.dp) == (c.n, c.den, c.dp) == (U[1].n, 3, 0)
    half_sum = U[1] * Fraction(1, 2) + U[1] * Fraction(1, 2)
    assert (half_sum.n, half_sum.den) == (U[1].n, 1)
    assert Coeff.zero() == U[1] * Fraction(1, 2) + -U[1] * Fraction(1, 2)


def test_num_is_a_read_only_rational_view():
    x = (B * Fraction(3, 4) + Fraction(1, 2)) * INV_1PB
    assert (x.n, x.den, x.dp) == ({0: 2, 1 << _B_SHIFT: 3}, 4, 1)
    assert x.num == {0: Fraction(1, 2), 1 << _B_SHIFT: Fraction(3, 4)}
    assert type((x * 4).num[0]) is int
    assert coeff(x.num, x.dp) == x
    # over den = 2 one term is integral and one is not
    y = B * 2 + Fraction(1, 2)
    assert y.num == {0: Fraction(1, 2), 1 << _B_SHIFT: 2}
    assert type(y.num[0]) is Fraction and type(y.num[1 << _B_SHIFT]) is int
    # read-only, over n itself (den = 1) as over the built dict (den > 1)
    for value in (x, y, U[1]):
        with pytest.raises(TypeError):
            value.num[0] = 1
    assert 0 not in U[1].n
