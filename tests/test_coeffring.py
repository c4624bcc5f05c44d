from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bconstell.coeffring import Coeff, B, INV_1PB, ONE_PLUS_B, U, Q

import refring

ALL_VARS = {"b": 0, "u1": 0, "u2": 0, "u3": 0, "q1": 0, "q2": 0, "q3": 0}


def test_add_examples():
    assert INV_1PB + B * INV_1PB == Coeff.one()
    assert U[1] * U[2] * INV_1PB + Coeff.zero() == U[1] * U[2] * INV_1PB
    assert B + 1 == ONE_PLUS_B


def test_mul_examples():
    assert ONE_PLUS_B * INV_1PB == Coeff.one()
    assert B * B == B ** 2
    assert (B + U[1]) * INV_1PB * ONE_PLUS_B == B + U[1]


def test_subs_examples():
    assert INV_1PB.subs(dict(ALL_VARS, b=1)) == Fraction(1, 2)
    # b*(i-1) with i = 3 pre-substituted
    assert (B * 2).subs(dict(ALL_VARS, b=0)) == 0
    c = U[1] * (B + U[1]) * INV_1PB
    assert c.subs(dict(ALL_VARS, b=0, u1=2)) == 4


def test_subs_to_a_constant_needs_only_the_used_variables():
    assert U[1].subs({"u1": 2}) == 2
    assert Coeff.from_rational(Fraction(3, 4)).subs({}) == Fraction(3, 4)
    assert (INV_1PB * Q[2]).subs({"b": 1, "q2": 4}) == 2


def test_subs_at_minus_one_fails():
    with pytest.raises(ZeroDivisionError):
        INV_1PB.subs(dict(ALL_VARS, b=-1))
    # without a denominator the point is fine
    assert (B + 1).subs(dict(ALL_VARS, b=-1)) == 0


def test_subs_partial():
    c = Q[1] * U[1] + Q[3] * B
    s = c.subs({"q1": 0, "q3": 1})
    assert s == B
    assert INV_1PB.subs({"b": 1}) == Coeff.from_rational(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        INV_1PB.subs({"b": -1})


def test_canonical_reduction():
    # (1+b)/(1+b) collapses; a bare 1+b numerator survives
    c = Coeff(ONE_PLUS_B.num, 1)
    assert c == Coeff.one()
    assert c.dp == 0
    assert ONE_PLUS_B.dp == 0 and len(ONE_PLUS_B.num) == 2
    deep = Coeff((ONE_PLUS_B ** 3).num, 2)
    assert deep == ONE_PLUS_B


coeff_strategy = st.builds(
    lambda triples: sum(
        (
            Coeff.from_rational(Fraction(num, den))
            * Coeff.var(var)
            * Coeff.inv_one_plus_b(e)
            for num, den, var, e in triples
        ),
        Coeff.zero(),
    ),
    st.lists(
        st.tuples(
            st.integers(-4, 4),
            st.integers(1, 3),
            st.sampled_from(["b", "u1", "u2", "q1"]),
            st.integers(0, 2),
        ),
        max_size=3,
    ),
)


@given(coeff_strategy, coeff_strategy, coeff_strategy)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(coeff_strategy)
def test_canonicalization_idempotent(x):
    again = Coeff(x.num, x.dp)
    assert again.num == x.num and again.dp == x.dp


@given(coeff_strategy)
def test_str_round_trip(x):
    assert refring.parse(str(x)) == x


def test_str_examples():
    assert str(U[1] * U[2] * INV_1PB) == "u1*u2/(1+b)^1"
    assert refring.parse("u1*u2/(1+b)^1") == U[1] * U[2] * INV_1PB
    assert str(Coeff.zero()) == "0"
    assert refring.parse("0") == Coeff.zero()
    want = U[3] - Coeff.from_rational(Fraction(3, 2)) * B ** 2
    assert refring.parse("-3/2*b^2 + u3") == want
