import random

import pytest

from bconstell.coeffring import B, U
from bconstell.ppoly import PPoly, pm_degree
from bconstell.weyl import EXACT, WeylOp

from randops import random_ppoly
import refring


def degree_slice(f, d):
    """The terms of f of degree d."""
    return PPoly({m: c for m, c in f.terms.items() if pm_degree(m) == d})


def ppoly_from_json_obj(obj):
    """The inverse of PPoly.to_json_obj."""
    return PPoly({
        tuple((int(i), int(e)) for i, e in item["monomial"]):
            refring.parse(item["coeff"])
        for item in obj
    })


def test_mul_add_examples():
    p1, p2, p3 = PPoly.gen(1), PPoly.gen(2), PPoly.gen(3)
    assert p1 * p1 == PPoly.monomial(((1, 2),))
    assert (p2 + p1 * p1) + (-(p1 * p1)) == p2
    prod = p2 * p3
    assert prod.degree() == 5
    assert prod == PPoly.monomial(((2, 1), (3, 1)))


def test_degree_slice_examples():
    p1, p3 = PPoly.gen(1), PPoly.gen(3)
    f = p1 * p1 + p3
    assert degree_slice(f, 2) == p1 * p1
    assert degree_slice(f, 3) == p3
    assert degree_slice(PPoly.one(), 0) == PPoly.one()
    assert degree_slice(f, 7) == PPoly.zero()


def test_partition_monomial_degree():
    for lam in [(3, 1), (2, 2, 1), (5,), (1, 1, 1, 1)]:
        mono = {}
        for part in lam:
            mono[part] = mono.get(part, 0) + 1
        assert PPoly.monomial(tuple(mono.items())).degree() == sum(lam)


def test_no_p0_or_negative():
    assert PPoly.gen(0) == PPoly.zero()
    assert PPoly.gen(-2) == PPoly.zero()


@pytest.mark.parametrize("pairs, mono", [
    (((2, 1), (1, 1), (2, 2)), ((1, 1), (2, 3))),
    (((3, 0), (1, 2), (3, 0)), ((1, 2),)),
    (((0, 0), (-1, 0)), ()),
    ((), ()),
    (((1, 1), (0, 1)), None),
    (((-2, 3),), None),
])
def test_monomial_and_creation_normalize_their_pairs(pairs, mono):
    # None: an index <= 0 with a non-zero exponent makes the monomial zero
    c = U[1]
    terms = {} if mono is None else {mono: c}
    assert PPoly.monomial(pairs, c).terms == terms
    op = WeylOp.creation(pairs, c)
    assert op.working_degree == EXACT
    assert op.terms == {(m, ()): v for m, v in terms.items()}


@pytest.mark.parametrize("mono, i, e, rest", [
    (((2, 3),), 2, 3, ((2, 2),)),
    (((2, 1),), 2, 1, ()),
    (((1, 2), (2, 1), (3, 4)), 2, 1, ((1, 2), (3, 4))),
    (((1, 2), (3, 4)), 3, 4, ((1, 2), (3, 3))),
    (((1, 2), (3, 1)), 2, 0, None),
    ((), 1, 0, None),
])
def test_dp_of_a_monomial(mono, i, e, rest):
    f = PPoly.monomial(mono, B)
    assert f.dp(i) == (PPoly.zero() if rest is None else PPoly.monomial(rest, B * e))


def test_mul_commutative_associative_random():
    rng = random.Random(7)
    for _ in range(60):
        a = random_ppoly(rng, 5)
        b = random_ppoly(rng, 5)
        c = random_ppoly(rng, 4)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_homogeneous_product_degree():
    rng = random.Random(11)
    for _ in range(40):
        d1, d2 = rng.randrange(0, 4), rng.randrange(0, 4)
        a = degree_slice(random_ppoly(rng, 6), d1)
        b = degree_slice(random_ppoly(rng, 6), d2)
        if a and b:
            assert (a * b).is_homogeneous(d1 + d2)


def test_derivative():
    p1, p2 = PPoly.gen(1), PPoly.gen(2)
    f = p1 * p1 * p2
    assert f.dp(1) == p1 * p2 * 2
    assert f.dp(2) == p1 * p1
    assert f.dp(3) == PPoly.zero()


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(25):
        f = random_ppoly(rng, 6)
        assert ppoly_from_json_obj(f.to_json_obj()) == f
    f = PPoly.gen(1, coeff=U[1]) + PPoly.gen(2, coeff=B)
    obj = f.to_json_obj()
    assert obj == [
        {"monomial": [[1, 1]], "coeff": "u1"},
        {"monomial": [[2, 1]], "coeff": "b"},
    ]
