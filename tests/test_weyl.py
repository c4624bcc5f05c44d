import random
from fractions import Fraction

import pytest

from bconstell import weyl
from bconstell.coeffring import Coeff, ONE_PLUS_B
from bconstell.ppoly import PPoly
from bconstell.weyl import EXACT, DegreeBudgetError, WeylOp

from randops import random_op, random_homogeneous_op, random_ppoly
import refring


def weyl_from_json_obj(obj):
    """The inverse of WeylOp.to_json_obj."""
    terms = {}
    for t in obj["terms"]:
        cr = tuple((int(i), int(e)) for i, e in t["create"])
        an = tuple((int(i), int(e)) for i, e in t["annihilate"])
        terms[(cr, an)] = refring.parse(t["coeff"])
    return WeylOp(terms, int(obj["working_degree"]))

D = 8
p1, p2, p3 = PPoly.gen(1), PPoly.gen(2), PPoly.gen(3)


def p(i, d=D):
    """p_i cut down to working degree d."""
    return WeylOp.p(i).truncated(d)


def p_star(i, d=D):
    """p_i* cut down to working degree d."""
    return WeylOp.p_star(i).truncated(d)


def test_apply_examples():
    assert p_star(1).apply(p1 * p1) == p1 * 2
    assert p_star(2).apply(p2) == PPoly.one() * 2
    op = WeylOp({(((3, 1),), ((1, 1),)): Coeff.one()}, D)
    assert op.apply(p1 * p2) == p2 * p3


def test_apply_budget_error():
    with pytest.raises(DegreeBudgetError):
        p_star(1, 2).apply(p1 * p2)


def test_compose_examples():
    got = p_star(1).compose(p(1))
    want = WeylOp({(((1, 1),), ((1, 1),)): Coeff.one(), ((), ()): Coeff.one()}, D - 1)
    assert got.equal_up_to(want, got.working_degree)

    got = p_star(2).compose(p(2))
    want = WeylOp(
        {(((2, 1),), ((2, 1),)): Coeff.one(), ((), ()): Coeff.from_rational(2)}, D - 2
    )
    assert got.equal_up_to(want, got.working_degree)


def test_compose_double_derivative():
    # second derivative against a creation, checked against direct application
    dd = WeylOp({((), ((1, 2),)): Coeff.one()}, D)
    creation = p(1)
    got = dd.compose(creation)
    want = WeylOp(
        {(((1, 1),), ((1, 2),)): Coeff.one(), ((), ((1, 1),)): Coeff.from_rational(2)},
        D - 1,
    )
    assert got.equal_up_to(want, got.working_degree)
    for f in (p1 * p1, p1 * p1 * p1):
        assert got.apply(f) == dd.apply(creation.apply(f))


def test_commutator_examples():
    assert p_star(1).commutator(p(1)).equal_up_to(WeylOp.identity(), D - 1)
    assert p(2).commutator(p(3)).is_zero()
    for i in range(1, 4):
        for j in range(1, 4):
            comm = p_star(i).commutator(p_star(j))
            assert comm.is_zero()


def test_equal_examples():
    op = WeylOp({(((1, 1),), ((1, 1),)): Coeff.one()}, D)
    assert op.equal_up_to(op, D)
    got = p_star(1).compose(p(1))
    want = op + WeylOp.identity()
    assert got.equal_up_to(want, D - 1)
    assert p_star(5, 4).equal_up_to(WeylOp.zero(4), 4)


def test_equal_budget_error():
    with pytest.raises(DegreeBudgetError):
        p_star(1, 3).equal_up_to(p_star(1, 8), 5)


def test_truncation_drops_deep_annihilation():
    op = WeylOp({((), ((5, 1),)): Coeff.one()}, 4)
    assert op.is_zero()


def test_jacobi_antisymmetry_small():
    rng = random.Random(101)
    for _ in range(40):
        a = random_op(rng, 12)
        b = random_op(rng, 12)
        c = random_op(rng, 12)
        ab = a.commutator(b)
        ba = b.commutator(a)
        assert ab.equal_up_to(-ba, ab.working_degree)
        jac = ab.commutator(c) + b.commutator(c).commutator(a) + c.commutator(a).commutator(b)
        d = jac.working_degree
        if d >= 0:
            assert jac.equal_up_to(WeylOp.zero(d), d)


def test_compose_apply_coherence_small():
    rng = random.Random(55)
    for _ in range(60):
        a = random_op(rng, 12)
        b = random_op(rng, 12)
        comp = a.compose(b)
        f = random_ppoly(rng, comp.working_degree)
        assert comp.apply(f) == a.apply(b.apply(f))


def test_homogeneity_propagation_small():
    rng = random.Random(77)
    for _ in range(40):
        g1, g2 = rng.randrange(-2, 3), rng.randrange(-2, 3)
        a = random_homogeneous_op(rng, 12, g1)
        b = random_homogeneous_op(rng, 12, g2)
        comp = a.compose(b)
        if not comp.is_zero():
            assert comp.homogeneous_degree() == g1 + g2


def test_json_round_trip():
    rng = random.Random(9)
    for _ in range(20):
        op = random_op(rng, 7)
        assert weyl_from_json_obj(op.to_json_obj()).equal_up_to(op, 7)


def test_internal_constructor_matches_public_filtering():
    # compose, negation and scaling build their results without re-filtering;
    # the public constructor, which drops dead keys and zeros, must agree
    rng = random.Random(11)
    for _ in range(200):
        d1, d2 = rng.randrange(0, 9), rng.randrange(0, 9)
        a = random_op(rng, d1, max_terms=5)
        b = random_op(rng, d2, max_terms=5)
        results = [-a, a.scale(rng.choice([2, ONE_PLUS_B, Coeff.inv_one_plus_b()]))]
        if d1 - b.max_jump() >= 0:
            results.append(a.compose(b))
        for op in results:
            assert op.terms == WeylOp(op.terms, op.working_degree).terms


def test_scalars_come_in_through_the_scalar_ring():
    half = Coeff.from_rational(Fraction(1, 2))
    assert WeylOp.scalar(Fraction(1, 2)).terms == WeylOp.scalar(half).terms
    assert WeylOp.scalar(0).is_zero() and WeylOp.scalar(0).working_degree == float("inf")
    op = p(1) + p_star(2)
    assert op.scale(2).terms == op.scale(Coeff.from_rational(2)).terms
    assert (op * Fraction(1, 2)).terms == op.scale(half).terms
    for bad in ("1", 0.5, None, PPoly.one()):
        with pytest.raises(TypeError):
            WeylOp.scalar(bad)
        with pytest.raises(TypeError):
            op.scale(bad)


def test_sums_leave_packed_addends_unchanged():
    # compose keeps each operator's packed terms, which is sound only while
    # no sum writes into an addend's terms; every merge path is taken here:
    # the first addend, higher and lower degrees, zeros and exact operators
    rng = random.Random(11)
    for _ in range(60):
        ops = [random_op(rng, rng.choice([0, 2, 5, 9, EXACT]), max_terms=5) for _ in range(4)]
        ops.append(WeylOp.zero(rng.choice([1, 4, EXACT])))
        rng.shuffle(ops)
        before = [(dict(op.terms), list(weyl._packed_terms(op))) for op in ops]
        sums = [WeylOp.sum(ops), ops[0] + ops[1], ops[2] - ops[3]]
        sums += WeylOp.sums((k % 2, op) for k, op in enumerate(ops)).values()
        terms, d = {}, None
        for op in ops:
            terms, d = weyl._merge(terms, d, op)
        sums.append(WeylOp._live(terms, d))
        # summing into a sum must not reach back to its addends either
        sums.append(WeylOp.sum(sums))
        for op, (terms, packed) in zip(ops, before):
            assert op.terms == terms
            assert weyl._packed_terms(op) == packed == weyl._pack_terms(op.terms)
            assert all(s.terms is not op.terms for s in sums)
