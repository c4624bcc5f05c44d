"""WeylOp.compose against the unpruned reference loop in refweyl.py.

The kernel skips term pairs and contractions whose derivative part lands
above the result's working degree before it multiplies any coefficient.
These tests pin that the skipped work is exactly the work the truncation
contract drops: the same terms, the same working degree, and exactly the
live contractions reaching the coefficient sums.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import refweyl
from bconstell import weyl
from bconstell.coeffring import B, INV_1PB, Coeff, ONE_PLUS_B, U
from bconstell.constraints import TGradedOp
from bconstell.ppoly import PPoly, pm_degree
from bconstell.weyl import DegreeBudgetError, WeylOp

from randops import COEFF_POOL, random_homogeneous_op, random_op, random_ppoly


def compose_checked(left, right):
    """left.compose(right), asserting only live contractions are summed."""
    summed = []
    real = weyl.sum_grouped

    def recording(groups):
        summed.extend((key, len(ts)) for key, ts in groups.items())
        return real(groups)

    with mock.patch.object(weyl, "sum_grouped", recording):
        got = left.compose(right)
    dead = [k for k, _ in summed if pm_degree(k[1]) > got.working_degree]
    assert not dead, "dead contractions reached the accumulator: %r" % (dead,)
    assert sum(n for _, n in summed) == refweyl.live_contractions(left, right)
    return got


def assert_same_compose(left, right):
    try:
        want = refweyl.compose(left, right)
    except DegreeBudgetError:
        with pytest.raises(DegreeBudgetError):
            left.compose(right)
        return
    got = compose_checked(left, right)
    assert got.working_degree == want.working_degree
    assert got.terms == want.terms


@given(
    seed=st.integers(0, 2**32 - 1),
    d1=st.integers(0, 9),
    d2=st.integers(0, 9),
    terms=st.integers(1, 6),
)
def test_compose_matches_reference(seed, d1, d2, terms):
    rng = random.Random(seed)
    left = random_op(rng, d1, max_terms=terms)
    right = random_op(rng, d2, max_terms=terms)
    assert_same_compose(left, right)
    assert_same_compose(right, left)


@given(
    seed=st.integers(0, 2**32 - 1),
    d1=st.integers(2, 9),
    d2=st.integers(0, 9),
    jump=st.integers(-3, 2),
)
def test_compose_matches_reference_homogeneous(seed, d1, d2, jump):
    rng = random.Random(seed)
    left = random_op(rng, d1, max_terms=5)
    right = random_homogeneous_op(rng, d2, jump)
    assert_same_compose(left, right)
    assert_same_compose(right, left)


def test_every_contraction_dead_does_no_work():
    # p3* p1* after p2: no index is shared, so the four derivatives survive,
    # and new_d = min(1, 8 - 2) = 1 drops the only term pair
    left = WeylOp({((), ((1, 1), (3, 1))): U[1]}, 8)
    right = WeylOp.p(2, ONE_PLUS_B).truncated(1)
    products = []
    real_mul = Coeff.__mul__

    def counting(a, b):
        products.append((a, b))
        return real_mul(a, b)

    with mock.patch.object(Coeff, "__mul__", counting):
        got = compose_checked(left, right)
    assert products == []
    assert got.is_zero() and got.working_degree == 1
    want = refweyl.compose(left, right)
    assert want.is_zero() and want.working_degree == 1


def test_partly_dead_contractions():
    # p2*^2 after p2 p1*: gamma = 0 leaves degree 5 > new_d = 3 and is
    # skipped; gamma = 1 leaves p2* p1* (degree 3) with factor 2 * 1 * 2
    left = WeylOp({((), ((2, 2),)): Coeff.one()}, 8)
    right = WeylOp({(((2, 1),), ((1, 1),)): U[2]}, 3)
    got = compose_checked(left, right)
    assert got.working_degree == 3
    assert got.terms == {((), ((1, 1), (2, 1))): U[2] * 4}
    assert got.terms == refweyl.compose(left, right).terms


def test_floor_exactly_at_new_d_is_kept():
    # full contraction lands exactly on new_d: the term must stay
    left = WeylOp.p_star(1).truncated(6)
    right = WeylOp({(((1, 1),), ((2, 1),)): Coeff.one()}, 2)
    got = compose_checked(left, right)
    want = refweyl.compose(left, right)
    assert got.working_degree == want.working_degree == 2
    assert got.terms == want.terms
    assert ((), ((2, 1),)) in got.terms


# -- [A, A] against compose - compose ------------------------------------------


def ref_tgraded_compose(a, b):
    """a . b per pair of t powers, zero pieces included, through the reference loop."""
    return TGradedOp.sum(
        TGradedOp({m1 + m2: refweyl.compose(op1, op2)})
        for m1, op1 in a.pieces.items()
        for m2, op2 in b.pieces.items()
    )


def assert_same_self_commutator(a, ref_compose):
    try:
        want = ref_compose(a, a) - ref_compose(a, a)
    except DegreeBudgetError:
        with pytest.raises(DegreeBudgetError):
            a.commutator(a)
        return None
    got = a.commutator(a)
    if isinstance(a, WeylOp):
        assert got.terms == want.terms == {}
        assert got.working_degree == want.working_degree
    else:
        assert got.is_zero() and want.is_zero()
        assert got.pieces.keys() == want.pieces.keys()
        for m, op in got.pieces.items():
            assert op.working_degree == want.pieces[m].working_degree
    return got


@given(
    seed=st.integers(0, 2**32 - 1),
    degrees=st.lists(st.integers(0, 9), min_size=1, max_size=3),
    terms=st.integers(1, 6),
)
def test_self_commutator_matches_reference(seed, degrees, terms):
    rng = random.Random(seed)
    pieces = {m: random_op(rng, d, max_terms=terms) for m, d in enumerate(degrees)}
    assert_same_self_commutator(pieces[0], refweyl.compose)
    assert_same_self_commutator(TGradedOp(pieces), ref_tgraded_compose)


def test_self_commutator_budget_cases():
    # p2 at degree 1: A . A sits at 1 - 2 < 0, so both routes raise
    exhausted = WeylOp.p(2).truncated(1)
    assert assert_same_self_commutator(exhausted, refweyl.compose) is None
    # p1 p1* at degree 3 has jump 0: a zero at degree 3
    live = WeylOp({(((1, 1),), ((1, 1),)): U[1]}, 3)
    assert assert_same_self_commutator(live, refweyl.compose).working_degree == 3
    # p3 . p3 at degree 2 - 3 < 0 makes the t-graded commutator raise
    top = TGradedOp({0: live, 1: WeylOp.p(3).truncated(2)})
    assert assert_same_self_commutator(top, ref_tgraded_compose) is None
    assert assert_same_self_commutator(TGradedOp({0: live}), ref_tgraded_compose) is not None


# -- WeylOp.apply and PPoly.__mul__ against the stepwise loops ------------------

# scalars over (1+b)^0..8 with numerators that share, or do not share, a
# (1+b) factor, so the per-monomial sums mix powers and reduce
HIGH_POWERS = COEFF_POOL + [
    c * INV_1PB ** k
    for c in (Coeff.one(), ONE_PLUS_B, U[1] + B, B * U[2] - 1, ONE_PLUS_B ** 2 * U[2])
    for k in (3, 5, 8)
] + [INV_1PB ** 4 + U[1] * INV_1PB, (B - U[1]) * INV_1PB ** 6 - INV_1PB ** 2]


@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(0, 8),
    terms=st.integers(1, 6),
)
def test_apply_matches_stepwise_reference(seed, degree, terms):
    rng = random.Random(seed)
    op = random_op(rng, degree, max_terms=terms, pool=HIGH_POWERS)
    # c b p1 p1* + c + d p2 p2* keeps every monomial, so several products
    # meet in one output coefficient; on a single p1 the first two give
    # c (1+b), which cancels a (1+b) of c's denominator
    c, d = rng.choice(HIGH_POWERS), rng.choice(HIGH_POWERS)
    keep = WeylOp({
        (((1, 1),), ((1, 1),)): c * B, ((), ()): c, (((2, 1),), ((2, 1),)): d
    }, degree)
    f = random_ppoly(rng, degree, max_terms=terms, pool=HIGH_POWERS)
    g = random_ppoly(rng, degree, max_terms=terms, pool=HIGH_POWERS)
    if degree:
        f = f + PPoly.gen(1, 1, rng.choice(HIGH_POWERS))
    # one monomial above the working degree exhausts apply's budget
    over = f + PPoly.gen(degree + 1, 1, rng.choice(HIGH_POWERS))
    for o in (op, keep, op + keep):
        for poly in (f, f + g, f - g):
            assert o.apply(poly) == refweyl.apply(o, poly)
        with pytest.raises(DegreeBudgetError):
            o.apply(over)
        assert o.apply(PPoly.zero()) == PPoly.zero()


@given(seed=st.integers(0, 2**32 - 1), terms=st.integers(1, 6))
def test_ppoly_mul_matches_stepwise_reference(seed, terms):
    rng = random.Random(seed)
    f = random_ppoly(rng, 6, max_terms=terms, pool=HIGH_POWERS)
    g = random_ppoly(rng, 6, max_terms=terms, pool=HIGH_POWERS)
    assert f * g == refweyl.ppoly_mul(f, g)
    # (f + g)(f - g) cancels every cross term
    assert (f + g) * (f - g) == refweyl.ppoly_mul(f + g, f - g)
    assert (f + g) * (f - g) == refweyl.ppoly_mul(f, f) - refweyl.ppoly_mul(g, g)
