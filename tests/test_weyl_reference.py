"""WeylOp.compose against the unpruned reference loop in refweyl.py.

The kernel skips term pairs and contractions whose derivative part lands
above the result's working degree before it multiplies any coefficient.
These tests pin that the skipped work is exactly the work the truncation
contract drops: the same terms, the same working degree, and exactly the
live contractions reaching the coefficient sums.  A term pair that shares
no index has the one contraction gamma = 0: through compose and apply it is
kept when its derivatives add up to exactly the working degree and dropped,
without a coefficient product, one degree over.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import refweyl
from bconstell import weyl
from bconstell.coeffring import B, INV_1PB, Coeff, ONE_PLUS_B, U
from bconstell.constraints import THREECONST, TGradedOp, verify_commutators
from bconstell.ppoly import PPoly, pm_degree
from bconstell.weyl import EXACT, MAX_EXP, DegreeBudgetError, WeylOp

from randops import COEFF_POOL, random_homogeneous_op, random_op, random_ppoly, random_wide_op


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


REFERENCE = {"compose": refweyl.compose, "apply": refweyl.apply}


def engine(route, a, b):
    """a.compose(b), through compose_checked, or a.apply(b)."""
    return compose_checked(a, b) if route == "compose" else a.apply(b)


@pytest.mark.parametrize("route, a, b, new_d", [
    # p3* p1* after p2: no index is shared, so the four derivatives survive,
    # and new_d = min(1, 8 - 2) = 1 drops the only term pair
    ("compose", WeylOp({((), ((1, 1), (3, 1))): U[1]}, 8),
     WeylOp.p(2, ONE_PLUS_B).truncated(1), 1),
    # the same free pair at new_d = min(3, 8 - 2) = 3, one derivative over
    ("compose", WeylOp({((), ((1, 1), (3, 1))): U[1]}, 8),
     WeylOp.p(2, ONE_PLUS_B).truncated(3), 3),
    # p1* on p2: no index is shared and new_d = 0, one derivative over; a
    # polynomial has no working degree
    ("apply", WeylOp.p_star(1, U[1]).truncated(5), PPoly.monomial(((2, 1),), ONE_PLUS_B),
     None),
], ids=["compose-3-over", "compose-1-over", "apply-1-over"])
def test_every_contraction_dead_does_no_work(route, a, b, new_d):
    products = []
    real_mul = Coeff.__mul__

    def counting(x, y):
        products.append((x, y))
        return real_mul(x, y)

    want = REFERENCE[route](a, b)
    with mock.patch.object(Coeff, "__mul__", counting):
        got = engine(route, a, b)
    assert products == []
    assert got.terms == want.terms == {}
    if route == "compose":
        assert got.working_degree == want.working_degree == new_d


def test_partly_dead_contractions():
    # p2*^2 after p2 p1*: gamma = 0 leaves degree 5 > new_d = 3 and is
    # skipped; gamma = 1 leaves p2* p1* (degree 3) with factor 2 * 1 * 2
    left = WeylOp({((), ((2, 2),)): Coeff.one()}, 8)
    right = WeylOp({(((2, 1),), ((1, 1),)): U[2]}, 3)
    got = compose_checked(left, right)
    assert got.working_degree == 3
    assert got.terms == {((), ((1, 1), (2, 1))): U[2] * 4}
    assert got.terms == refweyl.compose(left, right).terms


@pytest.mark.parametrize("route, a, b, kept", [
    # full contraction lands exactly on new_d = 2: the term must stay
    ("compose", WeylOp.p_star(1).truncated(6),
     WeylOp({(((1, 1),), ((2, 1),)): Coeff.one()}, 2), ((), ((2, 1),))),
    # p1* after p2 p1* shares no index; its two derivatives are new_d =
    # min(2, 6 - 1) = 2, so the free pair must stay
    ("compose", WeylOp.p_star(1).truncated(6),
     WeylOp({(((2, 1),), ((1, 1),)): U[1]}, 2), (((2, 1),), ((1, 2),))),
    # p3 on p2 shares no index and leaves no derivative at new_d = 0
    ("apply", WeylOp.p(3, B).truncated(4) + WeylOp.p_star(1).truncated(4),
     PPoly.monomial(((2, 1),), U[2]), ((2, 1), (3, 1))),
], ids=["compose-contracted", "compose-free", "apply-free"])
def test_floor_exactly_at_new_d_is_kept(route, a, b, kept):
    got, want = engine(route, a, b), REFERENCE[route](a, b)
    assert got.terms == want.terms
    assert kept in got.terms
    if route == "compose":
        assert got.working_degree == want.working_degree == 2


# -- [A, A] against compose - compose ------------------------------------------


def ref_tgraded_compose(a, b):
    """a . b per pair of t powers, zero pieces included, through the reference loop."""
    return TGradedOp.sum(
        TGradedOp({m1 + m2: refweyl.compose(op1, op2)})
        for m1, op1 in a.pieces.items()
        for m2, op2 in b.pieces.items()
    )


def assert_same_self_commutator(a):
    try:
        want = ref_tgraded_compose(a, a) - ref_tgraded_compose(a, a)
    except DegreeBudgetError:
        with pytest.raises(DegreeBudgetError):
            a.commutator(a)
        return None
    got = a.commutator(a)
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
    assert_same_self_commutator(TGradedOp({0: pieces[0]}))
    assert_same_self_commutator(TGradedOp(pieces))


def test_self_commutator_budget_cases():
    # p2 at degree 1: A . A sits at 1 - 2 < 0, so both routes raise
    exhausted = TGradedOp({0: WeylOp.p(2).truncated(1)})
    assert assert_same_self_commutator(exhausted) is None
    # p1 p1* at degree 3 has jump 0: a zero at degree 3
    live = WeylOp({(((1, 1),), ((1, 1),)): U[1]}, 3)
    assert assert_same_self_commutator(TGradedOp({0: live})).pieces[0].working_degree == 3
    # p3 . p3 at degree 2 - 3 < 0 makes the t-graded commutator raise
    top = TGradedOp({0: live, 1: WeylOp.p(3).truncated(2)})
    assert assert_same_self_commutator(top) is None


# -- WeylOp.apply and PPoly.__mul__ against the stepwise loops ------------------

# scalars over (1+b)^0..8 with numerators that share, or do not share, a
# (1+b) factor, so the per-monomial sums mix powers and reduce
HIGH_POWERS = COEFF_POOL + [
    c * Coeff.inv_one_plus_b(k)
    for c in (Coeff.one(), ONE_PLUS_B, U[1] + B, B * U[2] + -1, ONE_PLUS_B * ONE_PLUS_B * U[2])
    for k in (3, 5, 8)
] + [
    Coeff.inv_one_plus_b(4) + U[1] * INV_1PB,
    (B + -U[1]) * Coeff.inv_one_plus_b(6) + -Coeff.inv_one_plus_b(2),
]


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
        f = f + PPoly.monomial(((1, 1),), rng.choice(HIGH_POWERS))
    # one monomial above the working degree exhausts apply's budget
    over = f + PPoly.monomial(((degree + 1, 1),), rng.choice(HIGH_POWERS))
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


# -- packed monomials -----------------------------------------------------------

SMALL = [1, 2, 3]
NEAR_GUARD = [MAX_EXP - 2, MAX_EXP - 1, MAX_EXP]


@given(
    seed=st.integers(0, 2**32 - 1),
    degrees=st.tuples(*[st.sampled_from([0, 3, 9, 10**6, EXACT])] * 2),
    terms=st.integers(1, 5),
    wide=st.lists(st.integers(29, 40), min_size=1, max_size=4, unique=True),
)
def test_compose_matches_reference_on_wide_keys(seed, degrees, terms, wide):
    # indices past 30 make keys wider than a machine word, and exponents at
    # the guard meet in a free pair's sums (up to 2 MAX_EXP, read back
    # without a carry); the left's annihilator exponents stay small, so no
    # contraction enumerates more than four gammas per index
    rng = random.Random(seed)
    indices = SMALL + wide
    exps = SMALL + NEAR_GUARD
    left = random_wide_op(rng, degrees[0], indices, exps, SMALL, max_terms=terms)
    right = random_wide_op(rng, degrees[1], indices, exps, exps, max_terms=terms)
    assert_same_compose(left, right)


@pytest.mark.parametrize("side", ["create", "annihilate"])
def test_exponent_past_the_guard_raises_when_packed(side):
    def op(e):
        mono = ((31, e),)
        return WeylOp({(mono, ()) if side == "create" else ((), mono): U[1]}, EXACT)

    one = WeylOp.identity()
    assert op(MAX_EXP).compose(one).terms == one.compose(op(MAX_EXP)).terms == op(MAX_EXP).terms
    for left, right in ((op(MAX_EXP + 1), one), (one, op(MAX_EXP + 1))):
        with pytest.raises(OverflowError):
            left.compose(right)
    # a product may reach past the guard; it is refused when it is packed
    twice = op(MAX_EXP).compose(op(MAX_EXP))
    assert twice.terms.keys() == op(2 * MAX_EXP).terms.keys()
    with pytest.raises(OverflowError):
        twice.compose(one)


def test_release_sweep_packs_each_operator_once(monkeypatch):
    # the sweep workload's sizes: every _pack_terms call packs the terms of
    # an operator (kept alive here, so ids are not reused) not packed before
    readers, packs = [], []
    packed_terms, pack_terms = weyl._packed_terms, weyl._pack_terms

    def reading(op):
        readers.append(op)
        return packed_terms(op)

    def counting(terms):
        assert terms is readers[-1].terms
        packs.append(readers[-1])
        return pack_terms(terms)

    monkeypatch.setattr(weyl, "_packed_terms", reading)
    monkeypatch.setattr(weyl, "_pack_terms", counting)
    assert verify_commutators(THREECONST, 6, 10)["ok"]
    ids = [id(op) for op in packs]
    assert len(set(ids)) == len(ids) > 0
    assert len(readers) > len(packs)
