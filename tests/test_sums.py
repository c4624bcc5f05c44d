"""The n-ary sums against a left fold of the stepwise additions in refsum.py.

``WeylOp.sum``, ``WeylOp.sums``, ``TGradedOp.sum``, ``PPoly.sum`` and
``TauSeries.sum`` merge each addend into one dict as it arrives.  Over random
addend lists with mixed working degrees, zero addends and cancelling pairs
(some at another working degree, so that a partial sum is cut down or
cancels to zero) they must give the terms and working degrees of the fold,
and each takes a one-shot generator.  ``constraints._products_sum``, which
sums c * t^tpow * X_x . L_l per t power in one ``sum_grouped``, must give the
fold of the scaled and shifted products.
"""

import random

import pytest
from hypothesis import given, strategies as st

import bconstell.constraints as C
from bconstell.constraints import TGradedOp
from bconstell.ppoly import PPoly
from bconstell.tau import TauSeries
from bconstell.weyl import WeylOp

from randops import COEFF_POOL, random_op, random_ppoly
from refsum import fold, ppoly_add, tau_add, tgraded_add, weyl_add

MAX_D = 8


def random_weyl(rng):
    d = rng.randrange(0, MAX_D + 1)
    return WeylOp.zero(d) if rng.random() < 0.15 else random_op(rng, d, max_terms=4)


def negated_weyl(rng, op):
    """-op, at its own working degree or at a random one."""
    d = op.working_degree if rng.random() < 0.5 else rng.randrange(0, MAX_D + 1)
    return WeylOp({k: -c for k, c in op.terms.items()}, d)


def random_tgraded(rng):
    powers = rng.sample(range(3), rng.randrange(0, 3))
    return TGradedOp({m: random_weyl(rng) for m in powers})


def negated_tgraded(rng, top):
    return TGradedOp({m: negated_weyl(rng, op) for m, op in top.pieces.items()})


def random_poly(rng):
    return PPoly.zero() if rng.random() < 0.15 else random_ppoly(rng, 4, max_terms=4)


def random_addends(rng, count, make, negate):
    """count addends from make; about a third negate an earlier one."""
    items = []
    for _ in range(count):
        if items and rng.random() < 0.35:
            items.append(negate(rng, rng.choice(items)))
        else:
            items.append(make(rng))
    return items


def one_shot(items):
    return (item for item in items)


def assert_same_op(got, want):
    assert got.working_degree == want.working_degree
    assert got.terms == want.terms


SEEDS = dict(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 6))


@given(**SEEDS)
def test_weyl_sum_matches_fold(seed, count):
    rng = random.Random(seed)
    items = random_addends(rng, count, random_weyl, negated_weyl)
    if not items:
        with pytest.raises(ValueError):
            WeylOp.sum(one_shot(items))
        return
    assert_same_op(WeylOp.sum(one_shot(items)), fold(weyl_add, items))


@given(**SEEDS)
def test_weyl_sums_match_a_fold_per_key(seed, count):
    rng = random.Random(seed)
    items = random_addends(rng, count, random_weyl, negated_weyl)
    keys = [rng.randrange(3) for _ in items]
    got = WeylOp.sums(one_shot(list(zip(keys, items))))
    assert sorted(got) == sorted(set(keys))
    for key, op in got.items():
        same_key = [item for k, item in zip(keys, items) if k == key]
        assert_same_op(op, fold(weyl_add, same_key))


@given(**SEEDS)
def test_weyl_sums_match_a_tgraded_fold(seed, count):
    # each key sums as a t power of TGradedOp does, zero pieces included
    rng = random.Random(seed)
    items = random_addends(rng, count, random_weyl, negated_weyl)
    keys = [rng.randrange(3) for _ in items]
    got = WeylOp.sums(one_shot(list(zip(keys, items))))
    tops = [TGradedOp({k: op}) for k, op in zip(keys, items)]
    want = fold(tgraded_add, tops, TGradedOp.zero()).pieces
    assert sorted(got) == sorted(want)
    for key, op in want.items():
        assert_same_op(got[key], op)


@given(**SEEDS)
def test_tgraded_sum_matches_fold(seed, count):
    rng = random.Random(seed)
    items = random_addends(rng, count, random_tgraded, negated_tgraded)
    got = TGradedOp.sum(one_shot(items))
    want = fold(tgraded_add, items, TGradedOp.zero())
    assert sorted(got.pieces) == sorted(want.pieces)
    for m, op in want.pieces.items():
        assert_same_op(got.pieces[m], op)


@given(**SEEDS)
def test_ppoly_sum_matches_fold(seed, count):
    rng = random.Random(seed)
    items = random_addends(rng, count, random_poly, lambda rng, f: -f)
    assert PPoly.sum(one_shot(items)) == fold(ppoly_add, items, PPoly.zero())


@given(**SEEDS)
def test_tau_series_sum_matches_fold(seed, count):
    rng = random.Random(seed)

    def series(rng):
        return TauSeries([random_poly(rng) for _ in range(3)])

    items = random_addends(rng, count, series, lambda rng, s: s.scale(-1))
    got = TauSeries.sum(one_shot(items), 2)
    assert got.coeffs == fold(tau_add, items, TauSeries.zero(2)).coeffs


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 8))
def test_products_sum_matches_fold(seed, count):
    # L_l with mixed degrees and zero pieces, some the negation of another,
    # so that equal scalars on Id . L_l cancel across l
    rng = random.Random(seed)
    family = random_addends(rng, 3, random_tgraded, negated_tgraded)
    ls = dict(enumerate(family, 1))
    scalars = {}
    for _ in range(count):
        key = (rng.choice([None, None, -2, -1, 1, 3]), rng.choice(list(ls)), rng.randrange(3))
        scalars[key] = rng.choice(COEFF_POOL)

    def product(x, l):
        if x is None:
            return ls[l]
        factor = WeylOp.p(-x) if x < 0 else WeylOp.p_star(x)
        return TGradedOp({0: factor}).compose(ls[l])

    got = C._products_sum(scalars, ls)
    want = fold(tgraded_add, [
        product(x, l).scale(c).tshift(tpow) for (x, l, tpow), c in scalars.items()
    ], TGradedOp.zero())
    assert sorted(got.pieces) == sorted(want.pieces)
    for m, op in want.pieces.items():
        assert_same_op(got.pieces[m], op)


def test_two_addend_operators_are_the_sums():
    rng = random.Random(7)
    a, b = random_op(rng, 5), random_op(rng, 3)
    assert_same_op(a + b, weyl_add(a, b))
    assert_same_op(a - a, WeylOp.zero(5))
    f, g = random_ppoly(rng, 4), random_ppoly(rng, 4)
    assert f + g == ppoly_add(f, g)
    s, t = TGradedOp({0: a, 1: b}), TGradedOp({1: -b, 2: a})
    assert (s + t).pieces.keys() == tgraded_add(s, t).pieces.keys() == {0, 1, 2}
    assert_same_op((s + t).pieces[1], WeylOp.zero(3))
