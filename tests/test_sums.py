"""The n-ary sums against a left fold of the stepwise additions in refsum.py.

``WeylOp.sum``, ``WeylOp.sums``, ``TGradedOp.sum``, ``PPoly.sum`` and
``TauSeries.sum`` merge each addend into one dict as it arrives.  Over random
addend lists with mixed working degrees, zero addends and cancelling pairs
(some at another working degree, so that a partial sum is cut down or
cancels to zero) they must give the terms and working degrees of the fold,
and each takes a one-shot generator.
"""

import random

import pytest
from hypothesis import given, strategies as st

from bconstell.constraints import TGradedOp
from bconstell.ppoly import PPoly
from bconstell.tau import TauSeries
from bconstell.weyl import WeylOp

from randops import random_op, random_ppoly
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


@given(floor=st.one_of(st.none(), st.integers(0, MAX_D)), **SEEDS)
def test_weyl_sum_matches_fold(seed, count, floor):
    rng = random.Random(seed)
    items = random_addends(rng, count, random_weyl, negated_weyl)
    start = None if floor is None else WeylOp.zero(floor)
    if not items and floor is None:
        with pytest.raises(ValueError):
            WeylOp.sum(one_shot(items))
        return
    assert_same_op(WeylOp.sum(one_shot(items), floor), fold(weyl_add, items, start))


@given(floor=st.one_of(st.none(), st.integers(0, MAX_D)), **SEEDS)
def test_weyl_sums_match_a_fold_per_key(seed, count, floor):
    rng = random.Random(seed)
    items = random_addends(rng, count, random_weyl, negated_weyl)
    keys = [rng.randrange(3) for _ in items]
    got = WeylOp.sums(one_shot(list(zip(keys, items))), floor)
    assert sorted(got) == sorted(set(keys))
    start = None if floor is None else WeylOp.zero(floor)
    for key, op in got.items():
        same_key = [item for k, item in zip(keys, items) if k == key]
        assert_same_op(op, fold(weyl_add, same_key, start))


@given(**SEEDS)
def test_nonzero_weyl_sums_match_a_tgraded_fold(seed, count):
    # with nonzero, each key sums as a t-power of TGradedOp does
    rng = random.Random(seed)
    items = random_addends(rng, count, random_weyl, negated_weyl)
    keys = [rng.randrange(3) for _ in items]
    got = WeylOp.sums(one_shot(list(zip(keys, items))), nonzero=True)
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
        return TauSeries(None, [random_poly(rng) for _ in range(3)])

    items = random_addends(rng, count, series, lambda rng, s: s.scale(-1))
    got = TauSeries.sum(one_shot(items), 2)
    assert got.coeffs == fold(tau_add, items, TauSeries.zero(2)).coeffs


def test_two_addend_operators_are_the_sums():
    rng = random.Random(7)
    a, b = random_op(rng, 5), random_op(rng, 3)
    assert_same_op(a + b, weyl_add(a, b))
    assert_same_op(a - a, WeylOp.zero(5))
    f, g = random_ppoly(rng, 4), random_ppoly(rng, 4)
    assert f + g == ppoly_add(f, g)
    s, t = TGradedOp({0: a, 1: b}), TGradedOp({1: -b, 2: a})
    assert (s + t).pieces.keys() == tgraded_add(s, t).pieces.keys() == {0, 2}
