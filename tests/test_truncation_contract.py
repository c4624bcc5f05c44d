"""The truncation contract, property-tested over every builder.

An operator built at working degree D + k and truncated to D must equal the
operator built at D, and a composition of operators built at raised degrees,
truncated to the lower composition's working degree, must equal that
composition.  The pruning in WeylOp.compose relies on exactly this: a term
whose derivative part lies above the working degree is never needed.

Exact operators (currents, p_n, p_n*, scalars, the identity) sit at EXACT:
cut down to d, a current must be the one the references build at d, and no
dump prints an exact degree.
"""

import json
import random

import pytest
from hypothesis import assume, given, strategies as st

import bconstell.constraints as constraints_mod
from bconstell.constraints import (
    BIP, BIPLE3, THREECONST, TGradedOp, build_D, build_Dtilde, build_L, verify_commutators,
)
from bconstell.cli import main
from bconstell.coeffring import U
from bconstell.currents import build_A, build_M, current
from bconstell.weyl import EXACT, DegreeBudgetError, WeylOp, live_terms

import refcurrents
from refstruct import scale, tshift
from randops import COEFF_POOL, random_op

D = 4
RAISES = (1, 3)


def assert_truncates_to(big, small, d):
    assert small.working_degree == d
    cut = big.truncated(d)
    assert cut.working_degree == d
    assert cut.terms == small.terms


BUILDERS = {
    # the exact current cut down to d, as dump prints it
    "current": [lambda d, i=i: current(i).truncated(d) for i in (-3, -1, 0, 2, 5)],
    "A_rec": [lambda d, i=i, s=s: build_A(i, s, d, route="rec")
              for i in (1, 2, 4) for s in (0, 2, 3)],
    "A_y": [lambda d, i=i, s=s: build_A(i, s, d, route="y")
            for i in (1, 2, 4) for s in (0, 2, 3)],
    "M": [lambda d, k=k, m=m, i=i: build_M(k, m, i, d)
          for k, m in ((1, 1), (1, 3), (2, 1), (3, 1)) for i in (1, 3)],
    "M_rec": [lambda d, m=m, i=i: build_M(1, m, i, d, route="rec")
              for m in (2, 3) for i in (1, 3)],
    "D": [lambda d, s=s, i=i, j=j, l=l: build_D(s, i, j, l, d)
          for s in (2, 3) for i, j, l in ((3, 1, 1), (3, 1, 3), (2, 4, 3), (4, 2, 5))],
    "Dtilde": [lambda d, m=m, i=i, j=j, l=l: build_Dtilde(m, i, j, l, d)
               for m in (2, 3) for i, j, l in ((3, 2, 2), (3, 1, 1), (2, 4, 3), (4, 2, 3))],
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("k", RAISES)
def test_builder_truncates(name, k):
    for build in BUILDERS[name]:
        assert_truncates_to(build(D + k), build(D), D)


@pytest.mark.parametrize("model", [BIP, THREECONST, BIPLE3], ids=lambda m: m.name)
@pytest.mark.parametrize("k", RAISES)
def test_build_L_truncates(model, k):
    for i in (1, 2, 4):
        big, small = build_L(model, i, D + k), build_L(model, i, D)
        assert set(small.pieces) <= set(big.pieces)
        for m, op in big.pieces.items():
            assert_truncates_to(op, small.pieces[m], D)


def assert_compose_truncates(x, y, k):
    """x(d1 + k).compose(y(d2 + k)), truncated, == x(d1).compose(y(d2))."""
    small = x(0).compose(y(0))
    big = x(k).compose(y(k))
    assert big.working_degree >= small.working_degree
    assert big.truncated(small.working_degree).terms == small.terms


@pytest.mark.parametrize("k", RAISES)
def test_compose_of_builders_truncates(k):
    pairs = [
        (lambda r: build_A(3, 2, D + r), lambda r: build_A(1, 3, D + r)),
        (lambda r: build_A(1, 3, D + r), lambda r: build_A(2, 1, D + r)),
        (lambda r: build_M(1, 3, 2, D + r), lambda r: build_M(1, 2, 3, D + r)),
        (lambda r: current(2), lambda r: build_M(3, 1, 1, D + r)),
        (lambda r: build_D(3, 4, 2, 3, D + 1 + r), lambda r: build_A(3, 3, D + r)),
        (lambda r: build_L(THREECONST, 2, D + r).pieces[1],
         lambda r: build_L(THREECONST, 1, D + r).pieces[1]),
        (lambda r: build_L(BIPLE3, 1, D + 2 + r).pieces[3],
         lambda r: build_L(BIPLE3, 4, D + r).pieces[2]),
    ]
    for x, y in pairs:
        assert_compose_truncates(x, y, k)
        assert_compose_truncates(y, x, k)


@given(
    seed=st.integers(0, 2**32 - 1),
    d1=st.integers(0, 7),
    d2=st.integers(0, 7),
    k=st.integers(1, 4),
)
def test_compose_of_random_ops_truncates(seed, d1, d2, k):
    rng = random.Random(seed)
    x_terms = random_op(rng, 20, max_terms=5).terms
    y_terms = random_op(rng, 20, max_terms=5).terms
    x_small, y_small = WeylOp(x_terms, d1), WeylOp(y_terms, d2)
    x_big, y_big = WeylOp(x_terms, d1 + k), WeylOp(y_terms, d2 + k)
    new_d = min(d2, d1 - y_small.max_jump())
    # terms of y that only appear at the raised degree may raise its jump
    assume(new_d >= 0 and min(d2 + k, d1 + k - y_big.max_jump()) >= new_d)
    assert_compose_truncates(
        lambda r: x_big if r else x_small, lambda r: y_big if r else y_small, k
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    d1=st.integers(0, 7),
    d2=st.integers(0, 7),
    d=st.integers(0, 7),
)
def test_every_result_stores_only_live_terms(seed, d1, d2, d):
    rng = random.Random(seed)
    a = random_op(rng, d1, max_terms=5)
    b = random_op(rng, d2, max_terms=5)
    results = [a, b, -a, a.scale(rng.choice(COEFF_POOL)), a.scale(0),
               WeylOp.sum([a, b]), WeylOp.sum([b, a, b])]
    results += WeylOp.sums([(0, a), (1, b), (0, b), (1, a)]).values()
    if d <= d1:
        results.append(a.truncated(d))
    if d1 - b.max_jump() >= 0:
        results.append(a.compose(b))
    for op in results:
        assert op.terms == live_terms(op.terms, op.working_degree)
    # y differs from a on some terms; at d the two are equal exactly when
    # every differing term acts only above d
    changed = {key: c + 1 for key, c in a.terms.items() if rng.random() < 0.5}
    y = WeylOp({**a.terms, **changed}, d1 + 1)
    d = min(d, d1)
    equal = a.equal_up_to(y, d)
    assert equal == (live_terms(a.terms, d) == live_terms(y.terms, d))
    assert equal == (not a.diff_up_to(y, d))


def test_graded_comparison_above_a_zero_piece_raises():
    # p_1* at working degree 0 is zero there, and unknown at degree 5
    with pytest.raises(DegreeBudgetError):
        WeylOp.p_star(1).truncated(0).equal_up_to(WeylOp.zero(5), 5)
    dropped = TGradedOp({0: WeylOp.p_star(1).truncated(0)})
    with pytest.raises(DegreeBudgetError):
        TGradedOp({0: WeylOp.p_star(1).truncated(0)}).equal_up_to(TGradedOp.zero(), 5)
    assert dropped.equal_up_to(TGradedOp.zero(), 0)
    for moved in (-dropped, tshift(dropped, 2), scale(dropped, U[1]), dropped + dropped):
        with pytest.raises(DegreeBudgetError):
            moved.equal_up_to(TGradedOp.zero(), 5)
    # a piece that cancels in a sum keeps the least degree of its addends
    a = TGradedOp({1: WeylOp.p(1).truncated(3)})
    b = TGradedOp({1: WeylOp.p(1).truncated(6)})
    assert (a - b).is_zero() and (a - b).pieces[1].working_degree == 3
    assert (a - b).equal_up_to(TGradedOp.zero(), 3)
    with pytest.raises(DegreeBudgetError):
        (a - b).equal_up_to(TGradedOp.zero(), 4)


# -- a zero piece composes as the WeylOp zero it is -----------------------------


def test_floor_composed_past_its_budget_raises():
    # WeylOp.zero(0) . p2 has degree 0 - 2 < 0, so the t-graded product raises too
    with pytest.raises(DegreeBudgetError):
        WeylOp.zero(0).compose(WeylOp.p(2))
    with pytest.raises(DegreeBudgetError):
        TGradedOp({0: WeylOp.zero(0)}).compose(TGradedOp({0: WeylOp.p(2)}))


def test_floor_within_budget_composes_to_a_floor():
    # zero at degree 3 after the exact p1: a zero at t^1, known up to 3 - 1
    got = TGradedOp({0: WeylOp.zero(3)}).compose(TGradedOp({1: WeylOp.p(1)}))
    assert got.is_zero() and got.pieces[1].working_degree == 2
    assert got.equal_up_to(TGradedOp.zero(), 2)
    with pytest.raises(DegreeBudgetError):
        got.equal_up_to(TGradedOp.zero(), 3)
    # a live piece after a zero piece keeps the zero's degree
    got = TGradedOp({0: WeylOp.p(2)}).compose(TGradedOp({2: WeylOp.zero(1)}))
    assert got.is_zero() and got.pieces[2].working_degree == 1


def test_self_commutator_checks_the_budget_of_a_floor():
    # the zero piece at t^0 composed after p2 has degree 0 - 2 < 0
    a = TGradedOp({0: WeylOp.zero(0), 1: WeylOp.p(2)})
    assert a.pieces[0].is_zero() and a.pieces[0].working_degree == 0
    with pytest.raises(DegreeBudgetError):
        a.commutator(a)


# -- one zero per t power: a zero piece sums as the WeylOp zero ------------------


def test_zero_piece_sum_sits_at_the_zero_degree():
    # as for WeylOp, zero at degree 2 plus the exact p1* is known up to 2 only
    want = WeylOp.zero(2) + WeylOp.p_star(1)
    got = TGradedOp({0: WeylOp.zero(2)}) + TGradedOp({0: WeylOp.p_star(1)})
    assert got.pieces[0].working_degree == want.working_degree == 2
    assert got.pieces[0].terms == want.terms
    assert got.equal_up_to(TGradedOp({0: WeylOp.p_star(1)}), 2)
    with pytest.raises(DegreeBudgetError):
        want.equal_up_to(WeylOp.p_star(1), 5)
    with pytest.raises(DegreeBudgetError):
        got.equal_up_to(TGradedOp({0: WeylOp.p_star(1)}), 5)


def test_cancelled_piece_keeps_its_degree_in_a_longer_sum():
    # a - a cancels at degree 3; a later addend at 6 does not raise it again
    a = TGradedOp({1: WeylOp.p(1).truncated(3)})
    d = TGradedOp({1: WeylOp.p(2).truncated(6)})
    got = TGradedOp.sum([a, -a, d])
    assert got.pieces[1].working_degree == 3
    assert got.pieces[1].terms == WeylOp.p(2).truncated(3).terms
    with pytest.raises(DegreeBudgetError):
        got.equal_up_to(d, 4)


def test_build_L_keeps_a_mode_zero_at_its_working_degree():
    # M_7(1) of biple3 is zero at degree 5, and unknown above it
    L = build_L(BIPLE3, 7, 5)
    assert L.pieces[1].is_zero()
    assert L.piece(1).working_degree == 5
    with pytest.raises(DegreeBudgetError):
        L.equal_up_to(build_L(BIPLE3, 7, 6), 6)


def test_index_past_the_family_is_zero_at_the_build_degree(monkeypatch):
    # bip at check degree 1 builds L_1..L_4 at degree 1; L_5 is zero only up to it
    seen = []

    def capture(params, i_max, d_check, relations, extra=None, progress=None):
        seen.extend(lhs_of for _, lhs_of, _ in relations)

    monkeypatch.setattr(constraints_mod, "_pair_sweep", capture)
    verify_commutators(BIP, 6, 1)
    (lhs_of,) = seen
    lhs = lhs_of(5, 1)
    assert lhs.equal_up_to(TGradedOp.zero(), 1)
    with pytest.raises(DegreeBudgetError):
        lhs.equal_up_to(TGradedOp.zero(), 2)


# -- exact operators carry no working degree ------------------------------------


def test_truncated_current_is_the_current_built_at_that_degree():
    for i in range(-8, 9):
        for d in range(0, 9):
            got = current(i).truncated(d)
            want = refcurrents.current(i, d)
            assert got.working_degree == want.working_degree == d
            assert got.terms == want.terms, (i, d)


def test_exact_builders_sit_at_exact():
    exact = [current(-2), current(3), current(0), WeylOp.p(2), WeylOp.p(0),
             WeylOp.p_star(2), WeylOp.creation(((1, 2), (3, 1))), WeylOp.scalar(3),
             WeylOp.identity(), TGradedOp({0: WeylOp.p(1)}).piece(1)]
    for op in exact:
        assert op.working_degree == EXACT, op
    # a product with an exact left factor sits at its right operand's degree
    assert WeylOp.p_star(3).compose(build_A(2, 2, D)).working_degree == D
    assert build_A(2, 2, D).compose(WeylOp.p(3)).working_degree == D - 3


def test_exhausted_budget_with_an_exact_operand_has_a_message():
    # degree 1 - jump 5 < 0: the exact right operand's degree is formatted too
    with pytest.raises(DegreeBudgetError, match=r"degrees 1 and inf, jump 5\)"):
        WeylOp.p_star(1).truncated(1).compose(WeylOp.p(5))
    with pytest.raises(DegreeBudgetError, match=r"working degrees \(0, inf\)"):
        WeylOp.zero(0).equal_up_to(WeylOp.identity(), 1)


def _no_constant(name):
    raise ValueError("dump printed the non-finite number %s" % name)


DUMPS = [
    *(["--op", "J", "--i", str(i), "--deg", str(d)]
      for i in (-3, 0, 2, 5) for d in (0, 3)),
    ["--op", "A", "--i", "2", "--s", "2", "--deg", "3"],
    ["--op", "A", "--i", "4", "--s", "0", "--deg", "0"],
    ["--op", "M", "--k", "1", "--m", "3", "--i", "1", "--deg", "2"],
    ["--op", "M", "--k", "3", "--m", "1", "--i", "6", "--deg", "1"],
    ["--op", "L", "--model", "biple3", "--i", "7", "--deg", "5"],
    ["--op", "L", "--model", "bip", "--i", "3", "--deg", "0"],
    *(["--op", "D", "--s", str(s), "--i", "5", "--j", "1", "--l", "2", "--deg", str(d)]
      for s in (0, 2, 3) for d in (0, 1, 3)),
    *(["--op", "Dtilde", "--m", str(m), "--i", "5", "--j", "1", "--l", "1", "--deg",
       str(d)] for m in (1, 2, 3) for d in (0, 1, 3)),
]


@pytest.mark.parametrize("argv", DUMPS, ids=" ".join)
def test_dump_prints_no_exact_degree(argv, capsys):
    assert main(["dump", *argv]) == 0
    obj = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    pieces = obj["pieces"].values() if "pieces" in obj else [obj]
    for piece in pieces:
        assert isinstance(piece["working_degree"], int)
