"""Each series check sums every output slice once, against reftau's per-addend copies.

``check_constraints`` deposits every piece of [t^n] L_i tau into one
accumulator and ``check_rooted_fixed_point`` every current, scalar and
feedback product of a transfer step's slice (j', t^n); reftau's
``check_constraints_by_piece`` and ``check_cut_fixed_point`` summed each
addend to a canonical polynomial first.  The report dicts must be equal,
reasons and first terms included, on passing, perturbed and inhomogeneous
series.  Neither check may merge addends by ``PPoly.sum``, and a comparison
subtracts only unequal sides.
"""

import importlib

import pytest

import reftau
from perturb import perturbed_tau
from bconstell import coeffring
from bconstell.coeffring import ONE, ONE_PLUS_B, Coeff, _make
from bconstell.constraints import BIP, BIPLE3, THREECONST
from bconstell.ppoly import PPoly, first_difference
from bconstell.tau import TauSeries, check_constraints, check_rooted_fixed_point, tau_evolve
from bconstell.weyl import WeylOp, pack_poly, sum_applied, unpack_poly

jack = importlib.import_module("bconstell.jack")
MODELS = (BIP, THREECONST, BIPLE3)
p1 = PPoly.monomial(((1, 1),))


def assert_same_reports(model, tau, i_max):
    assert check_constraints(model, tau, i_max) == reftau.check_constraints_by_piece(
        model, tau, i_max
    )
    assert check_rooted_fixed_point(model, tau, i_max) == reftau.check_cut_fixed_point(
        model, tau, i_max
    )


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_reports_match_per_addend_checks_through_t6(model):
    tau = tau_evolve(model, 6)
    for i_max in (3, 6, 8):
        assert_same_reports(model, tau, i_max)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_reports_match_per_addend_checks_on_a_perturbed_series(model):
    tau = perturbed_tau(model, 5)
    assert_same_reports(model, tau, 5)
    assert not check_constraints(model, tau, 5)["ok"]
    assert not check_rooted_fixed_point(model, tau, 5)["ok"]


def test_reports_match_per_addend_checks_on_an_inhomogeneous_series():
    # [t^1] mixes degrees 1 and 2, so the t^0 piece of L_1 is not homogeneous
    series = TauSeries([PPoly.one(), p1 + p1 * p1, PPoly.zero()])
    for model in MODELS:
        assert_same_reports(model, series, 2)
    reasons = [x.get("reason") for x in check_constraints(BIP, series, 2)["items"]]
    assert "t^0 piece is not homogeneous of degree 0" in reasons


def test_checks_merge_no_addends_at_the_series_workload_sizes(monkeypatch):
    # the series workload: threeconst through t^6, nullity through i = 5 and
    # the fixed point through i = 3
    tau = tau_evolve(THREECONST, 6)
    calls = []
    real = PPoly.sum
    monkeypatch.setattr(PPoly, "sum", staticmethod(lambda polys: calls.append(1) or real(polys)))
    assert check_constraints(THREECONST, tau, 5)["ok"]
    assert check_rooted_fixed_point(THREECONST, tau, 3)["ok"]
    assert calls == []
    # the per-addend series sums are gone from the engine
    assert not hasattr(TauSeries, "sums") and not hasattr(TauSeries, "sum")


def test_apply_into_one_accumulator_is_the_sum_of_the_applications():
    tau = tau_evolve(BIPLE3, 4)
    ops = [WeylOp.p_star(1, ONE_PLUS_B), WeylOp.p(2), WeylOp.scalar(Coeff.from_rational(3))]
    acc = {}
    want = PPoly.zero()
    for op, f in zip(ops, tau.coeffs[2:]):
        op.apply_into(pack_poly(f), acc)
        want = want + op.apply(f)
    assert unpack_poly(sum_applied(acc)) == want
    assert unpack_poly(sum_applied({})) == PPoly.zero()


def test_first_difference_names_the_first_term_of_the_difference():
    f = p1 * p1 + PPoly.monomial(((2, 1),), ONE_PLUS_B)
    g = p1 * p1
    assert first_difference(f, g) == PPoly.monomial(((2, 1),), ONE_PLUS_B)


def test_a_zero_difference_of_unequal_sides_raises():
    # 2/2 is not canonical: it differs from 1 as a form, but not as a value
    two_halves = _make({0: 2}, 2, 0)
    f, g = PPoly({(): two_halves}), PPoly({(): ONE})
    assert f != g
    with pytest.raises(AssertionError, match="canonical form"):
        first_difference(f, g)


def test_compare_with_engine_subtracts_only_a_mismatch(monkeypatch):
    calls = []
    real = jack.first_difference
    monkeypatch.setattr(jack, "first_difference", lambda f, g: calls.append(1) or real(f, g))
    assert jack.compare_with_engine(BIP, 3)["ok"]
    assert calls == []
    report = jack.compare_with_engine(THREECONST, 4, engine=perturbed_tau(THREECONST, 4))
    assert report["first_mismatch"]["order"] == 3 and calls == [1]


def test_printer_memo_is_bounded():
    assert coeffring._factors.cache_info().maxsize is not None
