"""The merged transfer pieces against the reference copies in refcurrents.py and reftau.py.

``currents._rec_level`` runs the A_i(s) and single-color M_i(m) index
recursions as one loop with an index offset and a shift; it must give the
reference's terms and working degree, also past the support, where both are
the zero operator at d.  ``currents._y_state`` runs every y-route mode as
rounds of shifted transfer steps, the single-color round included; A_i(s)
and M^(k,m)_i must equal the charged reference transfer's.
``tau._lambda_series`` acts with the currents of ``currents`` on each
coefficient and shifts each step by u_c; run through t^(N-m) on the
truncated entries and feedback of every step of round m, it must give the
reference's full-order entries on t^0..t^(N-m), where the reference's
single-color step carries charge u instead.  ``tau.check_rooted_fixed_point``
runs each round only through the orders and marked degrees its check reads;
its report must equal the full-order reference's in reftau.py, also on
perturbed series.  A perturbed series must make the rooted fixed point fail
at the first affected (i, n).
"""

import math

import pytest

from bconstell.coeffring import ONE_PLUS_B, Coeff, ZERO
from bconstell.constraints import BIP, BIPLE3, THREECONST
from bconstell.currents import build_A, build_M
from bconstell.ppoly import PPoly
from bconstell.tau import (
    TauSeries,
    _lambda_series,
    _truncated,
    check_rooted_fixed_point,
    h_series,
    tau_evolve,
)
from bconstell.weyl import WeylOp

import refcurrents
import reftau

MODELS = (BIP, THREECONST, BIPLE3)


def same_op(got, want):
    return got.terms == want.terms and got.working_degree == want.working_degree


@pytest.mark.parametrize("d", range(0, 9))
def test_recursion_matches_reference(d):
    for s in range(0, 5):
        level = refcurrents._a_rec_level(s, d)
        for i in range(1, d + 6):
            want = level.get(i, WeylOp.zero(d))
            assert same_op(build_A(i, s, d, "rec"), want), ("A", i, s, d)
    for m in range(1, 4):
        level = refcurrents._m1_rec_level(m, d)
        for i in range(1, d + m + 5):
            want = level.get(i, WeylOp.zero(d))
            assert same_op(build_M(1, m, i, d, "rec"), want), ("M", m, i, d)


@pytest.mark.parametrize("d", range(0, 9))
def test_y_route_matches_charged_reference(d):
    for s in range(0, 5):
        state = refcurrents._a_state(s, d).y_plus()
        for i in range(1, d + 6):
            assert same_op(build_A(i, s, d, "y"), state.entry(i)), ("A", i, s, d)
    for k in (1, 2, 3):
        for m in range(1, 4 if k == 1 else 2):
            state = refcurrents._m_state(k, m, d)
            for i in range(1, d + m + 5):
                assert same_op(build_M(k, m, i, d), state.entry(i)), ("M", k, m, i, d)


def _feedback(model, tau):
    h = h_series(tau)
    N = tau.order
    out = {}
    for a in range(1, N + 1):
        g = TauSeries([h.coeff(n).dp(a) * a for n in range(N + 1)])
        if not g.is_zero():
            out[a] = g
    return out


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_lambda_series_matches_reference(model):
    N = 5
    tau = tau_evolve(model, N)
    feedback = _feedback(model, tau)
    entries = {0: TauSeries.one(N)}
    steps = 0
    # the reference round: charge u and no shift for k = 1, shifts u_c else
    ref_steps = refcurrents.round_steps(model.k)
    for m in range(1, model.r + 1):
        order = N - m
        fed = _truncated(feedback, order)
        for shift, (ref_shift, ref_charge) in zip(model.us(), ref_steps):
            got = _lambda_series(_truncated(entries, order), order, shift, fed, math.inf)
            want = reftau._lambda_series(
                entries, N, ref_shift, ZERO if ref_charge is None else ref_charge,
                feedback,
            )
            cut = _truncated(want, order)
            assert sorted(got) == sorted(cut)
            for j in cut:
                assert got[j].coeffs == cut[j].coeffs, (model.name, steps, j)
            # capping the marked degree drops the entries above the cap only
            for j_max in range(-1, max(got) + 1):
                capped = _lambda_series(_truncated(entries, order), order, shift, fed,
                                        j_max)
                assert capped.keys() == {j for j in got if j <= j_max}
                assert all(capped[j].coeffs == got[j].coeffs for j in capped)
            entries = want
            steps += 1
        entries = {j + 1: s for j, s in entries.items()}
    assert steps == model.r * model.k


def _reports_agree(model, tau, i_maxes):
    for i_max in i_maxes:
        want = reftau.check_rooted_fixed_point(model, tau, i_max)
        assert check_rooted_fixed_point(model, tau, i_max) == want, (model.name, i_max)
    return want


@pytest.mark.parametrize("N", range(0, 7))
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_fixed_point_report_matches_reference(model, N):
    _reports_agree(model, tau_evolve(model, N), sorted({1, 3, N, N + 2}))


def test_fixed_point_report_matches_reference_biple3_order7():
    # every round's early marked degrees need delta past N - m: p-degree up to N - 1 - j
    assert _reports_agree(BIPLE3, tau_evolve(BIPLE3, 7), [7])["ok"]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_fixed_point_report_matches_reference_on_perturbed_series(model):
    N = 5
    tau = tau_evolve(model, N)
    for n in (1, 2, N):
        for mono in {((1, n),), ((n, 1),)}:
            # add 1 to the coefficient of p1^n or p_n in [t^n] tau
            slice_n = dict(tau.coeff(n).terms)
            slice_n[mono] = slice_n.get(mono, Coeff.zero()) + Coeff.one()
            coeffs = list(tau.coeffs)
            coeffs[n] = PPoly(slice_n)
            report = _reports_agree(model, TauSeries(coeffs), [3, N + 2])
            assert report["ok"] is False, (model.name, n, mono)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_fixed_point_fails_on_a_perturbed_series(model):
    tau = tau_evolve(model, 4)
    assert check_rooted_fixed_point(model, tau, 3)["ok"]
    # add 1 to the coefficient of p1^2 in [t^2] tau: dH/dp1 moves at t^2 by
    # 2(1+b) p1, while the rooted transfer at t^2 only sees H below t^2
    mono = ((1, 2),)
    slice2 = dict(tau.coeff(2).terms)
    slice2[mono] = slice2.get(mono, Coeff.zero()) + Coeff.one()
    coeffs = list(tau.coeffs)
    coeffs[2] = PPoly(slice2)
    report = check_rooted_fixed_point(model, TauSeries(coeffs), 3)
    assert report["ok"] is False
    failing = [item for item in report["items"] if item["status"] == "fail"]
    first = failing[0]
    assert (first["i"], first["n"]) == (1, 2)
    assert first["first_mismatch"] == str(PPoly.gen(1, coeff=ONE_PLUS_B * 2))
    assert all(item["n"] >= 2 for item in failing)
