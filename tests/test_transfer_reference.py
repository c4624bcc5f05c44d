"""The merged transfer pieces against the reference copies in refcurrents.py and reftau.py.

``currents._rec_level`` runs the A_i(s) and single-color M_i(m) index
recursions as one loop with an index offset and a shift; it must give the
reference's terms and working degree, also past the support, where both are
the zero operator at d.  ``currents._y_state`` runs every y-route mode as
rounds of shifted transfer steps, the single-color round included; A_i(s)
and M^(k,m)_i must equal the charged reference transfer's.
``tau._lambda_series`` acts with the currents of ``currents`` on each
coefficient and shifts each step by u_c; it must give the reference's
entries on the real entries and feedback of every step of every round,
where the reference's single-color step carries charge u instead.  A
perturbed series must make the rooted fixed point fail at the first
affected (i, n).
"""

import pytest

from bconstell.coeffring import ONE_PLUS_B, Coeff, ZERO
from bconstell.constraints import BIP, BIPLE3, THREECONST
from bconstell.currents import build_A, build_M
from bconstell.ppoly import PPoly
from bconstell.tau import (
    TauSeries,
    _lambda_series,
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
        g = TauSeries(model, [h.coeff(n).dp(a) * a for n in range(N + 1)])
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
    for _ in range(model.r):
        for shift, (ref_shift, ref_charge) in zip(model.us(), ref_steps):
            got = _lambda_series(entries, N, shift, feedback)
            want = reftau._lambda_series(
                entries, N, ref_shift, ZERO if ref_charge is None else ref_charge,
                feedback,
            )
            assert sorted(got) == sorted(want)
            for j in want:
                assert got[j].coeffs == want[j].coeffs, (model.name, steps, j)
            entries = got
            steps += 1
        entries = {j + 1: s for j, s in entries.items()}
    assert steps == model.r * model.k


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
    report = check_rooted_fixed_point(model, TauSeries(model, coeffs), 3)
    assert report["ok"] is False
    failing = [item for item in report["items"] if item["status"] == "fail"]
    first = failing[0]
    assert (first["i"], first["n"]) == (1, 2)
    assert first["first_mismatch"] == str(PPoly.gen(1, coeff=ONE_PLUS_B * 2))
    assert all(item["n"] >= 2 for item in failing)
