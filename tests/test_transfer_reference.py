"""The merged transfer pieces against the reference copies in refcurrents.py and reftau.py.

``currents._rec_level`` runs the A_i(s) and single-color M_i(m) index
recursions as one loop with an index offset and a charge; it must give the
reference's terms and working degree, also past the support, where both are
the zero operator at d.  ``tau._lambda_series`` acts with the currents of
``currents`` on each coefficient; it must give the reference's entries on the
real entries and feedback of every step of every round.  A perturbed series
must make the rooted fixed point fail at the first affected (i, n).
"""

import pytest

from bconstell.coeffring import ONE_PLUS_B, Coeff, U, ZERO
from bconstell.constraints import BIP, BIPLE3, THREECONST
from bconstell.currents import build_A, build_M, round_steps
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
    for _ in range(model.r):
        for shift, charge in round_steps(model.k):
            got = _lambda_series(entries, N, shift, charge, feedback)
            want = reftau._lambda_series(
                entries, N, shift, ZERO if charge is None else charge, feedback
            )
            assert sorted(got) == sorted(want)
            for j in want:
                assert got[j].coeffs == want[j].coeffs, (model.name, steps, j)
            entries = got
            steps += 1
        entries = {j + 1: s for j, s in entries.items()}
    assert steps == model.r * len(round_steps(model.k))


def test_round_steps():
    assert round_steps(1) == [(None, U[1])]
    for k in (2, 3):
        assert round_steps(k) == [(U[c], None) for c in range(1, k + 1)]


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
