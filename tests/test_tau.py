from fractions import Fraction

import pytest

import refweyl
from perturb import perturbed_tau
import bconstell
from bconstell import coeffring
from bconstell.coeffring import Coeff, B, INV_1PB, ONE_PLUS_B, Q, U
from bconstell.constraints import BIP, BIPLE3, THREECONST, build_L
from bconstell.ppoly import PPoly
from bconstell.tau import (
    TauSeries,
    check_constraints,
    check_rooted_fixed_point,
    h_series,
    tau_evolve,
)

p1, p2 = PPoly.gen(1), PPoly.gen(2)


def test_order_zero_all_models():
    for model in (BIP, THREECONST, BIPLE3):
        series = tau_evolve(model, 0)
        assert series.coeff(0) == PPoly.one()


def test_bip_first_orders():
    series = tau_evolve(BIP, 2)
    c = U[1] * U[2] * INV_1PB
    assert series.coeff(1) == p1 * c
    half = Coeff.from_rational(Fraction(1, 2))
    want = (
        p1 * p1 * (Coeff.one() + U[1] * U[2] * INV_1PB) + p2 * (B + U[1] + U[2])
    ) * (c * half)
    assert series.coeff(2) == want


def test_biple3_first_order():
    series = tau_evolve(BIPLE3, 1)
    assert series.coeff(1) == p1 * (Q[1] * U[1] * INV_1PB)


def test_homogeneity_per_order():
    for model in (BIP, THREECONST, BIPLE3):
        series = tau_evolve(model, 4)
        for n, c in enumerate(series.coeffs):
            assert c.is_homogeneous(n), (model.name, n)


def test_extension_consistency():
    for model in (BIP, BIPLE3):
        small = tau_evolve(model, 3)
        big = tau_evolve(model, 4)
        for n in range(4):
            assert small.coeff(n) == big.coeff(n), (model.name, n)


def test_non_homogeneous_slice_is_one_entry():
    # [t^1] mixes degrees 1 and 2, so -p_1* maps it to degrees 0 and 1
    series = TauSeries([PPoly.one(), p1 + p1 * p1, PPoly.zero()])
    rep = check_constraints(BIP, series, 2)
    keys = [(item["i"], item["n"]) for item in rep["items"]]
    assert len(keys) == len(set(keys)) == 2 * 3
    (item,) = [item for item in rep["items"] if (item["i"], item["n"]) == (1, 1)]
    assert item == {
        "i": 1, "n": 1, "status": "fail",
        "reason": "t^0 piece is not homogeneous of degree 0",
        "first_nonzero": "(-b + u1*u2 - 1)/(1+b)^1",
    }
    assert not rep["ok"]


def test_constraints_small():
    for model in (BIP, THREECONST, BIPLE3):
        series = tau_evolve(model, 3)
        rep = check_constraints(model, series, 3)
        assert rep["ok"], model.name
        assert rep["denominator_flags"] == []


def test_constraints_vacuous_below_index():
    series = tau_evolve(BIP, 2)
    rep = check_constraints(BIP, series, 5)
    low = [x for x in rep["items"] if x["n"] < x["i"]]
    assert low and all(x["status"] == "pass" for x in low)


def test_constraints_detect_corruption():
    series = tau_evolve(BIP, 2)
    broken = TauSeries([series.coeff(0), series.coeff(1) + p1, series.coeff(2)])
    rep = check_constraints(BIP, broken, 2)
    assert not rep["ok"]
    assert any(x.get("first_nonzero") for x in rep["items"])


def test_constraints_take_the_model_not_the_series():
    # a series built without a model, such as the constant 1, is checked too
    rep = check_constraints(BIP, TauSeries.one(2), 1)
    assert [(x["i"], x["n"], x["status"]) for x in rep["items"]] == [
        (1, 0, "pass"), (1, 1, "fail"), (1, 2, "pass")
    ]
    assert rep["items"][1]["first_nonzero"] == "u1*u2/(1+b)^1"
    assert rep["ok"] is False


def _is_one_term(text):
    """Whether text prints a one-term PPoly: no " + " outside the coefficient."""
    if "p" not in text:
        return True  # only the constant monomial; its coefficient is unbracketed
    depth = 0
    for pos, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and text.startswith(" + ", pos):
            return False
    return True


def test_failing_checks_name_one_term():
    # 1 added to the coefficient of p1^3 in [t^3] tau of threeconst
    series = perturbed_tau(THREECONST, 6)
    constraints = check_constraints(THREECONST, series, 5)
    fixed_point = check_rooted_fixed_point(THREECONST, series, 3)
    for rep, key in ((constraints, "first_nonzero"), (fixed_point, "first_mismatch")):
        failing = [x for x in rep["items"] if x["status"] == "fail"]
        assert failing and all(_is_one_term(x[key]) for x in failing)
    first = [x for x in constraints["items"] if x["status"] == "fail"][0]
    assert (first["i"], first["n"], first["first_nonzero"]) == (1, 3, "(-3)*p1^2")
    first = [x for x in fixed_point["items"] if x["status"] == "fail"][0]
    assert (first["i"], first["n"], first["first_mismatch"]) == (1, 3, "(3*b + 3)*p1^2")


def test_first_term_is_the_first_sorted_term():
    f = p2 * B + p1 * p1 * 3 + p1
    assert str(f.first_term()) == "p1"
    assert f.first_term().terms == dict(f.sorted_terms()[:1])
    assert not PPoly.zero().first_term()


def test_general_maps_specialization():
    series = tau_evolve(BIPLE3, 4)
    # symbolic in q, so the check holds at q1 = q3 = 0, q2 = 1 too
    rep = check_constraints(BIPLE3, series, 3)
    assert rep["ok"]
    spec = series.map_coeff(lambda c: c.subs({"q1": 0, "q3": 0, "q2": 1}))
    # only even sizes survive once odd-degree vertices are forbidden
    assert not spec.coeff(1)
    assert not spec.coeff(3)
    assert spec.coeff(2)


@pytest.mark.parametrize(
    "subs",
    [{"q1": 0, "q2": 1, "q3": 0}, {"u1": 2, "u2": Fraction(1, 3)}, {"b": 1}],
    ids=["q-even", "u", "b1"],
)
@pytest.mark.parametrize("model", [BIP, THREECONST, BIPLE3], ids=lambda m: m.name)
def test_specializing_commutes_with_applying_L(model, subs):
    """Substituting u, q or b commutes with applying L_i: each specialized
    slice is the specialized piece applied to the specialized series, so
    the symbolic constraint check holds at every specialization."""

    def at(c):
        return c.subs(subs)

    series = tau_evolve(model, 5)
    special = series.map_coeff(at)
    for i in (1, 2, 3):
        for m, op in build_L(model, i, 5).pieces.items():
            op_at = op.map_coeff(at)
            for n in range(6):
                got = op_at.apply(special.coeff(n))
                want = op.apply(series.coeff(n)).map_coeff(at)
                assert not got - want, (i, m, n)


def test_h_series_examples():
    series = tau_evolve(BIP, 3)
    h = h_series(series)
    assert h.coeff(0) == PPoly.zero()
    assert h.coeff(1) == p1 * (U[1] * U[2])
    assert stepwise_exp(h) == series.coeffs


def test_h_series_requires_unit_constant():
    bad = TauSeries([PPoly.zero()])
    with pytest.raises(ValueError):
        h_series(bad)


def test_denominator_profile_reported():
    series = tau_evolve(BIP, 4)
    profile = series.denom_pow_profile()
    assert len(profile) == 5
    assert all(isinstance(x, int) and x <= n for n, x in enumerate(profile))


def test_fixed_point_small():
    for model in (BIP, THREECONST, BIPLE3):
        series = tau_evolve(model, 3)
        rep = check_rooted_fixed_point(model, series, 2)
        assert rep["ok"], model.name


def test_fixed_point_order_zero_and_first():
    series = tau_evolve(BIP, 2)
    h = h_series(series)
    assert h.coeff(1).dp(1) == PPoly.one() * (U[1] * U[2])
    rep = check_rooted_fixed_point(BIP, series, 1)
    assert rep["ok"]
    zero_order = [x for x in rep["items"] if x["n"] == 0]
    assert all(x["status"] == "pass" for x in zero_order)


def test_one_series_type_truncates_at_its_order():
    assert isinstance(h_series(tau_evolve(BIP, 2)), TauSeries)
    one = TauSeries.one(2)
    assert one.order == 2
    assert TauSeries.zero(2).is_zero() and not one.is_zero()
    g = TauSeries([PPoly.zero(), p1, p2])
    # t * g would reach t^3; the series stays at order 2
    shifted = g.tshift(1)
    assert shifted.coeffs == [PPoly.zero(), PPoly.zero(), p1]
    assert g.mul_series(g).coeffs == [PPoly.zero(), PPoly.zero(), p1 * p1]
    assert (one + g - g).coeffs == one.coeffs
    assert g.scale(B).coeffs == [PPoly.zero(), p1 * B, p2 * B]


# -- the t-convolutions against the stepwise loops ----------------------------


def stepwise_h(tau):
    """(1+b) log tau by one PPoly product and subtraction per j."""
    logs = [PPoly.zero()]
    for n in range(1, tau.order + 1):
        acc = tau.coeff(n) * n
        for j in range(1, n):
            acc = acc - refweyl.ppoly_mul(logs[j], tau.coeff(n - j)) * j
        logs.append(acc * Coeff.from_rational(Fraction(1, n)))
    return [c * ONE_PLUS_B for c in logs]


def stepwise_exp(h):
    """exp(H/(1+b)) by one PPoly product and addition per j; the inverse of h_series."""
    s = [c * INV_1PB for c in h.coeffs]
    coeffs = [PPoly.one()]
    for n in range(1, h.order + 1):
        acc = PPoly.zero()
        for j in range(1, n + 1):
            acc = acc + refweyl.ppoly_mul(s[j], coeffs[n - j]) * j
        coeffs.append(acc * Coeff.from_rational(Fraction(1, n)))
    return coeffs


def stepwise_product(f, g):
    out = [PPoly.zero() for _ in f.coeffs]
    for a, ca in enumerate(f.coeffs):
        for b in range(f.order - a + 1):
            out[a + b] = out[a + b] + refweyl.ppoly_mul(ca, g.coeffs[b])
    return out


@pytest.mark.parametrize("model", [BIP, THREECONST, BIPLE3], ids=lambda m: m.name)
def test_convolutions_match_stepwise_loops(model):
    tau = tau_evolve(model, 4)
    h = h_series(tau)
    assert h.coeffs == stepwise_h(tau)
    assert stepwise_exp(h) == tau.coeffs
    rooted = TauSeries([c.dp(1) * INV_1PB ** 3 for c in h.coeffs])
    for f, g in ((tau, h), (h, rooted), (rooted, tau)):
        assert f.mul_series(g).coeffs == stepwise_product(f, g)


def test_series_sums_take_the_packed_path(monkeypatch):
    # threeconst at t^6 and its nullity check through i = 5 route large sums
    # through the packed path; with every sum kept on the dict path, the
    # series and the report are the same
    def run():
        bconstell.clear_caches()
        series = tau_evolve(THREECONST, 6)
        return series, check_constraints(THREECONST, series, 5)

    calls = []
    packed = coeffring._sum_packed
    monkeypatch.setattr(coeffring, "_sum_packed", lambda groups: calls.append(1) or packed(groups))
    series, report = run()
    assert calls and report["ok"]
    calls.clear()
    monkeypatch.setattr(coeffring, "PACKED_PAIRS", 1 << 62)
    dict_series, dict_report = run()
    assert not calls
    assert series.coeffs == dict_series.coeffs
    assert report == dict_report
