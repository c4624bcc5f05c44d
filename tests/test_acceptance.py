"""Acceptance suite: every release gate, at its stated size and degree.

All checks are exact equalities of operators or series coefficients; there
are no tolerances anywhere.  Each criterion prints one pass/fail line (run
pytest with -s to see them as they complete).
"""

import random
import time

from bconstell.coeffring import ONE_PLUS_B, U
from bconstell.constraints import (
    BIP,
    BIPLE3,
    THREECONST,
    verify_simplified,
    verify_commutators,
)
from bconstell.currents import build_A, build_M, esym
from bconstell.jack import (
    _inner_field,
    _jack_table,
    calibrate_convention,
    compare_with_engine,
    jack_to_ppoly,
    partitions,
)
from bconstell.ppoly import PPoly
from bconstell.tau import check_constraints, check_rooted_fixed_point, tau_evolve
from bconstell.weyl import WeylOp

from randops import random_homogeneous_op, random_op, random_ppoly


def _report(num, desc, ok, started):
    line = "[%s] criterion %d: %s (%.1fs)" % (
        "PASS" if ok else "FAIL",
        num,
        desc,
        time.monotonic() - started,
    )
    print(line, flush=True)
    assert ok, line


def test_criterion_1_half_virasoro():
    started = time.monotonic()
    rep = verify_commutators(BIP, 8, 12)
    ok = rep["ok"] and all(
        p["status"] == "pass" and "explicit_form" not in p for p in rep["pairs"]
    )
    _report(1, "quadratic family closes as a shifted Virasoro half, i,j <= 8 at degree 12", ok, started)


def test_criterion_2_threeconst_algebra():
    started = time.monotonic()
    rep = verify_commutators(THREECONST, 6, 10)
    ok = rep["ok"] and all(
        p["status"] == "pass" and "explicit_form" not in p for p in rep["pairs"]
    )
    _report(2, "cubic three-color algebra, grouped and structure forms, i,j <= 6 at degree 10", ok, started)


def test_criterion_3_biple3_algebra():
    started = time.monotonic()
    rep = verify_commutators(BIPLE3, 6, 10)
    ok = rep["ok"]
    # the grouped display is known to deviate exactly on the boundary set
    # min(i,j) = 1, max(i,j) >= 3 (documented; reported, not patched)
    expected_deviations = {
        (i, j)
        for i in range(1, 7)
        for j in range(1, 7)
        if min(i, j) == 1 and max(i, j) >= 3
    }
    got_deviations = {
        (p["i"], p["j"]) for p in rep["pairs"] if "explicit_form" in p
    }
    ok = ok and got_deviations == expected_deviations
    if got_deviations:
        print(
            "  note: grouped display deviates on %d boundary pairs %s; "
            "structure form holds on all pairs"
            % (len(got_deviations), sorted(got_deviations)),
            flush=True,
        )
    _report(3, "degree-bounded single-color algebra, i,j <= 6 at degree 10, q symbolic", ok, started)


def test_criterion_4_structure_propositions():
    started = time.monotonic()
    ok = True
    for which in ("dstruct", "mixed", "pstar"):
        rep = verify_simplified(BIP, which, range(0, 4), 6, 8)
        ok = ok and rep["ok"]
        rep = verify_simplified(BIPLE3, which, range(1, 4), 6, 8)
        ok = ok and rep["ok"]
    _report(4, "structure-operator relations, all levels <= 3, i,j <= 6, the final commutators as dstruct level 3", ok, started)


def test_criterion_5_constraint_nullity():
    started = time.monotonic()
    ok = True
    for model in (BIP, THREECONST, BIPLE3):
        series = tau_evolve(model, 5)
        rep = check_constraints(model, series, 5)
        ok = ok and rep["ok"]
    # symbolic in q, so it holds at the even-degree specialization q1 = q3 = 0, q2 = 1
    rep = check_constraints(BIPLE3, tau_evolve(BIPLE3, 6), 5)
    ok = ok and rep["ok"]
    _report(5, "constraints annihilate the series through t^5, i <= 5, all models, biple3 also at t^6 (every specialization of q)", ok, started)


def test_criterion_6_route_agreement():
    started = time.monotonic()
    ok = True
    d = 10
    for s in range(0, 4):
        for i in range(1, 7):
            ok = ok and build_A(i, s, d, "rec").equal_up_to(build_A(i, s, d, "y"), d)
    for m in range(1, 4):
        for i in range(1, 7):
            ok = ok and build_M(1, m, i, d, "y").equal_up_to(
                build_M(1, m, i, d, "rec"), d
            )
    us = {1: [U[1]], 2: [U[1], U[2]], 3: [U[1], U[2], U[3]]}
    for k in (1, 2, 3):
        for i in range(1, 7):
            acc = WeylOp.zero(d)
            for s in range(0, k + 1):
                acc = acc + build_A(i, s, d).scale(esym(k - s, us[k]))
            ok = ok and build_M(k, 1, i, d).equal_up_to(acc, d)
    _report(6, "mode operators agree across recursion and transfer routes; symmetric expansion holds", ok, started)


def test_criterion_7_jack_oracle():
    started = time.monotonic()
    ok = True
    p1, p2 = PPoly.gen(1), PPoly.gen(2)
    ok = ok and jack_to_ppoly((2,)) == p1 * p1 + p2 * ONE_PLUS_B
    ok = ok and jack_to_ppoly((1, 1)) == p1 * p1 - p2
    for n in range(1, 7):
        tab = _jack_table(n)
        parts = partitions(n)
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                ok = ok and not _inner_field(tab[parts[a]], tab[parts[b]])
    for model in (BIP, THREECONST, BIPLE3):
        convention = calibrate_convention(model)
        ok = ok and convention == "standard"
        rep = compare_with_engine(model, 4, convention)
        ok = ok and rep["ok"]
    _report(7, "independent symmetric-function oracle matches the series through t^4, all models", ok, started)


def test_criterion_8_rooted_fixed_point():
    started = time.monotonic()
    ok = True
    for model in (BIP, THREECONST, BIPLE3):
        series = tau_evolve(model, 3)
        rep = check_rooted_fixed_point(model, series, 3)
        ok = ok and rep["ok"]
    _report(8, "rooted fixed point through t^3, i <= 3, all models", ok, started)


def test_criterion_9_engine_soundness():
    started = time.monotonic()
    rng = random.Random(20240817)
    cases = 0
    ok = True

    for _ in range(250):
        a, b = random_op(rng, 12), random_op(rng, 12)
        comm = a.commutator(b)
        ok = ok and comm.equal_up_to(-(b.commutator(a)), comm.working_degree)
        cases += 1

    for _ in range(250):
        a, b, c = random_op(rng, 14), random_op(rng, 14), random_op(rng, 14)
        jac = (
            a.commutator(b).commutator(c)
            + b.commutator(c).commutator(a)
            + c.commutator(a).commutator(b)
        )
        if jac.working_degree >= 0:
            ok = ok and jac.equal_up_to(WeylOp.zero(jac.working_degree), jac.working_degree)
        cases += 1

    for _ in range(250):
        a, b = random_op(rng, 12), random_op(rng, 12)
        comp = a.compose(b)
        f = random_ppoly(rng, comp.working_degree)
        ok = ok and comp.apply(f) == a.apply(b.apply(f))
        cases += 1

    for _ in range(250):
        g1, g2 = rng.randrange(-2, 3), rng.randrange(-2, 3)
        a = random_homogeneous_op(rng, 12, g1)
        b = random_homogeneous_op(rng, 12, g2)
        comp = a.compose(b)
        if not comp.is_zero():
            ok = ok and comp.homogeneous_degree() == g1 + g2
        cases += 1

    ok = ok and cases >= 1000
    _report(9, "randomized soundness: antisymmetry, Jacobi, coherence, homogeneity (%d exact cases)" % cases, ok, started)
