"""The commutator sweeps build [X_i, X_j] once per unordered pair.

The pair (j, i) reuses -[X_i, X_j].  Each sweep's report must equal the one
from a plain loop that computes every ordered pair's left-hand side
directly, also when right-hand sides are corrupted so that the (j, i)
entries fail and carry a first mismatch.
"""

import pytest

import bconstell.constraints as C
from bconstell.constraints import BIP, BIPLE3, THREECONST
from bconstell.coeffring import add_term
from bconstell.weyl import EXACT, WeylOp

import refstruct
from refweyl import commutator


def ordered_pairs(i_max):
    return [(i, j) for i in range(1, i_max + 1) for j in range(1, i_max + 1)]


def direct_commutators(model, i_max, d_check):
    ls = C._build_l_family(model, d_check)
    pairs = []
    for i, j in ordered_pairs(i_max):
        lhs = ls[i].commutator(ls[j])
        rhs = C.structure_rhs(model, i, j, ls)
        grouped = C.explicit_rhs(model, i, j, ls)
        entry = {"i": i, "j": j, "status": "pass"}
        if not lhs.equal_up_to(rhs, d_check):
            entry["status"] = "fail"
            entry["first_mismatch"] = lhs.first_mismatch(rhs, d_check)
        if not lhs.equal_up_to(grouped, d_check):
            entry["explicit_form"] = "deviates"
            entry["explicit_first_mismatch"] = lhs.first_mismatch(grouped, d_check)
        pairs.append(entry)
    return pairs


def direct_simplified(model, which, levels, i_max, d_check):
    family, tops, _ = C._family_ops(model, levels, d_check)
    ops = {s: {l: top.piece(0) for l, top in tops[s].items()} for s in levels}
    d_outer = refstruct.outer_degree(model, d_check)

    def dsum(s, i, j, targets):
        acc = WeylOp.zero(EXACT)
        for l, op in targets.items():
            dd = refstruct._structure_op(
                s, family.shift, family.charge, i, j, l, d_outer)
            if not dd.is_zero():
                acc = acc + dd.compose(op)
        return C.TGradedOp({0: acc})

    combos = [(s, sp) for s in levels for sp in levels] if which == "mixed" else [
        (s, s) for s in levels
    ]
    items = []
    for s, sp in combos:
        for i, j in ordered_pairs(i_max):
            if which == "dstruct":
                lhs = commutator(ops[s][i], ops[s][j])
                rhs = dsum(s, i, j, ops[s])
                label = {"level": s}
            elif which == "mixed":
                lhs = commutator(ops[s][i], ops[sp][j]) - commutator(ops[s][j], ops[sp][i])
                rhs = dsum(sp, i, j, ops[s]) + dsum(s, i, j, ops[sp])
                label = {"level": s, "level2": sp}
            else:
                lhs = (commutator(WeylOp.p_star(i), ops[s][j])
                       - commutator(WeylOp.p_star(j), ops[s][i]))
                pstars = {l: WeylOp.p_star(l) for l in ops[s]}
                rhs = dsum(s, i, j, pstars)
                label = {"level": s}
            lhs = C.TGradedOp({0: lhs})
            entry = dict(label, i=i, j=j, status="pass")
            if not lhs.equal_up_to(rhs, d_check):
                entry["status"] = "fail"
                entry["first_mismatch"] = lhs.first_mismatch(rhs, d_check)
            items.append(entry)
    return items


def direct_final(model, i_max, d_check):
    """The top-level commutator [X_i(3), X_j(3)] against the reference grouped form."""
    h = model.headroom()
    d_build = d_check + h
    d_outer = d_build + h
    if model.r == 1:
        ops = {l: C.build_A(l, 3, d_build) for l in range(1, d_build + 2)}
    else:
        ops = {l: C.build_M(1, 3, l, d_build) for l in range(1, d_build + 4)}
    ops = {l: op for l, op in ops.items() if not op.is_zero()}
    items = []
    for i, j in ordered_pairs(i_max):
        lhs = commutator(ops[i], ops[j])
        rhs = refstruct.final_commutator_rhs(model, i, j, ops, d_outer)
        entry = {"level": 3, "i": i, "j": j, "status": "pass"}
        if not lhs.equal_up_to(rhs, d_check):
            entry["status"] = "fail"
            cr, an, c = lhs.diff_up_to(rhs, d_check)[0]
            entry["first_mismatch"] = "t^0: coeff %s on create=%s annihilate=%s" % (
                c, cr, an)
        items.append(entry)
    return items


def check_report(report, direct, streamed=None):
    assert report["pairs"] == direct
    assert report["ok"] == all(p["status"] == "pass" for p in direct)
    if streamed is not None:
        assert streamed == direct


@pytest.mark.parametrize(
    "model, i_max, d_check",
    [(BIP, 4, 6), (THREECONST, 4, 6), (BIPLE3, 4, 5)],
    ids=["bip", "threeconst", "biple3"],
)
def test_verify_commutators_matches_direct_loop(model, i_max, d_check):
    streamed = []
    report = C.verify_commutators(model, i_max, d_check, progress=streamed.append)
    check_report(report, direct_commutators(model, i_max, d_check), streamed)


@pytest.mark.parametrize("which", ["dstruct", "mixed", "pstar"])
@pytest.mark.parametrize("model", [BIP, BIPLE3], ids=lambda m: m.name)
def test_verify_simplified_matches_direct_loop(model, which):
    levels = range(0, 4) if model.r == 1 else range(1, 4)
    streamed = []
    report = C.verify_simplified(model, which, levels, 3, 5, progress=streamed.append)
    check_report(report, direct_simplified(model, which, levels, 3, 5), streamed)


@pytest.mark.parametrize("model", [BIP, BIPLE3], ids=lambda m: m.name)
def test_verify_final_commutator_matches_direct_loop(model):
    report = C.verify_simplified(model, "dstruct", [3], 4, 5)
    check_report(report, direct_final(model, 4, 5))


def test_failing_structure_rhs_mismatches_match_direct_loop(monkeypatch):
    real = C.structure_rhs

    def corrupted(model, i, j, ls, *products):
        rhs = real(model, i, j, ls, *products)
        # differ on both halves of the unordered pairs {1,2} and {2,3}
        if (i, j) in ((1, 2), (2, 1), (3, 2)):
            return rhs + refstruct.tshift(ls[i + j], i)
        return rhs

    monkeypatch.setattr(C, "structure_rhs", corrupted)
    report = C.verify_commutators(THREECONST, 3, 5)
    direct = direct_commutators(THREECONST, 3, 5)
    check_report(report, direct)
    failed = {(p["i"], p["j"]) for p in report["pairs"] if p["status"] == "fail"}
    assert failed == {(1, 2), (2, 1), (3, 2)}
    assert all(p["first_mismatch"] for p in report["pairs"] if p["status"] == "fail")


def test_failing_final_commutator_mismatches_match_direct_loop(monkeypatch):
    real = C._structure_scalars
    real_ref = refstruct.final_commutator_rhs

    def corrupted(family, weights, i, j, targets):
        scalars = real(family, weights, i, j, targets)
        if i > j:
            for tpow, w in weights.values():
                add_term(scalars, (None, 1, tpow), w)
        return scalars

    def corrupted_ref(model, i, j, ops, d_outer):
        rhs = real_ref(model, i, j, ops, d_outer)
        return rhs + ops[1] if i > j else rhs

    monkeypatch.setattr(C, "_structure_scalars", corrupted)
    monkeypatch.setattr(refstruct, "final_commutator_rhs", corrupted_ref)
    report = C.verify_simplified(BIP, "dstruct", [3], 3, 5)
    direct = direct_final(BIP, 3, 5)
    check_report(report, direct)
    failed = {(p["i"], p["j"]) for p in report["pairs"] if p["status"] == "fail"}
    assert failed == {(2, 1), (3, 1), (3, 2)}


def test_failing_structure_operator_mismatches_match_direct_loop(monkeypatch):
    # one table entry D_{31,2} off by Id, in the engine's reader and the reference
    real = C._structure_scalars
    real_ref = refstruct._structure_op

    def corrupted(family, weights, i, j, targets):
        scalars = real(family, weights, i, j, targets)
        if (i, j) == (3, 1) and 2 in targets:
            for tpow, w in weights.values():
                add_term(scalars, (None, 2, tpow), w)
        return scalars

    def corrupted_ref(s, shift, charge, i, j, l, d):
        op = real_ref(s, shift, charge, i, j, l, d)
        if (i, j, l) == (3, 1, 2):
            return op + WeylOp.identity().truncated(d)
        return op

    monkeypatch.setattr(C, "_structure_scalars", corrupted)
    monkeypatch.setattr(refstruct, "_structure_op", corrupted_ref)
    levels = range(0, 4)
    for which in ("dstruct", "mixed"):
        report = C.verify_simplified(BIP, which, levels, 3, 5)
        direct = direct_simplified(BIP, which, levels, 3, 5)
        check_report(report, direct)
        assert not report["ok"]
        assert any((p["i"], p["j"]) == (3, 1) and p["status"] == "fail"
                   for p in report["pairs"])
