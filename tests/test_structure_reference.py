"""The one structure-coefficient table against the hand-written copies in refstruct.py.

``build_D``, ``build_Dtilde`` and ``final_commutator_rhs`` share one
piecewise table; they must give the reference's terms and working degree.
The top-level commutator sweep and the same-level relation at level 3 then
check the same identity, so they pass and fail on the same pairs.
"""

import pytest

import bconstell.constraints as C
from bconstell.constraints import BIP, BIPLE3, THREECONST
from bconstell.weyl import WeylOp

import refstruct


def same_op(got, want):
    return got.terms == want.terms and got.working_degree == want.working_degree


@pytest.mark.parametrize(
    "new, ref, levels",
    [(C.build_D, refstruct.build_D, range(0, 4)),
     (C.build_Dtilde, refstruct.build_Dtilde, range(1, 4))],
    ids=["D", "Dtilde"],
)
def test_structure_operators_match_reference(new, ref, levels):
    for s in levels:
        for i in range(1, 8):
            for j in range(1, 8):
                for l in range(0, 13):
                    for d in range(0, 9):
                        got = new(s, i, j, l, d)
                        want = ref(s, i, j, l, d)
                        assert same_op(got, want), (s, i, j, l, d)


def test_out_of_range_levels_rejected_like_reference():
    for new, ref, bad in ((C.build_D, refstruct.build_D, (-1, 4)),
                          (C.build_Dtilde, refstruct.build_Dtilde, (0, 4))):
        for s in bad:
            for fn in (new, ref):
                with pytest.raises(ValueError):
                    fn(s, 2, 1, 1, 4)


def reference_final_ops(model, d_build):
    """The operator family the reference sweep built: nonzero level-3 modes."""
    if model.r == 1:
        ops = {l: C.build_A(l, 3, d_build) for l in range(1, d_build + 2)}
    else:
        ops = {l: C.build_M(1, 3, l, d_build) for l in range(1, d_build + 4)}
    return {l: op for l, op in ops.items() if not op.is_zero()}


@pytest.mark.parametrize("model", [BIP, BIPLE3], ids=lambda m: m.name)
@pytest.mark.parametrize("d_check", [1, 3, 5])
def test_final_commutator_rhs_matches_reference(model, d_check):
    families, _, d_outer = C._family_ops(model, [3], d_check)
    d_build = d_check + model.headroom()
    for ops in (families[3], reference_final_ops(model, d_build)):
        for i in range(1, 6):
            for j in range(1, 6):
                got = C.final_commutator_rhs(model, i, j, ops, d_outer)
                want = refstruct.final_commutator_rhs(model, i, j, ops, d_outer)
                assert same_op(got, want), (i, j)


def statuses(report):
    return [(p["i"], p["j"], p["status"]) for p in report["pairs"]]


@pytest.mark.parametrize("model", [BIP, THREECONST, BIPLE3], ids=lambda m: m.name)
def test_final_commutator_agrees_with_level_three_closure(model):
    final = C.verify_final_commutator(model, 4, 4)
    dstruct = C.verify_simplified(model, "dstruct", [3], 4, 4)
    assert final["ok"] and dstruct["ok"]
    assert statuses(final) == statuses(dstruct)


def test_final_commutator_and_level_three_closure_fail_together(monkeypatch):
    real = C.build_D

    def corrupted(s, i, j, l, working_degree):
        op = real(s, i, j, l, working_degree)
        if (s, i, j, l) == (3, 3, 1, 2):
            return op + WeylOp.identity(working_degree)
        return op

    monkeypatch.setattr(C, "build_D", corrupted)
    final = C.verify_final_commutator(BIP, 3, 4)
    dstruct = C.verify_simplified(BIP, "dstruct", [3], 3, 4)
    assert statuses(final) == statuses(dstruct)
    assert "fail" in {status for _, _, status in statuses(final)}
