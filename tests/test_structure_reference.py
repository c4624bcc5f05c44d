"""The one structure-coefficient table against the hand-written copies in refstruct.py.

``build_D``, ``build_Dtilde`` and the level-3 ``dsum`` share one piecewise
table; they must give the reference's terms and working degree, the last
against the reference's grouped top-level commutator.  ``explicit_rhs`` sums
one grouped-level formula over the model's structure family; it must give
the reference's three per-model displays term for term.
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
    family, families, d_build = C._family_ops(model, [3], d_check)
    d_outer = refstruct.outer_degree(model, d_check)
    for ops in (families[3], reference_final_ops(model, d_build)):
        for i in range(1, 6):
            for j in range(1, 6):
                got = C.dsum(family, 3, i, j, ops)
                want = refstruct.final_commutator_rhs(model, i, j, ops, d_outer)
                assert same_op(got, want), (i, j)


@pytest.mark.parametrize("model", [BIP, THREECONST, BIPLE3], ids=lambda m: m.name)
def test_explicit_rhs_matches_reference(model):
    ls = C._build_l_family(model, 6)
    d_outer = refstruct.outer_degree(model, 6)
    for i in range(1, 6):
        for j in range(1, 6):
            got = C.explicit_rhs(model, i, j, ls)
            want = refstruct.explicit_rhs(model, i, j, ls, d_outer)
            got, want = refstruct.live_pieces(got), refstruct.live_pieces(want)
            assert got.keys() == want.keys(), (i, j)
            for m, op in got.items():
                assert same_op(op, want[m]), (i, j, m)


def statuses(report):
    return [(p["i"], p["j"], p["status"]) for p in report["pairs"]]


def test_corrupted_table_fails_level_three_closure(monkeypatch):
    real = C._structure_op

    def corrupted(level, shift, charge, i, j, l):
        op = real(level, shift, charge, i, j, l)
        if (level, shift, i, j, l) == (3, 1, 3, 1, 2):
            return op + WeylOp.identity()
        return op

    monkeypatch.setattr(C, "_structure_op", corrupted)
    dstruct = C.verify_simplified(BIP, "dstruct", [3], 3, 4)
    failed = {(i, j) for i, j, status in statuses(dstruct) if status == "fail"}
    assert failed == {(3, 1)}
