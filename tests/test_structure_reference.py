"""The one structure-coefficient table against the hand-written copies in refstruct.py.

``build_D``, ``build_Dtilde`` and the level-3 relation read one piecewise
table through ``_structure_scalars``; they must give the reference's terms
and working degree, the last against the reference's grouped top-level
commutator.  ``explicit_rhs`` sums one grouped-level formula over the
model's structure family; it must give the reference's three per-model
displays term for term.
"""

import pytest

import bconstell.constraints as C
from bconstell.constraints import BIP, BIPLE3, THREECONST
from bconstell.coeffring import ONE, add_term

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
    """The operator family the reference sweep built: nonzero level-3 modes, at t^0."""
    if model.r == 1:
        ops = {l: C.build_A(l, 3, d_build) for l in range(1, d_build + 2)}
    else:
        ops = {l: C.build_M(1, 3, l, d_build) for l in range(1, d_build + 4)}
    return {l: C.TGradedOp({0: op}) for l, op in ops.items() if not op.is_zero()}


def level_three_sum(family, i, j, tops):
    """sum_l D^(3)_{ij,l} . tops[l], as the dstruct relation composes it."""
    scalars = C._structure_scalars(family, {3: (0, ONE)}, i, j, tops)
    return C._products_sum(scalars, tops)


@pytest.mark.parametrize("model", [BIP, BIPLE3], ids=lambda m: m.name)
@pytest.mark.parametrize("d_check", [1, 3, 5])
def test_final_commutator_rhs_matches_reference(model, d_check):
    family, families, d_build = C._family_ops(model, [3], d_check)
    d_outer = refstruct.outer_degree(model, d_check)
    for tops in (families[3], reference_final_ops(model, d_build)):
        mode = {l: top.piece(0) for l, top in tops.items()}
        for i in range(1, 6):
            for j in range(1, 6):
                got = refstruct.live_pieces(level_three_sum(family, i, j, tops))
                want = refstruct.final_commutator_rhs(model, i, j, mode, d_outer)
                want = refstruct.live_pieces(C.TGradedOp({0: want}))
                assert got.keys() == want.keys(), (i, j)
                for m, op in got.items():
                    assert same_op(op, want[m]), (i, j, m)


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
    # the entry D^(3)_{31,2} off by Id, as the one reader of the table gives it
    real = C._structure_scalars

    def corrupted(family, weights, i, j, targets):
        scalars = real(family, weights, i, j, targets)
        if family.shift == 1 and 3 in weights and (i, j) == (3, 1) and 2 in targets:
            tpow, w = weights[3]
            add_term(scalars, (None, 2, tpow), w)
        return scalars

    monkeypatch.setattr(C, "_structure_scalars", corrupted)
    dstruct = C.verify_simplified(BIP, "dstruct", [3], 3, 4)
    failed = {(i, j) for i, j, status in statuses(dstruct) if status == "fail"}
    assert failed == {(3, 1)}
