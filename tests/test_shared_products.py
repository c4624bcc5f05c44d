"""The two right-hand sides share one set of p_n / p_n* products per pair.

``structure_rhs`` and ``explicit_rhs`` compose each unscaled p_n . L_l and
p_n* . L_l at most once per products dict and apply every scalar afterwards.
They must give the level-by-level sums kept in refstruct.py term for term,
at the same working degree per t power, both with a fresh dict and with one
dict shared by the two forms.  A sweep must compose no product twice within
a pair, and nothing at all for a diagonal pair, whose left-hand side
[L_i, L_i] is zero without composing.
"""

import pytest

import bconstell.constraints as C
from bconstell.constraints import BIP, BIPLE3, THREECONST
from bconstell.weyl import WeylOp

import refstruct


def assert_same(got, want, where):
    got, want = refstruct.live_pieces(got), refstruct.live_pieces(want)
    assert got.keys() == want.keys(), where
    for m, op in got.items():
        assert op.terms == want[m].terms, (where, m)
        assert op.working_degree == want[m].working_degree, (where, m)


@pytest.mark.parametrize("d_check", [1, 6])
@pytest.mark.parametrize("model", [BIP, THREECONST, BIPLE3], ids=lambda m: m.name)
def test_right_hand_sides_match_reference(model, d_check):
    ls = C._build_l_family(model, d_check)
    d_outer = refstruct.outer_degree(model, d_check)
    if d_check == 1 and model.r == 1:
        assert max(ls) < 5  # so indices beyond the built family are covered
    for i in range(1, 6):
        for j in range(1, 6):
            want_s = refstruct.structure_rhs(model, i, j, ls, d_outer)
            want_e = refstruct.summed_explicit_rhs(model, i, j, ls, d_outer)
            fresh = (C.structure_rhs(model, i, j, ls), C.explicit_rhs(model, i, j, ls))
            products = {}
            shared = (C.structure_rhs(model, i, j, ls, products),
                      C.explicit_rhs(model, i, j, ls, products))
            for label, (got_s, got_e) in (("fresh", fresh), ("shared", shared)):
                assert_same(got_s, want_s, (label, "structure", i, j))
                assert_same(got_e, want_e, (label, "explicit", i, j))


def test_sweep_composes_each_product_once_per_pair(monkeypatch):
    real = WeylOp.compose
    calls, alive = [], []

    def counted(self, other):
        alive.append(other)  # keeps id(other) unique while the sweep runs
        calls.append((tuple(sorted(self.terms)), self.working_degree, id(other)))
        return real(self, other)

    real_build = C._build_l_family

    def built(model, d_check):
        family = real_build(model, d_check)
        calls.clear()  # count from the first pair on
        return family

    per_pair = []

    def progress(entry):
        per_pair.append((entry["i"], entry["j"], list(calls)))
        calls.clear()

    monkeypatch.setattr(WeylOp, "compose", counted)
    monkeypatch.setattr(C, "_build_l_family", built)
    report = C.verify_commutators(THREECONST, 3, 5, progress=progress)
    assert report["ok"]
    assert [(i, j) for i, j, _ in per_pair] == [
        (i, j) for i in range(1, 4) for j in range(1, 4)
    ]
    for i, j, made in per_pair:
        if i == j:
            assert made == [], (i, j)
        else:
            assert made, (i, j)
        assert len(made) == len(set(made)), (i, j)
