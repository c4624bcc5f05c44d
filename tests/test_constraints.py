from fractions import Fraction

import pytest

from bconstell.coeffring import Coeff, B, INV_1PB, ONE, ONE_PLUS_B, Q, U, add_term
from bconstell.constraints import (
    BIP,
    BIPLE3,
    THREECONST,
    TGradedOp,
    _build_l_family,
    build_D,
    build_Dtilde,
    build_L,
    explicit_rhs,
    structure_rhs,
    verify_simplified,
    verify_commutators,
)
from bconstell.currents import build_M, current
from bconstell.weyl import WeylOp

D = 8


def ann(*pairs):
    mono = {}
    for i, e in pairs:
        if e:
            if i < 1:
                return None
            mono[i] = mono.get(i, 0) + e
    return tuple(sorted(mono.items()))


def term(create, annihilate, coeff):
    cr, an = ann(*create), ann(*annihilate)
    if cr is None or an is None:
        return WeylOp.zero(D)
    return WeylOp({(cr, an): coeff}, D)


def bip_display(i):
    """The quadratic constraint written out term by term."""
    op = WeylOp.zero(D)
    for l in range(1, i - 1):
        op = op + term([], [(l, 1), (i - 1 - l, 1)], ONE_PLUS_B)
    for l in range(1, D + 2):
        op = op + term([(l, 1)], [(l + i - 1, 1)], Coeff.one())
    if i >= 2:
        op = op + term([], [(i - 1, 1)], B * (i - 1) + U[1] + U[2])
    if i == 1:
        op = op + WeylOp.scalar(U[1] * U[2] * INV_1PB)
    return TGradedOp({0: -WeylOp.p_star(i), 1: op})


def threeconst_display(i):
    """The cubic constraint display, with the size factor restored on the
    diagonal b-line (it is dropped in print)."""
    op = WeylOp.zero(D)
    for l in range(1, i - 1):
        for m in range(1, i - 1 - l):
            n = i - 1 - l - m
            op = op + term([], [(l, 1), (m, 1), (n, 1)], ONE_PLUS_B ** 2)
    for m in range(1, D + 1):
        for n in range(1, D + 1):
            if m + n >= i:
                op = op + term([(n + m - i + 1, 1)], [(m, 1), (n, 1)], ONE_PLUS_B)
            if m <= i - 1 and m + n >= i:
                op = op + term([(n + m - i + 1, 1)], [(m, 1), (n, 1)], ONE_PLUS_B)
    for m in range(1, D + 1):
        for n in range(1, D + 1):
            op = op + term([(n, 1), (m, 1)], [(n + m + i - 1, 1)], Coeff.one())
    op = op + term([], [(i - 1, 1)], ONE_PLUS_B * Fraction(i * (i - 1), 2))
    for m in range(1, i - 1):
        n = i - 1 - m
        op = op + term(
            [], [(n, 1), (m, 1)], B * ONE_PLUS_B * Fraction(3 * (i - 1), 2)
        )
    op = op + term([], [(i - 1, 1)], B ** 2 * (i - 1) ** 2)
    for n in range(1, D + 1):
        op = op + term([(n, 1)], [(n + i - 1, 1)], B * (n + 2 * i - 2))
    e1 = U[1] + U[2] + U[3]
    for m in range(1, i - 1):
        n = i - 1 - m
        op = op + term([], [(n, 1), (m, 1)], e1 * ONE_PLUS_B)
    for n in range(1, D + 1):
        op = op + term([(n, 1)], [(n + i - 1, 1)], e1)
    op = op + term([], [(i - 1, 1)], e1 * B * (i - 1))
    e2 = U[1] * U[2] + U[1] * U[3] + U[2] * U[3]
    op = op + term([], [(i - 1, 1)], e2)
    if i == 1:
        op = op + WeylOp.scalar(U[1] * U[2] * U[3] * INV_1PB)
    return TGradedOp({0: -WeylOp.p_star(i), 1: op})


def m12_display(i):
    """The level-two single-color mode as printed, stray t factors stripped.

    The printed charge term at index 1 misses the 1/(1+b) carried by the
    defining recursion; the corrected value is frozen in test_currents.
    """
    op = WeylOp.zero(D)
    for n in range(1, i - 2):
        m = i - 2 - n
        op = op + term([], [(n, 1), (m, 1)], ONE_PLUS_B)
    for n in range(1, D + 2):
        op = op + term([(n, 1)], [(n + i - 2, 1)], Coeff.one())
    if i >= 3:
        op = op + term([], [(i - 2, 1)], B * (i - 1) + U[1] * 2)
    if i == 1:
        op = op + term([(1, 1)], [], U[1] * INV_1PB)
    if i == 2:
        op = op + WeylOp.scalar(U[1] * (B + U[1]) * INV_1PB)
    return op


def test_bip_display_matches_engine():
    for i in range(1, 6):
        built = build_L(BIP, i, D)
        want = bip_display(i)
        assert built.equal_up_to(want, D), i


def test_threeconst_display_matches_engine():
    for i in range(1, 5):
        built = build_L(THREECONST, i, D)
        want = threeconst_display(i)
        assert built.equal_up_to(want, D), i


def test_m12_display_matches_engine():
    for i in range(1, 7):
        assert build_M(1, 2, i, D).equal_up_to(m12_display(i), D), i


def test_build_L_examples():
    t1 = build_L(BIP, 1, D).pieces[1]
    want = WeylOp({(((l, 1),), ((l, 1),)): Coeff.one() for l in range(1, D + 1)}, D)
    want = want + WeylOp.scalar(U[1] * U[2] * INV_1PB)
    assert t1.equal_up_to(want, D)

    t1c = build_L(THREECONST, 1, D).pieces[1]
    const = [c for (cr, an), c in t1c.terms.items() if not cr and not an]
    assert const == [U[1] * U[2] * U[3] * INV_1PB]

    t2 = build_L(BIPLE3, 2, D).pieces[2]
    want = WeylOp({(((n, 1),), ((n, 1),)): Q[2] for n in range(1, D + 1)}, D)
    want = want + WeylOp.scalar(Q[2] * U[1] * (B + U[1]) * INV_1PB)
    assert t2.equal_up_to(want, D)


def test_build_L_piece_homogeneity():
    for model in (BIP, THREECONST, BIPLE3):
        for i in range(1, 5):
            op = build_L(model, i, 6)
            for m, piece in op.pieces.items():
                assert piece.homogeneous_degree() == m - i, (model.name, i, m)
    assert not build_L(BIP, 0, 6).pieces
    assert not build_L(BIP, -2, 6).pieces


def test_build_D_examples():
    got = build_D(2, 2, 1, 2, D)
    assert got.equal_up_to(WeylOp.identity(), D)
    for l in range(1, 6):
        assert build_D(3, 3, 3, l, D).is_zero()
    got = build_D(3, 2, 1, 3, D)
    assert got.equal_up_to(WeylOp.p(1, Coeff.from_rational(2)), D)
    assert build_D(0, 2, 1, 1, D).is_zero()
    assert build_D(1, 2, 1, 1, D).is_zero()


def test_build_Dtilde_examples():
    got = build_Dtilde(2, 3, 1, 2, D)
    assert got.equal_up_to(WeylOp.identity().scale(Coeff.from_rational(2)), D)
    for l in range(1, 6):
        assert build_Dtilde(3, 2, 2, l, D).is_zero()
    got = build_Dtilde(3, 2, 1, 1, D)
    assert got.equal_up_to(WeylOp.p(1, Coeff.from_rational(2)), D)
    assert build_Dtilde(1, 2, 1, 1, D).is_zero()


def test_dtilde_charge_term():
    # l = i+j-3 picks up the charge through the zero-index current
    got = build_Dtilde(3, 3, 2, 2, D)
    want = WeylOp.scalar(U[1] * 3 + B * 2)
    assert got.equal_up_to(want, D)


def test_verify_commutators_bip_small():
    rep = verify_commutators(BIP, 4, 8)
    assert rep["ok"]
    assert all(p["status"] == "pass" and "explicit_form" not in p for p in rep["pairs"])


def test_verify_commutators_antisymmetric_diagonal():
    rep = verify_commutators(THREECONST, 2, 6)
    assert rep["ok"]
    diag = [p for p in rep["pairs"] if p["i"] == p["j"]]
    assert all(p["status"] == "pass" for p in diag)


@pytest.mark.parametrize("b", [0, 1, Fraction(1, 2)], ids=["b0", "b1", "b1/2"])
@pytest.mark.parametrize("model", [BIP, THREECONST, BIPLE3])
def test_commutator_of_b_specialized_operators(model, b):
    """Substituting b commutes with composing: the commutator of the
    specialized L_i is the specialized commutator, and so the identity
    checked symbolically holds at this b."""
    d_check = 5
    ls = _build_l_family(model, d_check)

    def at_b(op):
        return op.map_coeff(lambda c: c.subs({"b": b}))

    special = {l: at_b(op) for l, op in ls.items()}
    for i in (1, 2):
        for j in (1, 2, 3):
            lhs = special[i].commutator(special[j])
            assert lhs.equal_up_to(at_b(ls[i].commutator(ls[j])), d_check), (i, j)
            rhs = at_b(structure_rhs(model, i, j, ls))
            assert lhs.equal_up_to(rhs, d_check), (i, j)


def test_grouped_display_deviation_is_pinned():
    """Where the grouped display disagrees, the difference is exactly the
    known boundary charge term."""
    d_check = 6
    ls = _build_l_family(BIPLE3, d_check)
    for (i, j) in ((3, 1), (1, 3), (4, 1)):
        e = explicit_rhs(BIPLE3, i, j, ls)
        s = structure_rhs(BIPLE3, i, j, ls)
        M = max(i, j)
        sgn = 1 if i > j else -1
        want = ls[M - 2].scale(Q[3] * U[1] * (sgn * (M + 1))).tshift(3)
        assert (e - s).equal_up_to(want, d_check), (i, j)
    # away from the boundary the two right-hand sides agree
    for (i, j) in ((2, 1), (3, 2), (2, 3), (2, 2)):
        e = explicit_rhs(BIPLE3, i, j, ls)
        s = structure_rhs(BIPLE3, i, j, ls)
        assert e.equal_up_to(s, d_check), (i, j)


def test_verify_simplified_small():
    rep = verify_simplified(BIP, "dstruct", range(0, 4), 3, 6)
    assert rep["ok"]
    rep = verify_simplified(BIP, "pstar", range(0, 4), 3, 6)
    assert rep["ok"]
    rep = verify_simplified(BIPLE3, "dstruct", range(1, 4), 3, 6)
    assert rep["ok"]
    rep = verify_simplified(BIPLE3, "mixed", range(1, 3), 3, 6)
    assert rep["ok"]


def test_same_level_closure_values():
    # [A_i(2), A_j(2)] = (i-j) A_{i+j-1}(2), checked directly
    from bconstell.currents import build_A

    d = 8
    for i, j in ((2, 1), (3, 1), (3, 2)):
        lhs = build_A(i, 2, d).commutator(build_A(j, 2, d))
        rhs = build_A(i + j - 1, 2, d).scale(Coeff.from_rational(i - j))
        assert lhs.equal_up_to(rhs, lhs.working_degree)


def test_mixed_level_values():
    # [A_i(1), A_j(2)] - [A_j(1), A_i(2)] = (i-j) A_{i+j-1}(1)
    from bconstell.currents import build_A

    d = 8
    for i, j in ((2, 1), (3, 2)):
        lhs = build_A(i, 1, d).commutator(build_A(j, 2, d)) - build_A(
            j, 1, d
        ).commutator(build_A(i, 2, d))
        rhs = build_A(i + j - 1, 1, d).scale(Coeff.from_rational(i - j))
        assert lhs.equal_up_to(rhs, lhs.working_degree)


def test_final_commutator_small():
    # the top-level commutator [A_i(3), A_j(3)] is the level-3 closure
    assert verify_simplified(BIP, "dstruct", [3], 3, 6)["ok"]
    assert verify_simplified(BIPLE3, "dstruct", [3], 3, 6)["ok"]


def test_final_commutator_failure_carries_first_mismatch(monkeypatch):
    import importlib

    constraints_mod = importlib.import_module("bconstell.constraints")
    real = constraints_mod._structure_scalars
    added = []

    def off_by_one_op(family, weights, i, j, targets):
        scalars = real(family, weights, i, j, targets)
        if (i, j) != (1, 2):
            return scalars
        added.append(targets[1].piece(0))
        add_term(scalars, (None, 1, 0), ONE)
        return scalars

    monkeypatch.setattr(constraints_mod, "_structure_scalars", off_by_one_op)
    report = verify_simplified(BIP, "dstruct", [3], 2, 4)
    assert not report["ok"]
    by_pair = {(p["i"], p["j"]): p for p in report["pairs"]}
    # lhs - (rhs + op) = -op at degree <= 4
    cr, an, c = WeylOp.zero(added[0].working_degree).diff_up_to(added[0], 4)[0]
    assert by_pair[(1, 2)]["status"] == "fail"
    assert by_pair[(1, 2)]["first_mismatch"] == (
        "t^0: coeff %s on create=%s annihilate=%s" % (c, cr, an)
    )
    for pair, entry in by_pair.items():
        if pair != (1, 2):
            assert entry["status"] == "pass" and "first_mismatch" not in entry
