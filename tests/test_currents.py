import pytest

from bconstell.coeffring import Coeff, B, INV_1PB, ONE_PLUS_B, U
from bconstell.currents import YVector, build_A, build_M, current, esym
from bconstell.ppoly import PPoly
from bconstell.weyl import EXACT, WeylOp

from refcurrents import charged_current
from refweyl import commutator

D = 8


def test_current_examples():
    assert current(-2).apply(PPoly.one()) == PPoly.monomial(((2, 1),))
    j2 = current(2)
    assert j2.apply(PPoly.monomial(((2, 1),))) == PPoly.one() * (ONE_PLUS_B * 2)
    comm = commutator(current(2), current(-2))
    assert comm.working_degree == EXACT
    assert comm.equal_up_to(WeylOp.scalar(ONE_PLUS_B * 2), EXACT)


def test_current_relation_sweep():
    for i in range(-D, D + 1):
        for j in range(-D, D + 1):
            comm = commutator(charged_current(i, U[1]), charged_current(j, U[1]))
            want = WeylOp.scalar(ONE_PLUS_B * i) if i == -j else WeylOp.zero(EXACT)
            assert comm.equal_up_to(want, EXACT), (i, j)


def test_y_plus_examples():
    seed = YVector.seed(D)
    shifted = seed.y_plus()
    assert sorted(shifted.entries) == [1]
    assert shifted.entry(1).equal_up_to(WeylOp.scalar(INV_1PB), D)
    assert not YVector({}, D).y_plus().entries
    twice = seed.y_plus().y_plus()
    assert sorted(twice.entries) == [2]


def test_lambda_y_first_step():
    # entry 1 of the transfer applied to the shifted seed is b/(1+b)
    v = YVector.seed(D).y_plus().lambda_y()
    assert v.entry(1).equal_up_to(WeylOp.scalar(B * INV_1PB), D)


def test_build_A_base_and_level_one():
    for route in ("rec", "y"):
        assert build_A(1, 0, D, route).equal_up_to(WeylOp.scalar(INV_1PB), D)
        for i in range(2, 6):
            assert build_A(i, 0, D, route).is_zero()
        # level one is the shifted current
        assert build_A(2, 1, D, route).equal_up_to(WeylOp.p_star(1), D)
        assert build_A(1, 1, D, route).is_zero()


def test_build_A_level_two_diagonal():
    want = WeylOp(
        {(((m, 1),), ((m, 1),)): Coeff.one() for m in range(1, D + 1)}, D
    )
    for route in ("rec", "y"):
        assert build_A(1, 2, D, route).equal_up_to(want, D)


def test_A_route_agreement():
    for s in range(0, 4):
        for i in range(1, 7):
            rec = build_A(i, s, 6, "rec")
            via_y = build_A(i, s, 6, "y")
            assert rec.equal_up_to(via_y, 6), (i, s)


def test_A_homogeneity():
    for s in range(0, 4):
        for i in range(1, 7):
            op = build_A(i, s, 6)
            if not op.is_zero():
                assert op.homogeneous_degree() == -(i - 1), (i, s)


def test_build_M_level_one():
    # the zero-index current carries charge u, so entry 1 is u/(1+b)
    assert build_M(1, 1, 1, D).equal_up_to(WeylOp.scalar(U[1] * INV_1PB), D)
    for i in range(2, 6):
        assert build_M(1, 1, i, D).equal_up_to(WeylOp.p_star(i - 1), D)


def test_build_M_level_two():
    got = build_M(1, 2, 1, D)
    want = WeylOp({(((1, 1),), ()): U[1] * INV_1PB}, D)
    want = want + WeylOp(
        {(((n, 1),), ((n - 1, 1),)): Coeff.one() for n in range(2, D + 2)}, D
    )
    assert got.equal_up_to(want, D)

    got = build_M(1, 2, 2, D)
    want = WeylOp({(((n, 1),), ((n, 1),)): Coeff.one() for n in range(1, D + 1)}, D)
    want = want + WeylOp.scalar(U[1] * (B + U[1]) * INV_1PB)
    assert got.equal_up_to(want, D)


def test_M_route_agreement():
    for m in (1, 2, 3):
        for i in range(1, 7):
            via_y = build_M(1, m, i, 6, "y")
            rec = build_M(1, m, i, 6, "rec")
            assert via_y.equal_up_to(rec, 6), (m, i)


def test_M_homogeneity():
    for k in (1, 2, 3):
        for m in (1,) if k > 1 else (1, 2, 3):
            for i in range(1, 6):
                op = build_M(k, m, i, 6)
                if not op.is_zero():
                    assert op.homogeneous_degree() == m - i, (k, m, i)


def test_esym_expansion():
    us = {2: [U[1], U[2]], 3: [U[1], U[2], U[3]]}
    for k in (2, 3):
        for i in range(1, 7):
            mode = build_M(k, 1, i, 6)
            acc = WeylOp.zero(6)
            for s in range(0, k + 1):
                acc = acc + build_A(i, s, 6).scale(esym(k - s, us[k]))
            assert mode.equal_up_to(acc, 6), (k, i)


def test_esym_values():
    vals = [U[1], U[2], U[3]]
    assert esym(0, vals) == Coeff.one()
    assert esym(1, vals) == U[1] + U[2] + U[3]
    assert esym(3, vals) == U[1] * U[2] * U[3]
    assert esym(4, vals) == Coeff.zero()


def test_build_M_bounds():
    with pytest.raises(ValueError):
        build_M(4, 1, 1, 4)
    with pytest.raises(ValueError):
        build_M(1, 4, 1, 4)
    with pytest.raises(ValueError):
        build_M(2, 1, 0, 4)
    with pytest.raises(ValueError):
        build_M(2, 1500, 1, 0)


def test_clear_caches_empties_every_memo_table():
    import importlib

    import bconstell
    from bconstell.constraints import BIP

    currents = importlib.import_module("bconstell.currents")
    jack = importlib.import_module("bconstell.jack")
    build_A(2, 2, 4, route="y")
    build_A(2, 2, 4, route="rec")
    build_M(1, 2, 1, 4, route="rec")
    build_M(2, 1, 1, 4)
    jack.tau_jack(BIP, 2)
    caches = [
        fn for mod in (currents, jack) for fn in vars(mod).values()
        if hasattr(fn, "cache_info")
    ]
    assert len(caches) == 6
    assert all(fn.cache_info().currsize for fn in caches)
    bconstell.clear_caches()
    assert [fn.cache_info().currsize for fn in caches] == [0] * len(caches)
