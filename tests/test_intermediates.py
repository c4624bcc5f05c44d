"""Current-level commutator identities the mode recursions ride on.

These are sharper than the whole-commutator sweeps: each one pins a single
closed form, including the creation-side corner cases where the level-one
modes are extended by the current formula rather than the transfer chain
(which puts zero at non-positive indices).
"""

from bconstell.coeffring import Coeff, B, INV_1PB, ONE_PLUS_B, U
from bconstell.currents import build_A, build_M, current
from bconstell.weyl import WeylOp

from refcurrents import charged_current

D = 8
frac = Coeff.from_rational


def test_current_on_level_one():
    # [J_j, A_i(1)] = j [i+j == 1]
    for i in range(1, 5):
        for j in range(-4, 5):
            lhs = current(j).commutator(build_A(i, 1, D))
            d = lhs.working_degree
            want = WeylOp.scalar(frac(j)) if i + j == 1 else WeylOp.zero(d)
            assert lhs.equal_up_to(want, d), (i, j)


def test_current_on_level_two():
    # [J_j, A_i(2)] = j ([j<=0] + [i+j>=1]) J_{i+j-1} - b (i-1)^2 [i+j == 1]
    for i in range(1, 5):
        for j in range(-4, 5):
            lhs = current(j).commutator(build_A(i, 2, D + 4))
            d = lhs.working_degree
            coeff = (1 if j <= 0 else 0) + (1 if i + j >= 1 else 0)
            want = current(i + j - 1).scale(frac(j * coeff))
            if i + j == 1:
                want = want - WeylOp.scalar(B * (i - 1) ** 2)
            assert lhs.equal_up_to(want, d), (i, j)


def test_level_one_on_level_two():
    # [A_i(1), A_j(2)] = (i-1) A_{i+j-1}(1)
    for i in range(1, 6):
        for j in range(1, 6):
            lhs = build_A(i, 1, D).commutator(build_A(j, 2, D))
            d = lhs.working_degree
            want = build_A(i + j - 1, 1, D).truncated(d).scale(frac(i - 1))
            assert lhs.equal_up_to(want, d), (i, j)


def test_derivative_on_level_two():
    # [p_i*, A_j(2)] = i p*_{i+j-1}
    for i in range(1, 5):
        for j in range(1, 5):
            lhs = WeylOp.p_star(i).commutator(build_A(j, 2, D))
            want = WeylOp.p_star(i + j - 1, frac(i))
            assert lhs.equal_up_to(want, lhs.working_degree), (i, j)


def test_charge_current_on_single_color_level_two():
    # [J_j, M^(1,2)_i] = j ([i+j>=2] + [j<=0]) J_{i+j-2} - b (i-1)(i-2) [i+j == 2]
    # with the charge-u current; creation corners ride the current extension
    for i in range(1, 5):
        for j in range(-4, 5):
            lhs = charged_current(j, U[1]).commutator(build_M(1, 2, i, D + 4))
            d = lhs.working_degree
            coeff = (1 if i + j >= 2 else 0) + (1 if j <= 0 else 0)
            want = charged_current(i + j - 2, U[1]).scale(frac(j * coeff))
            if i + j == 2:
                want = want - WeylOp.scalar(B * ((i - 1) * (i - 2)))
            assert lhs.equal_up_to(want, d), (i, j)


def test_derivative_on_single_color_level_two():
    # [p_j*, M^(1,2)_i] = j J_{i+j-2} / (1+b); at i = j = 1 this is u/(1+b)
    for i in range(1, 5):
        for j in range(1, 5):
            lhs = WeylOp.p_star(j).commutator(build_M(1, 2, i, D + 2))
            d = lhs.working_degree
            want = charged_current(i + j - 2, U[1]).scale(INV_1PB * j)
            assert lhs.equal_up_to(want, d), (i, j)


def test_level_one_on_single_color_level_two():
    # [M^(1,1)_j, M^(1,2)_i] = (j-1) M^(1,1)_{i+j-2}
    for i in range(1, 6):
        for j in range(1, 6):
            lhs = build_M(1, 1, j, D).commutator(build_M(1, 2, i, D))
            d = lhs.working_degree
            if i + j - 2 >= 1:
                want = build_M(1, 1, i + j - 2, D).truncated(d).scale(frac(j - 1))
            else:
                want = WeylOp.zero(d)
            assert lhs.equal_up_to(want, d), (i, j)


def test_single_color_level_two_closure():
    # [M^(1,2)_i, M^(1,2)_j] = (i-j) M^(1,2)_{i+j-2}
    for i in range(1, 6):
        for j in range(1, 6):
            lhs = build_M(1, 2, i, D).commutator(build_M(1, 2, j, D))
            d = lhs.working_degree
            if i + j - 2 >= 1:
                want = build_M(1, 2, i + j - 2, D).truncated(d).scale(frac(i - j))
            else:
                want = WeylOp.zero(d)
            assert lhs.equal_up_to(want, d), (i, j)
