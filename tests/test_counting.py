"""The engine and the Jack oracle at b = 0 against a count of permutations."""

from fractions import Fraction

import pytest

import refcount
import refjack
from refring import subs
from bconstell.constraints import BIP, BIPLE3, THREECONST
from bconstell.ppoly import PPoly
from bconstell.tau import tau_evolve

MODELS = [BIP, THREECONST, BIPLE3]


def at_b_zero(f):
    return PPoly({m: subs(c, {"b": 0}) for m, c in f.terms.items()})


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_engine_equals_count_at_b_zero_through_t4(model):
    engine = tau_evolve(model, 4)
    for n in range(5):
        assert at_b_zero(engine.coeff(n)) == refcount.tau_coeff(model, n), n


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_count_rejects_the_transpose_convention_at_t2(model):
    # at alpha = 1 the conventions differ by lam <-> lam', which the count tells apart
    transpose = refjack.tau_coeffs(model, 2, "transpose")[2]
    assert at_b_zero(transpose) != refcount.tau_coeff(model, 2)


def test_count_small_values():
    # keys are (cycle type of s_1 s_2, (kappa(s_1), kappa(s_2)), q exponents);
    # at t^2 each of the four pairs in S_2^2 has weight 1/2!
    half = Fraction(1, 2)
    assert refcount.count_coeff(BIP, 1) == {((1,), (1, 1), ()): 1}
    assert refcount.count_coeff(BIP, 2) == {
        ((1, 1), (2, 2), ()): half,  # (id, id)
        ((2,), (2, 1), ()): half,  # (id, swap)
        ((2,), (1, 2), ()): half,  # (swap, id)
        ((1, 1), (1, 1), ()): half,  # (swap, swap)
    }
