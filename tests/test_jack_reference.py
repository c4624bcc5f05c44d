"""The fraction-free oracle against the field-based reference in refjack."""

import importlib
from math import factorial, prod

import pytest

import refjack
from bconstell.constraints import BIP, BIPLE3, THREECONST
from bconstell.jack import jack, jack_norm, partitions, tau_jack

jackmod = importlib.import_module("bconstell.jack")

MODELS = [BIP, THREECONST, BIPLE3]


def test_tables_match_reference_up_to_five():
    for n in range(1, 6):
        for lam in partitions(n):
            ref = refjack.jack(lam)
            assert jack(lam) == ref, lam
            assert jack_norm(lam) == refjack.inner(ref, ref), lam


def test_transition_rows_match_reference_through_eight():
    # the Moebius row of lam is prod_i m_i(lam)! times the inverted expansion's
    for n in range(1, 9):
        new, ref = jackmod._m_in_p(n), refjack._m_in_p(n)
        for lam in partitions(n):
            scale = prod(factorial(lam.count(part)) for part in set(lam))
            want = {mu: scale * c for mu, c in ref[lam].items() if c}
            assert new[lam] == want, lam


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_series_matches_reference_through_t4(model):
    assert tau_jack(model, 4).coeffs == refjack.tau_coeffs(model, 4)


@pytest.mark.parametrize("convention", ["standard", "transpose"])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_both_conventions_match_reference_at_t2(model, convention):
    assert tau_jack(model, 2, convention).coeffs == refjack.tau_coeffs(
        model, 2, convention
    )


# -- the grouped conversion and the exact division against the field route ----

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bconstell.jack import OracleDenominatorError, jack_to_ppoly
from test_jack import content_product_coeff


def test_field_conversion_matches_reference():
    for n in range(1, 6):
        for lam in partitions(n):
            want = {
                jackmod._ppoly_key(mu): refjack.field_to_coeff(c)
                for mu, c in jack(lam).items()
            }
            assert jack_to_ppoly(lam).terms == want, lam
            for k in (1, 2, 3):
                want = refjack.field_to_coeff(refjack.content_product(lam, k, "standard"))
                assert content_product_coeff(lam, k) == want, lam


monomials = st.tuples(*[st.integers(0, 3)] * 7)
numerators = st.dictionaries(monomials, st.integers(-20, 20).filter(bool), min_size=1, max_size=6)
# alpha-free factors a denominator may carry; D' is their product
FACTORS = [(2, 1), (1, 2), (3, 1), (2, 3)]  # (c0, c1) for c0 + c1 * alpha


@settings(max_examples=60, deadline=None)
@given(
    numerators,
    st.integers(0, 4),
    st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool),
    st.lists(st.sampled_from(range(len(FACTORS))), max_size=3),
    st.lists(st.sampled_from(range(len(FACTORS))), max_size=3),
)
def test_series_coeff_matches_field_route(terms, a, scale, in_denom, in_numer):
    alpha_ring, ring = jackmod._rings()
    field, _ = jackmod._field()
    alpha, x = alpha_ring.gens[0], ring.gens[0]
    numer = ring.from_dict(terms)
    denom = alpha_ring(scale) * alpha**a
    for i in in_numer:
        numer *= FACTORS[i][0] + FACTORS[i][1] * x
    for i in in_denom:
        denom *= FACTORS[i][0] + FACTORS[i][1] * alpha
    frac = field.field.new(numer.set_ring(field.field.ring), denom.set_ring(field.field.ring))
    try:
        expected = refjack.field_to_coeff(frac)
    except OracleDenominatorError as exc:
        with pytest.raises(OracleDenominatorError) as got:
            jackmod._series_coeff(numer, denom)
        assert str(got.value) == str(exc)
    else:
        assert jackmod._series_coeff(numer, denom) == expected
