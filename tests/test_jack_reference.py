"""The fraction-free oracle against the field-based reference in refjack."""

import importlib
from collections import namedtuple
from math import factorial, prod

import pytest

import refjack
from bconstell.coeffring import VARS
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
from test_jack import content_product_coeff, content_product_groups


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
    st.integers(-9, 9).filter(bool),
    st.lists(st.sampled_from(range(len(FACTORS))), max_size=3),
    st.lists(st.sampled_from(range(len(FACTORS))), max_size=3),
)
def test_series_coeff_matches_field_route(terms, a, scale, in_denom, in_numer):
    from sympy.polys.densearith import dup_add, dup_mul
    from sympy.polys.domains import ZZ

    field, gens = jackmod._field()
    alpha = gens["alpha"]
    # the dense route: one ZZ[alpha] list per u, q monomial
    groups = {}
    for (e, *rest), c in terms.items():
        rest = tuple(rest)
        groups[rest] = dup_add(groups.get(rest, []), [c] + [0] * e, ZZ)
    denom = [scale] + [0] * a
    for i in in_numer:
        groups = {rest: dup_mul(g, FACTORS[i][::-1], ZZ) for rest, g in groups.items()}
    for i in in_denom:
        denom = dup_mul(denom, FACTORS[i][::-1], ZZ)
    # the field route, from the generators
    numer = field.zero
    for exps, c in terms.items():
        term = field(c)
        for name, e in zip(("alpha",) + VARS[1:], exps):
            term *= gens[name] ** e
        numer += term
    fdenom = field(scale) * alpha**a
    for i in in_numer:
        numer *= FACTORS[i][0] + FACTORS[i][1] * alpha
    for i in in_denom:
        fdenom *= FACTORS[i][0] + FACTORS[i][1] * alpha
    try:
        expected = refjack.field_to_coeff(numer / fdenom)
    except OracleDenominatorError as exc:
        with pytest.raises(OracleDenominatorError) as got:
            jackmod._series_coeff(groups, denom)
        assert str(got.value) == str(exc)
    else:
        assert jackmod._series_coeff(groups, denom) == expected


# -- the content rows and the vertex weight against the field -----------------


@pytest.mark.parametrize("convention", ["standard", "transpose"])
def test_content_rows_match_reference_through_eight(convention):
    # three colours stop at size 6: the field reference alone takes about 9 s
    # per convention for sizes 7 and 8 there
    field, _ = jackmod._field()
    for k, top in ((1, 8), (2, 8), (3, 6)):
        for n in range(1, top + 1):
            for lam in partitions(n):
                got = field.field((jackmod._terms(content_product_groups(lam, k, convention)), 1))
                assert got == refjack.content_product(lam, k, convention), (lam, k)


# a one-colour model whose vertex degrees stop at 2, below the q3 slot
Colours = namedtuple("Colours", "k r")


@pytest.mark.parametrize("model", [BIPLE3, Colours(1, 2)], ids=["biple3", "r2"])
def test_biple3_vertex_weight_matches_reference_through_six(model):
    # a unit ratio and the constant rows [1] (P = 1) leave the vertex-side sum
    field, _ = jackmod._field()
    for n in range(1, 7):
        for lam in partitions(n):
            vec = jackmod._jack_table(n)[lam]
            weight = jackmod._weight(vec, [1], [[1]], model)
            lead = vec[(1,) * n][0]
            got = field.field((jackmod._terms(weight), lead))
            assert got == refjack.vertex_weight(lam, model), lam
