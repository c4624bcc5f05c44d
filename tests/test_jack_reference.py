"""The fraction-free oracle against the field-based reference in refjack."""

import importlib
from collections import namedtuple

import pytest

import refjack
from bconstell.coeffring import VARS
from bconstell.constraints import BIP, BIPLE3, THREECONST
from bconstell.jack import JACK_BOUND, alpha_str, jack, partitions, tau_jack

jackmod = importlib.import_module("bconstell.jack")

MODELS = [BIP, THREECONST, BIPLE3]


def test_tables_match_reference_up_to_five():
    for n in range(1, 6):
        for lam in partitions(n):
            ref = refjack.jack(lam)
            assert {mu: refjack.from_dense(c) for mu, c in jack(lam).items()} == ref, lam
            norm = refjack.from_dense(jackmod._stanley_norm(lam))
            assert norm == refjack.inner(ref, ref), lam


def test_printed_values_match_sympy_through_the_bound():
    # jack --lambda prints each coordinate as sympy prints the field element
    for n in range(1, JACK_BOUND + 1):
        for lam in partitions(n):
            for mu, c in jack(lam).items():
                assert alpha_str(c) == str(refjack.from_dense(c)), (lam, mu)


@pytest.mark.parametrize(
    "f",
    [[], [0], [-1], [-1, 0, 0], [0, 0, 1, -1], [3, 0, -1, 0]],
    ids=["empty", "zero", "minus-one", "unit-lead", "leading-zeros", "gap"],
)
def test_printer_edges_match_sympy(f):
    # lists no table coordinate reaches: the zero polynomial, a -1 or -alpha**k
    # with its unit coefficient dropped, zeros ahead of the lead, a zero
    # coordinate between two terms
    assert alpha_str(f) == str(refjack.from_dense(f))


def test_transition_rows_match_reference_through_eight():
    # R_rho,mu counted by the capacity recursion is the coefficient of m_mu in
    # p_rho expanded monomial by monomial over n variables
    for n in range(1, 9):
        transition, ref = jackmod._triangles(n)[0], refjack._p_in_m(n)
        for mu in partitions(n):
            want = {rho: row[mu] for rho, row in ref.items() if row[mu]}
            assert transition[mu] == want, mu


@pytest.mark.parametrize("n", range(1, 7))
def test_raising_rows_match_the_operator(n):
    # D(alpha) m_nu = (e_nu + (n - 1) n) m_nu + sum_mu c_nu,mu m_mu over n
    # variables, applied on sympy polynomials with each pair quotient divided
    # out exactly
    diagonal, off = refjack.laplace_beltrami_rows(n)
    raising = jackmod._triangles(n)[1]
    for mu in partitions(n):
        assert {nu: row[mu] for nu, row in off.items() if row.get(mu)} == raising[mu], mu
        e = jackmod._n_of_conjugate(mu), -jackmod._n_of(mu)
        assert diagonal[mu] == (e[0], e[1] + (n - 1) * n), mu


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

from hypothesis import example, given, settings, strategies as st

from bconstell.jack import OracleDenominatorError
from test_jack import content_product_coeff, content_product_groups


def test_field_conversion_matches_reference():
    for n in range(1, 6):
        for lam in partitions(n):
            want = {
                jackmod._ppoly_key(mu): refjack.field_to_coeff(c)
                for mu, c in refjack.jack(lam).items()
            }
            assert refjack.jack_to_ppoly(lam).terms == want, lam
            for k in (1, 2, 3):
                want = refjack.field_to_coeff(refjack.content_product(lam, k, "standard"))
                assert content_product_coeff(lam, k) == want, lam


monomials = st.tuples(*[st.integers(0, 3)] * 7)
numerators = st.dictionaries(monomials, st.integers(-20, 20).filter(bool), min_size=1, max_size=6)
# alpha-free factors a denominator may carry; D' is their product
FACTORS = [(2, 1), (1, 2), (3, 1), (2, 3)]  # (c0, c1) for c0 + c1 * alpha


# alpha divides every group once (a drops from 3 to 2), and alpha^3 divides
# every group past a = 2 (no power of alpha is left), with D' in both
@example({(2, 1, 0, 0, 0, 0, 0): 3, (1, 0, 0, 0, 0, 0, 0): -2}, 3, 2, [], [])
@example({(3, 0, 1, 0, 0, 0, 0): 5, (3, 0, 0, 0, 0, 1, 0): 1}, 2, -3, [0], [0, 1])
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

    field, gens = refjack._field()
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
        # the message names the cancelled fraction's denominator as sympy prints it
        assert "denominator: %s;" % ((numer / fdenom).denom,) in str(got.value)
        assert str(got.value) == str(exc)
    else:
        assert jackmod._series_coeff(groups, denom) == expected


# -- the content rows and the vertex weight against the field -----------------


@pytest.mark.parametrize("convention", ["standard", "transpose"])
def test_content_rows_match_reference_through_eight(convention):
    # three colours stop at size 6: the field reference alone takes about 9 s
    # per convention for sizes 7 and 8 there
    for k, top in ((1, 8), (2, 8), (3, 6)):
        for n in range(1, top + 1):
            for lam in partitions(n):
                got = refjack.to_field(content_product_groups(lam, k, convention))
                assert got == refjack.content_product(lam, k, convention), (lam, k)


# a one-colour model whose vertex degrees stop at 2, below the q3 slot
Colours = namedtuple("Colours", "k r")


@pytest.mark.parametrize("model", [BIPLE3, Colours(1, 2)], ids=["biple3", "r2"])
def test_biple3_vertex_weight_matches_reference_through_six(model):
    # a unit ratio and the constant rows [1] (P = 1) leave the vertex-side sum
    for n in range(1, 7):
        for lam in partitions(n):
            weight = jackmod._weight(jack(lam), [1], [[1]], model)
            assert refjack.to_field(weight) == refjack.vertex_weight(lam, model), lam


# -- the dense ZZ[alpha] kernel against sympy's dup_* over ZZ ------------------

from sympy.polys.densearith import (
    dup_add, dup_exquo, dup_mul, dup_mul_ground, dup_neg, dup_sub,
)
from sympy.polys.densebasic import dup_strip
from sympy.polys.densetools import dup_primitive
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_gcd, dup_lcm
from sympy.polys.polyerrors import ExactQuotientFailed

# small coefficients make common factors and exact quotients likely; large
# ones pass the machine-word sizes
coefficients = st.one_of(st.integers(-6, 6), st.integers(-2**70, 2**70))
raw_lists = st.lists(coefficients, max_size=7)
# zero, constants and negative leading coefficients are all drawn
polys = raw_lists.map(dup_strip)
nonzero = polys.filter(bool)


@settings(max_examples=200, deadline=None)
@given(raw_lists, polys, polys, coefficients)
def test_kernel_ring_operations_match_sympy(raw, f, g, c):
    assert jackmod._strip(raw) == dup_strip(raw)
    assert jackmod._add(f, g) == dup_add(f, g, ZZ)
    assert jackmod._sub(f, g) == dup_sub(f, g, ZZ)
    assert jackmod._neg(f) == dup_neg(f, ZZ)
    assert jackmod._mul(f, g) == dup_mul(f, g, ZZ)
    assert jackmod._mul_ground(f, c) == dup_mul_ground(f, c, ZZ)
    assert jackmod._primitive(f) == dup_primitive(f, ZZ)


@settings(max_examples=200, deadline=None)
@given(polys, nonzero, polys)
def test_kernel_exact_quotient_matches_sympy(f, g, r):
    assert jackmod._exquo(dup_mul(f, g, ZZ), g) == f
    # f g + r is divisible by g only when r is, so both outcomes are drawn
    num = dup_add(dup_mul(f, g, ZZ), r, ZZ)
    try:
        want = dup_exquo(num, g, ZZ)
    except ExactQuotientFailed:
        with pytest.raises(jackmod._InexactQuotient):
            jackmod._exquo(num, g)
    else:
        assert jackmod._exquo(num, g) == want


def test_kernel_inexact_quotient_raises():
    for num, den in (([1, 0, 1], [2, -4]), ([3], [2]), ([1], [1, 1]), ([1, 1], [1, 0])):
        with pytest.raises(jackmod._InexactQuotient):
            jackmod._exquo(num, den)
    assert issubclass(jackmod._InexactQuotient, ArithmeticError)


@settings(max_examples=200, deadline=None)
@given(polys, polys, polys)
def test_kernel_gcd_and_lcm_match_sympy(h, f, g):
    # h is a built common factor of both arguments; h = [] makes both zero.
    # _lcm is refjack's, the reference D_n of the norm ratios
    for a, b in ((dup_mul(h, f, ZZ), dup_mul(h, g, ZZ)), (f, g)):
        assert jackmod._gcd(a, b) == dup_gcd(a, b, ZZ)
        assert refjack._lcm(a, b) == dup_lcm(a, b, ZZ)


@pytest.mark.parametrize("n", range(0, 11))
def test_tables_match_gram_schmidt_through_ten(n):
    # the triangular table against fraction-free Gram-Schmidt on sympy's dup_*
    assert jackmod._jack_table(n) == refjack.dup_jack_table(n)


# -- the packed assembly against the list loop ---------------------------------


mus = st.sampled_from([(1,), (2,), (1, 1), (3,), (2, 1)])
rests = st.sampled_from([(0,) * 6, (1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0), (0, 1, 0, 1, 0, 0)])


@st.composite
def assembly_inputs(draw):
    # lists of length 1 and > 1, [] coordinates, one or many lam
    lams = draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True))
    table = {lam: draw(st.dictionaries(mus, polys, max_size=3)) for lam in lams}
    weights = {lam: draw(st.dictionaries(rests, polys, max_size=3)) for lam in lams}
    return table, weights


BIG = 2**70
# sums that reach the digit bound (lam count * overlap * max|c| * max|w|)
# exactly, of either sign: one byte narrower digits cannot hold them.  In
# the second, 6 BIG (2 BIG - 1) needs 144 bits, and 2 or 3 BIG (2 BIG - 1),
# the bound without the lam count or the overlap, needs at most 143
@example(({0: {(1,): [BIG]}}, {0: {(0,) * 6: [-BIG]}}))
@example((
    {lam: {(2, 1): [2 * BIG - 1, 2 * BIG - 1]} for lam in range(3)},
    {lam: {(1, 0, 0, 0, 0, 0): [BIG, BIG]} for lam in range(3)},
))
@example(({0: {(1,): [1]}}, {0: {(0,) * 6: [1]}}))
@settings(max_examples=300, deadline=None)
@given(assembly_inputs())
def test_packed_assembly_matches_list_loop(inputs):
    table, weights = inputs
    assert jackmod._assemble(table, weights) == refjack.list_assembly(table, weights)


def _series_or_error(build):
    try:
        return build()
    except OracleDenominatorError as exc:
        return str(exc)


@pytest.mark.parametrize("convention", ["standard", "transpose"])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_series_matches_list_assembly_through_t6(model, convention):
    # the transpose convention's series raises OracleDenominatorError at t^3
    # (both sides, same message); its sums are still compared at every order
    for n in range(1, 7):
        table, weights = jackmod._jack_table(n), refjack.series_weights(model, n, convention)
        assert jackmod._assemble(table, weights) == refjack.list_assembly(table, weights), n
    got = _series_or_error(lambda: tau_jack(model, 6, convention).coeffs)
    assert got == _series_or_error(lambda: refjack.list_tau_coeffs(model, 6, convention))
