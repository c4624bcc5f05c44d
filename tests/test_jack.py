from collections import namedtuple
from fractions import Fraction

import pytest

import refjack
from perturb import perturbed_tau
from bconstell.coeffring import VARS, Coeff, ONE_PLUS_B, Q, U
from bconstell.constraints import BIP, BIPLE3, THREECONST
from bconstell.jack import (
    JackBoundError,
    _add,
    _ppoly_key,
    _content_rows,
    _inner_field,
    _jack_table,
    _series_coeff,
    _weight,
    calibrate_convention,
    compare_with_engine,
    jack,
    jack_to_ppoly,
    partitions,
    tau_jack,
    z_of,
)
from bconstell.ppoly import PPoly
from bconstell.tau import tau_evolve

p1, p2, p3 = PPoly.gen(1), PPoly.gen(2), PPoly.gen(3)


def dominance_leq(mu, lam):
    """mu <= lam in dominance order (same size)."""
    if sum(mu) != sum(lam):
        raise ValueError("dominance compares partitions of equal size")
    total_mu = total_lam = 0
    for k in range(max(len(mu), len(lam))):
        total_mu += mu[k] if k < len(mu) else 0
        total_lam += lam[k] if k < len(lam) else 0
        if total_mu > total_lam:
            return False
    return True


# a model with k colours and no vertex weight (r = 1)
Colours = namedtuple("Colours", "k r")


def content_product_groups(lam, k, convention):
    """prod_c P_lam(u_c) by u monomial, from the content rows and the weight builder."""
    # a unit ratio and a unit p_1^n coordinate leave the content product alone
    rows = _content_rows(lam, convention)
    return _weight({(1,) * sum(lam): [1]}, [1], rows, Colours(k, 1))


def content_product_coeff(lam, k, convention="standard"):
    """The content product converted to Coeff (alpha -> 1+b)."""
    return _series_coeff(content_product_groups(lam, k, convention), [1])


def test_partitions_examples():
    assert partitions(0) == ((),)
    assert partitions(3) == ((3,), (2, 1), (1, 1, 1))
    assert len(partitions(6)) == 11


def test_dominance():
    assert dominance_leq((1, 1, 1), (3,))
    assert dominance_leq((2, 1), (3,))
    assert not dominance_leq((3,), (2, 1))
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    assert dominance_leq((1, 1, 1, 1), (2, 2))
    assert dominance_leq((2, 2), (2, 2))
    # incomparable pair
    assert not dominance_leq((3, 1, 1, 1), (2, 2, 2))
    assert not dominance_leq((2, 2, 2), (3, 1, 1, 1))
    with pytest.raises(ValueError):
        dominance_leq((2,), (3,))


def test_inner_examples():
    assert z_of((2, 1, 1)) == 4
    assert z_of((3, 3)) == 18


@pytest.mark.parametrize("lam, key, z", [
    ((), (), 1),
    ((1, 1, 1, 1), ((1, 4),), 24),
    ((3, 2, 2, 1), ((1, 1), (2, 2), (3, 1)), 24),
    ((2, 2, 1, 1, 1), ((1, 3), (2, 2)), 48),
    ((4, 4, 4), ((4, 3),), 384),
])
def test_partition_key_and_symmetry_factor(lam, key, z):
    assert _ppoly_key(lam) == key
    assert z_of(lam) == z


def test_jack_small_values():
    assert jack_to_ppoly((1,)) == p1
    assert jack_to_ppoly((2,)) == p1 * p1 + p2 * ONE_PLUS_B
    assert jack_to_ppoly((1, 1)) == p1 * p1 - p2


def test_jack_normalization():
    for n in range(1, 6):
        for lam in partitions(n):
            assert jack(lam)[(1,) * n] == [1], lam


def test_orthogonality_up_to_five():
    for n in range(1, 6):
        tab = _jack_table(n)
        parts = partitions(n)
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                assert not _inner_field(tab[parts[a]], tab[parts[b]]), (
                    parts[a],
                    parts[b],
                )


def test_triangularity_in_monomial_basis():
    # converting back to the monomial basis, the support sits below lam
    for n in range(1, 6):
        fwd = refjack._p_in_m(n)
        for lam in partitions(n):
            coeffs = {}
            for mu, c in jack(lam).items():
                for nu, t in fwd[mu].items():
                    if t:
                        coeffs[nu] = _add(coeffs.get(nu, []), [t * x for x in c])
            support = [nu for nu, c in coeffs.items() if c]
            for nu in support:
                assert dominance_leq(nu, lam), (lam, nu)


SCHUR = {
    (1,): {((1, 1),): Fraction(1)},
    (2,): {((1, 2),): Fraction(1, 2), ((2, 1),): Fraction(1, 2)},
    (1, 1): {((1, 2),): Fraction(1, 2), ((2, 1),): Fraction(-1, 2)},
    (3,): {((1, 3),): Fraction(1, 6), ((1, 1), (2, 1)): Fraction(1, 2), ((3, 1),): Fraction(1, 3)},
    (2, 1): {((1, 3),): Fraction(1, 3), ((3, 1),): Fraction(-1, 3)},
    (1, 1, 1): {((1, 3),): Fraction(1, 6), ((1, 1), (2, 1)): Fraction(-1, 2), ((3, 1),): Fraction(1, 3)},
    (4,): {((1, 4),): Fraction(1, 24), ((1, 2), (2, 1)): Fraction(1, 4),
           ((2, 2),): Fraction(1, 8), ((1, 1), (3, 1)): Fraction(1, 3), ((4, 1),): Fraction(1, 4)},
    (3, 1): {((1, 4),): Fraction(1, 8), ((1, 2), (2, 1)): Fraction(1, 4),
             ((2, 2),): Fraction(-1, 8), ((4, 1),): Fraction(-1, 4)},
    (2, 2): {((1, 4),): Fraction(1, 12), ((2, 2),): Fraction(1, 4), ((1, 1), (3, 1)): Fraction(-1, 3)},
    (2, 1, 1): {((1, 4),): Fraction(1, 8), ((1, 2), (2, 1)): Fraction(-1, 4),
                ((2, 2),): Fraction(-1, 8), ((4, 1),): Fraction(1, 4)},
    (1, 1, 1, 1): {((1, 4),): Fraction(1, 24), ((1, 2), (2, 1)): Fraction(-1, 4),
                   ((2, 2),): Fraction(1, 8), ((1, 1), (3, 1)): Fraction(1, 3), ((4, 1),): Fraction(-1, 4)},
}


def test_undeformed_limit_is_proportional_to_schur():
    # evaluating the deformation at b = 0 must land on a Schur multiple
    for lam, sexp in SCHUR.items():
        got = jack_to_ppoly(lam).map_coeff(lambda c: c.subs({"b": 0}))
        schur = PPoly({m: Coeff.from_rational(c) for m, c in sexp.items()})
        ones = ((1, sum(lam)),)
        constant = got.terms[ones].subs(
            {"b": 0, "u1": 0, "u2": 0, "u3": 0, "q1": 0, "q2": 0, "q3": 0}
        )
        ratio = constant.num[0] / sexp[ones]
        assert got == schur * Coeff.from_rational(ratio), lam


def test_content_product_examples():
    a = ONE_PLUS_B
    assert content_product_coeff((1,), 2) == U[1] * U[2]
    assert content_product_coeff((2,), 2) == U[1] * U[2] * (U[1] + a) * (U[2] + a)
    assert content_product_coeff((1, 1), 2) == U[1] * U[2] * (U[1] - 1) * (U[2] - 1)


def test_tau_jack_order_zero_and_one():
    series = tau_jack(BIP, 1)
    assert series.coeff(0) == PPoly.one()
    assert series.coeff(1) == p1 * (U[1] * U[2] * Coeff.inv_one_plus_b())


def test_calibration_picks_standard():
    for model in (BIP, THREECONST, BIPLE3):
        assert calibrate_convention(model) == "standard"


def test_transpose_convention_fails_at_two():
    reference = tau_evolve(BIP, 2)
    wrong = tau_jack(BIP, 2, "transpose")
    assert wrong.coeff(2) != reference.coeff(2)


def test_oracle_matches_engine_small():
    rep = compare_with_engine(BIP, 3)
    assert rep["ok"]
    assert rep["params"]["convention"] == "standard"


def test_oracle_mismatch_is_located():
    engine = tau_evolve(BIP, 2)
    oracle = tau_jack(BIP, 2)
    for n in range(3):
        assert engine.coeff(n) == oracle.coeff(n)


def test_bound_errors():
    with pytest.raises(JackBoundError, match="bound 10"):
        jack((11,))
    with pytest.raises(JackBoundError, match="bound 10"):
        tau_jack(BIP, 11)


import importlib

from bconstell.jack import JackTableError, OracleDenominatorError

jackmod = importlib.import_module("bconstell.jack")


def _closed_form_norm(lam):
    # Stanley's j_lam = prod_s (alpha a(s) + l(s) + 1)(alpha a(s) + l(s) + alpha),
    # with legs read off the conjugate partition
    field, gens = refjack._field()
    alpha = gens["alpha"]
    conj = [sum(1 for part in lam if part > c) for c in range(lam[0])]
    acc = field.one
    for r, row in enumerate(lam):
        for c in range(row):
            arm, leg = row - c - 1, conj[c] - r - 1
            acc *= (alpha * arm + leg + 1) * (alpha * arm + leg + alpha)
    return acc


def test_norms_match_stanley_closed_form_up_to_six():
    for n in range(1, 7):
        for lam in partitions(n):
            norm = refjack.from_dense(jackmod._stanley_norm(lam))
            assert norm == _closed_form_norm(lam), lam


@pytest.fixture
def fresh_tables():
    jackmod._jack_table.cache_clear()
    yield
    jackmod._jack_table.cache_clear()


def test_norm_ratios_are_memoised_and_cleared():
    import bconstell

    bconstell.clear_caches()
    calls = []
    real = jackmod._stanley_norm

    def counting(lam):
        calls.append(lam)
        return real(lam)

    first = tau_jack(BIP, 3)
    assert jackmod._norm_ratios.cache_info().currsize == 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jackmod, "_stanley_norm", counting)
        again = tau_jack(BIP, 3)
    # the second call reads the ratios and denominators from the memo
    assert calls == []
    assert [again.coeff(n) for n in range(4)] == [first.coeff(n) for n in range(4)]
    bconstell.clear_caches()
    assert jackmod._norm_ratios.cache_info().currsize == 0
    rebuilt = tau_jack(BIP, 3)
    assert [rebuilt.coeff(n) for n in range(4)] == [first.coeff(n) for n in range(4)]


def test_norm_disagreeing_with_closed_form_is_loud(monkeypatch, fresh_tables):
    monkeypatch.setattr(jackmod, "_stanley_norm", lambda lam: [1])
    with pytest.raises(JackTableError, match="closed form"):
        jackmod._jack_table(2)


def test_non_unit_lead_is_loud(monkeypatch, fresh_tables):
    # the first size-2 vector, 2 p_1^2 - p_2, is primitive with p_1^2
    # coordinate 2: no table vector may be a multiple of J_lam
    real = jackmod._m_in_p

    def doubled_lead(n):
        rows = dict(real(n))
        if n == 2:
            rows[(1, 1)] = {(1, 1): 2, (2,): -1}
        return rows

    monkeypatch.setattr(jackmod, "_m_in_p", doubled_lead)
    with pytest.raises(JackTableError, match=r"J\(1, 1\): .* p_1\^2 coordinate 2, not 1 or -1"):
        jackmod._jack_table(2)


def test_corrupted_projection_is_loud(monkeypatch, fresh_tables):
    # doubling every cross pairing leaves a vector that is no Jack polynomial
    real = jackmod._inner_field
    monkeypatch.setattr(
        jackmod,
        "_inner_field",
        lambda f, g: real(f, g) if f is g else [2 * x for x in real(f, g)],
    )
    with pytest.raises(JackTableError):
        jackmod._jack_table(3)


# -- the integer assembly and its denominator check ---------------------------


def _rest(**exps):
    """The u, q exponent tuple of a monomial, e.g. _rest(u1=1, q2=1)."""
    return tuple(exps.get(v, 0) for v in VARS[1:])


def test_non_alpha_denominator_is_loud():
    # the message names the denominator of the cancelled fraction
    with pytest.raises(OracleDenominatorError, match=r"denominator: alpha\*\*3 \+ 3\*alpha\*\*2;"):
        jackmod._series_coeff({_rest(u1=1): [1]}, [1, 3, 0, 0])
    with pytest.raises(OracleDenominatorError, match=r"denominator: alpha \+ 2;"):
        jackmod._series_coeff({_rest(): [1]}, [1, 2])
    # integer content the numerator does not share stays, as sympy keeps it
    with pytest.raises(OracleDenominatorError, match=r"denominator: 2\*alpha \+ 4;"):
        jackmod._series_coeff({_rest(): [1]}, [2, 4])
    with pytest.raises(OracleDenominatorError, match=r"denominator: 3\*alpha\*\*2 \+ 6\*alpha;"):
        jackmod._series_coeff({_rest(u1=1): [-1]}, [-3, -6, 0])


def test_power_of_alpha_denominator_converts():
    b = ONE_PLUS_B
    assert jackmod._series_coeff({_rest(u1=1): [-5]}, [7, 0, 0, 0]) == (
        Coeff.from_rational(Fraction(-5, 7)) * U[1] * Coeff.inv_one_plus_b(3)
    )
    # the alpha-free part D' = (alpha + 2)(2 alpha + 1) = 2 alpha^2 + 5 alpha + 2
    # of the denominator 3 alpha^2 D' divides (u1 alpha + 4 q2 u3^2) D'
    numer = {_rest(u1=1): [2, 5, 2, 0], _rest(q2=1, u3=2): [8, 20, 8]}
    assert jackmod._series_coeff(numer, [6, 15, 6, 0, 0]) == (
        (U[1] * b + 4 * Q[2] * U[3] * U[3]) * Coeff.inv_one_plus_b(2) * Fraction(1, 3)
    )
    # a factor of alpha in the numerator cancels against the denominator
    assert jackmod._series_coeff({_rest(u2=1): [1, 0, 0]}, [1, 0]) == U[2] * b


def test_partly_divisible_numerator_is_loud():
    # D' = alpha + 2 divides the u1 part of the numerator but not the u2 part
    with pytest.raises(OracleDenominatorError):
        jackmod._series_coeff({_rest(u1=1): [1, 2], _rest(u2=1): [1]}, [1, 2, 0])


@pytest.mark.parametrize("model", [BIP, BIPLE3, THREECONST], ids=lambda m: m.name)
def test_oracle_equals_engine_at_bench_order(model):
    oracle, engine = tau_jack(model, 6), tau_evolve(model, 6)
    for n in range(7):
        assert oracle.coeff(n) == engine.coeff(n), n


def test_transpose_convention_fails_at_two_on_the_vertex_path():
    reference = tau_evolve(BIPLE3, 2)
    wrong = tau_jack(BIPLE3, 2, "transpose")
    assert wrong.coeff(2) != reference.coeff(2)


def test_oracle_locates_a_perturbed_engine_series():
    # 1 added to the coefficient of p1^3 in [t^3] of the engine's series
    report = compare_with_engine(THREECONST, 4, engine=perturbed_tau(THREECONST, 4))
    assert report["ok"] is False
    assert report["params"]["convention"] == "standard"
    assert report["first_mismatch"] == {
        "order": 3, "monomial": [[1, 3]], "engine_minus_oracle": "1"
    }
