"""The packed integer kernel of Coeff against the reference tuple kernel."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

import refring
from refring import coeff, coeff_power
from bconstell import coeffring
from bconstell.coeffring import (
    B, INV_1PB, MAX_EXP, NVARS, ONE_PLUS_B, Q, U, WIDTH_CLASS, Coeff, _digit_width, _grouped,
    _normal, _pack, _poly_mul, _sum_columns, _sum_dict, _sum_packed, sum_products,
)
from bconstell.constraints import THREECONST
from bconstell.tau import check_constraints, check_rooted_fixed_point, tau_evolve

nonzero = st.integers(-20, 20).filter(bool)
rational = st.builds(Fraction, nonzero, st.integers(1, 6))
monomial = st.dictionaries(st.sampled_from(refring.VARS), st.integers(1, 12), max_size=4)

# (terms, content, j, k) stands for content * sum(terms) * (1+b)^j / (1+b)^k;
# j > 0 lets canonical reduction cancel part of the denominator.
spec_strategy = st.tuples(
    st.lists(st.tuples(rational, monomial), min_size=1, max_size=5),
    rational,
    st.integers(0, 3),
    st.integers(0, 4),
)


def build(spec):
    """The same value as a Coeff, built by public arithmetic, and as a reference pair."""
    terms, content, j, k = spec
    value = Coeff.zero()
    num = {}
    for c, mono in terms:
        term = Coeff.from_rational(c)
        for v, e in mono.items():
            term = term * coeff_power(Coeff.var(v), e)
        value = value + term
        exps = tuple(mono.get(v, 0) for v in refring.VARS)
        num = refring.poly_add(num, {exps: c})
    value = value * content * coeff_power(ONE_PLUS_B, j) * Coeff.inv_one_plus_b(k)
    num = refring.poly_mul(num, {refring.ZERO_EXP: content})
    num = refring.poly_mul(num, refring.one_plus_b_pow(j))
    return value, refring.canon(num, k)


def assert_matches(value, ref):
    num, dp = ref
    assert value.dp == dp
    assert len(value.num) == len(num)
    assert str(value) == refring.to_str(ref)
    assert refring.parse(str(value)) == value
    for c in value.num.values():
        assert (type(c) is int and c != 0) or (
            type(c) is Fraction and c.denominator != 1
        )


@given(spec_strategy, spec_strategy)
def test_ring_operations_match_reference(sx, sy):
    x, rx = build(sx)
    y, ry = build(sy)
    assert_matches(x, rx)
    assert_matches(y, ry)
    assert_matches(x + y, refring.add(rx, ry))
    assert_matches(x + -y, refring.add(rx, refring.neg(ry)))
    assert_matches(x + -x, ({}, 0))
    assert_matches(x * y, refring.mul(rx, ry))
    # x*b + x = x*(1+b): a sum whose numerator loses a (1+b) factor
    rb = ({(1,) + refring.ZERO_EXP[1:]: Fraction(1)}, 0)
    assert_matches(x * B + x, refring.add(refring.mul(rx, rb), rx))


@given(spec_strategy, st.integers(0, 3))
def test_power_matches_reference(sx, n):
    x, rx = build(sx)
    assert_matches(coeff_power(x, n), refring.power(rx, n))


def test_largest_exponent_is_exact():
    top = coeff_power(B, MAX_EXP)
    assert str(top) == "b^%d" % MAX_EXP
    assert refring.parse(str(top)) == top
    assert str(coeff_power(Q[3], MAX_EXP) * U[1]) == "u1*q3^%d" % MAX_EXP


@pytest.mark.parametrize(
    "make",
    [
        lambda: coeff_power(B, MAX_EXP + 1),
        lambda: coeff_power(Q[3], MAX_EXP + 1),
        lambda: (coeff_power(U[2], MAX_EXP) + Q[1]) * (U[2] * B + 1),
        lambda: (coeff_power(Q[1], 1500) + B) * (coeff_power(Q[1], 1500) + -U[3]),
        lambda: refring.parse("b^%d" % (MAX_EXP + 1)),
        lambda: refring.parse("u1*q2^%d" % (MAX_EXP + 1)),
        lambda: refring.parse("q1^%d*q1" % MAX_EXP),
        lambda: Coeff.inv_one_plus_b(MAX_EXP + 1) + 1,
    ],
)
def test_exponent_overflow_raises(make):
    # an exponent past its field must never wrap into a neighbouring
    # variable's field: every such value is refused loudly
    with pytest.raises(OverflowError, match="exponent"):
        make()


def test_integral_coefficients_are_int():
    half = Coeff.from_rational(Fraction(1, 2))
    assert (half * 2).num == {0: 1} and type((half * 2).num[0]) is int
    assert type(Coeff.from_rational(Fraction(6, 3)).num[0]) is int
    assert type(coeff({0: Fraction(4, 2)}).num[0]) is int
    x = (half * B + half) * (B * 2 + -2)
    assert all(type(c) is int for c in x.num.values())
    assert str(x) == "b^2 - 1"


# -- the fused sum of products -------------------------------------------------

factor = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
)


def constant(k):
    return ({refring.ZERO_EXP: Fraction(k)}, 0)


def reference_sum(items):
    """The fold a*b*k + ... by public Coeff arithmetic, and the same on refring."""
    naive = Coeff.zero()
    ref = ({}, 0)
    for (x, rx), (y, ry), k in items:
        naive = naive + x * y * k
        product = refring.mul(refring.mul(rx, ry), constant(k))
        ref = refring.add(ref, product)
    return naive, ref


@given(st.lists(st.tuples(spec_strategy, spec_strategy, factor), max_size=5))
def test_sum_products_matches_fold_and_reference(specs):
    # spec_strategy mixes (1+b) powers 0..4 per operand, so the products
    # fall into several power groups; an empty list and one triple are drawn
    items = [(build(sx), build(sy), k) for sx, sy, k in specs]
    naive, ref = reference_sum(items)
    got = sum_products([(x, y, k) for (x, _), (y, _), k in items])
    assert got == naive
    assert_matches(got, ref)


@given(spec_strategy, spec_strategy, factor)
def test_sum_products_cancels_to_canonical(sx, sy, k):
    x, rx = build(sx)
    y, ry = build(sy)
    # the whole sum cancels: zero with no denominator
    zero = sum_products([
        (x, y, k), (y, x, -k), (x * y, ONE_PLUS_B, k), (x * y * k, B, -1), (x, y, -k)
    ])
    assert zero.num == {} and zero.dp == 0
    # x/(1+b) * b + x/(1+b) = x: the sum loses a (1+b) factor of its group
    xi = x * INV_1PB
    got = sum_products([(xi, B, k), (xi, Coeff.one(), k)])
    assert_matches(got, refring.mul(rx, constant(k)))


def test_sum_products_edge_lists():
    x = (U[1] + B) * Coeff.inv_one_plus_b(2)
    assert sum_products([]) == Coeff.zero() and sum_products([]).dp == 0
    assert sum_products([(x, U[2], Fraction(3, 2))]) == x * U[2] * Fraction(3, 2)
    assert sum_products([(x, U[2], 1)]) == x * U[2]
    assert sum_products([(x, U[2], 0), (Coeff.zero(), x, 1)]) == Coeff.zero()


@pytest.mark.parametrize("dp", [0, 3])
def test_sum_products_overflow_raises_even_when_cancelled(dp):
    # q1^1500 * q1^1500 passes the field limit; the two products cancel,
    # and the guard still refuses the key before the zero is dropped
    q = coeff_power(Q[1], 1500)
    big = q * Coeff.inv_one_plus_b(dp)
    with pytest.raises(OverflowError, match="exponent"):
        sum_products([(big, q, 1), (big, q, -1)])
    with pytest.raises(OverflowError, match="exponent"):
        sum_products([(U[1], U[2], 1), (big, q, 2), (q, big, -2)])


# -- the packed path of sum_products against the dict path ----------------------

wide = st.one_of(
    st.integers(-40, 40),
    st.integers(-(2 ** 70), 2 ** 70),
    st.sampled_from([2 ** 70 - 1, -(2 ** 70) + 1, 2 ** 69, -(2 ** 69)]),
).filter(bool)
key_exps = st.tuples(st.integers(0, 6), *[st.integers(0, 3)] * (NVARS - 1))
operand = st.builds(
    lambda terms, q, dp: (
        coeff({_pack(e): c for e, c in terms.items()}) * Fraction(1, q)
        * Coeff.inv_one_plus_b(dp)
    ),
    st.dictionaries(key_exps, wide, min_size=1, max_size=8),
    st.integers(1, 6),
    st.integers(0, 4),
)
ratio = st.one_of(
    st.integers(-5, 5).filter(bool),
    st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(2, 9)),
)


@st.composite
def packed_sums(draw):
    """Triples over a small pool of operands, some made divisible or cancelling.

    A drawn triple (x, y, k) with a drawn j in 0..3 becomes the j + 1 triples
    (x * b^i, y, k * C(j, i)): their sum x y k (1+b)^j is divisible by
    (1+b)^j where the single products need not be.  A drawn flag appends
    every triple negated, so the sum is zero.
    """
    pool = draw(st.lists(operand, min_size=1, max_size=4))
    pick = st.sampled_from(pool)
    triples = []
    for x, y, k, j in draw(st.lists(st.tuples(pick, pick, ratio, st.integers(0, 3)),
                                    min_size=1, max_size=5)):
        triples += [(x * coeff_power(B, i), y, k * comb(j, i)) for i in range(j + 1)]
    if draw(st.booleans()):
        triples += [(x, y, -k) for x, y, k in triples]
    return triples


def assert_paths_agree(triples, packed=_sum_packed):
    groups, _ = _grouped(triples)
    got = packed(groups)
    want = _sum_dict(groups)
    assert (got.n, got.den, got.dp) == (want.n, want.den, want.dp)
    assert str(got) == str(want)
    return got


@given(packed_sums())
def test_packed_path_matches_dict_path(triples):
    assert_paths_agree(triples)


def at_least_width(groups):
    """The packed sum at the least B the bound allows, not rounded up to a width class."""
    return _sum_columns(groups, _digit_width(groups))


@pytest.mark.parametrize("packed", [_sum_packed, at_least_width], ids=["class", "least"])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("dp", [0, 2])
@pytest.mark.parametrize("rest", [Coeff.one(), U[1] * coeff_power(Q[3], 2)])
def test_packed_path_at_its_digit_bound(sign, dp, rest, packed):
    # with no b and one top power, every column coefficient reaches the bound
    # C = sum |kn| max|a| max|b| min(#a, #b) exactly; a digit one bit
    # narrower than 2^(B-1) > C reads it back as a wrong pair of digits, which
    # the least B shows and the rounding to a width class may hide
    c = 2 ** 70 - 1
    a = rest * c * Coeff.inv_one_plus_b(dp)
    triples = [(a, Coeff.from_rational(sign * c), 1), (Coeff.from_rational(c), a, sign)]
    got = assert_paths_agree(triples, packed)
    assert got == rest * (2 * sign * c * c) * Coeff.inv_one_plus_b(dp)


def test_packed_path_cancels_to_zero():
    x = (U[1] + B * Q[2] + -3) * Coeff.inv_one_plus_b(2)
    y = coeff_power(B, 3) + U[3] * Fraction(1, 3)
    zero = assert_paths_agree([(x, y, 2), (y, x, Fraction(-1, 2)), (x * y, ONE_PLUS_B, Fraction(-3, 2)),
                               (x * y * B, Coeff.one(), Fraction(3, 2))])
    assert zero.n == {} and zero.den == 1 and zero.dp == 0


@pytest.mark.parametrize("dp", [0, 3])
@pytest.mark.parametrize("var", [B, Q[1]])
def test_packed_path_overflow_raises_even_when_cancelled(dp, var):
    # a product past the b field leaves the sum to the dict path, which
    # raises; a rest field is checked on the accumulated rest sums before
    # cancelled columns are dropped
    big = coeff_power(var, 1500) * Coeff.inv_one_plus_b(dp)
    for triples in (
        [(big, coeff_power(var, 1500), 1), (big, coeff_power(var, 1500), -1)],
        [(U[1], U[2], 1), (big, coeff_power(var, 1500), 2), (coeff_power(var, 1500), big, -2)],
    ):
        groups, _ = _grouped(triples)
        for path in (_sum_packed, _sum_dict):
            with pytest.raises(OverflowError, match="exponent"):
                path(groups)


def test_packed_path_past_the_b_field_after_rescaling():
    # b^2000 rescaled by (1+b)^100 passes the b field although each product
    # fits; the dict path's rescale refuses it, and so does the packed path
    triples = [(coeff_power(B, 2000), U[1], 1), (Coeff.inv_one_plus_b(100), U[1], 1)]
    groups, _ = _grouped(triples)
    for path in (_sum_packed, _sum_dict):
        with pytest.raises(OverflowError, match="exponent"):
            path(groups)


def test_large_sums_take_the_packed_path(monkeypatch):
    # 20 * 15 term pairs: sum_products takes the packed path, and an
    # overflowing product that cancels still raises there
    x = sum((coeff_power(B, i) * coeff_power(U[1], j) * (i + j + 1)
             for i in range(4) for j in range(5)), Coeff.zero())
    y = sum((coeff_power(Q[2], i) * coeff_power(B, j) * INV_1PB
             for i in range(5) for j in range(3)), Coeff.zero())
    assert len(x.n) * len(y.n) >= coeffring.PACKED_PAIRS
    calls = []
    monkeypatch.setattr(coeffring, "_sum_packed", lambda groups: calls.append(1) or _sum_packed(groups))
    assert sum_products([(x, y, 1), (y, x, Fraction(1, 2))]) == x * y * Fraction(3, 2)
    big = coeff_power(Q[1], 1500)
    with pytest.raises(OverflowError, match="exponent"):
        sum_products([(x, y, 1), (big, big, 1), (big, big, -1)])
    assert len(calls) == 2


# -- packing each numerator once per width class --------------------------------

width_scale = st.sampled_from([1, -1, 2 ** 40, -(2 ** 90), 2 ** 150, 2 ** 300])


@given(st.lists(operand, min_size=2, max_size=4),
       st.lists(st.tuples(width_scale, st.integers(0, 2)), min_size=2, max_size=6))
def test_shared_operands_across_width_classes(pool, sums):
    # the same Coeffs meet sums whose B falls into different width classes,
    # in any order, so each keeps packings at several widths; every sum must
    # match the dict path, whichever packings were made before it
    for k, skip in sums:
        x, *rest = pool[skip % len(pool):] + pool[:skip % len(pool)]
        triples = [(x, y, k) for y in rest] + [(y, x, Fraction(1, 3)) for y in rest]
        assert_paths_agree(triples)


def test_a_coeff_keeps_one_packing_per_width_class():
    x = (U[1] + B * 3 + -coeff_power(B, 2) * Q[2]) * INV_1PB
    y = B * U[2] + -5
    wide = [(x, y, 1), (y, x, 2 ** 300)]
    for triples in ([(x, y, 1), (y, x, 2)], wide, [(x, y, -1)], wide):
        assert_paths_agree(triples)
    assert len(x.packed) == len(y.packed) == 2
    assert all(w % WIDTH_CLASS == 0 for w in x.packed)
    assert Coeff.one().packed is None and (x * 3).packed is None


def test_a_coeff_keeps_the_sizes_that_bound_its_width():
    # _digit_width reads each operand's height and b-degree, computed once
    x = (U[1] + B * 3 + -coeff_power(B, 2) * Q[2]) * INV_1PB
    y = B * U[2] + -5
    assert x.sizes is None and y.sizes is None
    for triples in ([(x, y, 1), (y, x, 2)], [(x, y, -1)]):
        assert_paths_agree(triples)
    assert x.sizes == (3, 2) and y.sizes == (5, 1)
    assert (x * 3).sizes is None


def test_series_packs_each_numerator_once_per_width_class(monkeypatch):
    # the series workload's sizes: every _pack_columns call packs the
    # numerator of a Coeff (kept alive here, so ids are not reused) at a
    # width that Coeff had not been packed at
    packs = []
    readers = []
    packed, pack_columns = coeffring._packed, coeffring._pack_columns

    def reading(c, shift):
        readers.append(c)
        return packed(c, shift)

    def counting(p, shift):
        assert p is readers[-1].n
        packs.append((readers[-1], shift))
        return pack_columns(p, shift)

    monkeypatch.setattr(coeffring, "_packed", reading)
    monkeypatch.setattr(coeffring, "_pack_columns", counting)
    tau = tau_evolve(THREECONST, 6)
    assert check_constraints(THREECONST, tau, 5)["ok"]
    assert check_rooted_fixed_point(THREECONST, tau, 3)["ok"]
    keys = [(id(c), shift) for c, shift in packs]
    assert len(set(keys)) == len(keys)
    assert 0 < len(packs) <= 210
    assert all(shift % WIDTH_CLASS == 0 for _, shift in packs)


# -- printing from the integer numerator, and products by constants ------------

PRINTED = [
    Coeff.zero(), Coeff.one(), -Coeff.one(), Coeff.from_rational(Fraction(-3, 4)),
    Coeff.from_rational(7) * Coeff.inv_one_plus_b(2), -INV_1PB, -B * Coeff.inv_one_plus_b(3),
    coeff_power(B, 5) * Fraction(2, 3),
    U[1] * coeff_power(Q[3], 4) * Fraction(-1, 6) + 1, (U[2] + -B * Fraction(5, 2)) * INV_1PB,
    (Q[1] * Fraction(3, 2) + -B * U[3] * Fraction(1, 2) + Fraction(1, 6)) * Coeff.inv_one_plus_b(4),
]


@pytest.mark.parametrize("x", PRINTED, ids=str)
def test_printer_matches_rational_printer_on_examples(x):
    assert str(x) == refring.num_str(x)
    assert refring.parse(str(x)) == x


@given(spec_strategy, st.one_of(st.integers(-3, 3), st.builds(Fraction, nonzero, st.integers(1, 9))))
def test_printer_matches_rational_printer(spec, k):
    # Fraction content, negative leads, unit magnitudes, constants, dp > 0,
    # and monomials in b alone or without b, over a drawn rational scale
    x, _ = build(spec)
    for y in (x, x * k, -x):
        assert str(y) == refring.num_str(y)


@given(spec_strategy, st.one_of(st.integers(-4, 4), st.builds(Fraction, nonzero, st.integers(1, 9))))
def test_constant_products_scale(spec, q):
    # a rational constant scales the other operand: the same canonical value
    # as the product by the bare rational and as the term-by-term product
    x, _ = build(spec)
    c = Coeff.from_rational(q)
    want = _normal(_poly_mul(x.n, c.n), x.den * c.den, x.dp)
    for got in (x * c, c * x, x * q, q * x):
        assert (got.n, got.den, got.dp) == (want.n, want.den, want.dp)
        assert str(got) == str(want)
