"""Reference Jack oracle, kept for tests only.

This is the original arithmetic behind ``bconstell.jack``: Gram-Schmidt
and series reassembly directly in the rational function field
Q(alpha, u1, u2, u3, q1, q2, q3), where every product cancels a
multivariate gcd, and the conversion to Coeff builds every term from Coeff
powers and products.  Its start vectors come from the monomial-to-power-sum
transition of the first tables: every p_lam expanded monomial by monomial
over n variables (_p_in_m), inverted by Gauss-Jordan over Fractions
(_m_in_p).  The triangular ZZ[alpha] tables, the integer assembly and the
grouped conversion in ``bconstell.jack`` must agree with it.

``dup_jack_table`` is fraction-free Gram-Schmidt on sympy's dense ``dup_*``
arithmetic over ``ZZ``, with its pairing and closed-form norm
(``dup_inner``, ``dup_stanley_norm``) and its start vectors from one
Moebius sum over set partitions (``moebius_rows``): the package built its
tables this way before the triangular construction, and its tables must
still give the same lists.  ``laplace_beltrami_rows`` applies the operator
D(alpha) to monomial symmetric functions on sympy polynomials, for the
eigenvalues and raising coefficients the triangular construction uses.
``jack_to_ppoly`` reads one of the package's dense tables into a ``PPoly``
through the package's own conversion, ``_series_coeff``.  ``norm_ratios``
is the lcm D_n of the closed-form norms of size n by pseudo-remainder gcds
(``_lcm``), as the package computed it before it read D_n from the
multiplicities of the norms' linear factors; both must give the same lists.

The field is built here, on sympy, and ``to_field`` reads the package's
dense ``ZZ[alpha]`` values into it, so no field code of the package is
used to check the package.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm

from sympy import symbols
from sympy.polys.domains import QQ

from bconstell.coeffring import Coeff, ONE_PLUS_B, U as COEFF_U, Q as COEFF_Q, VARS, add_term
from bconstell.jack import (
    JACK_BOUND,
    JackBoundError,
    JackTableError,
    OracleDenominatorError,
    _NO_UQ,
    _add,
    _content_rows,
    _exquo,
    _gcd,
    _jack_table,
    _mul,
    _mul_ground,
    _norm_ratios,
    _primitive,
    _ppoly_key,
    _series_coeff,
    _stanley_norm,
    _weight,
    jack as dense_jack,
    partitions,
    z_of,
)
from bconstell.ppoly import PPoly
from refring import coeff_power


@lru_cache(maxsize=1)
def _field():
    """The field Q(alpha, u1, u2, u3, q1, q2, q3) and its generators by name."""
    names = ("alpha",) + VARS[1:]
    field = QQ.frac_field(*symbols(names))
    return field, dict(zip(names, field.gens))


def to_field(groups):
    """{u, q exponents (VARS[1:] order): dense ZZ[alpha] list} as one field element."""
    terms = {
        (len(c) - 1 - i,) + rest: x
        for rest, c in groups.items()
        for i, x in enumerate(c)
        if x
    }
    return _field()[0].field((terms, 1))


def from_dense(c):
    """A dense ZZ[alpha] list as a field element."""
    return to_field({(0,) * (len(VARS) - 1): c})


def field_to_coeff(elem):
    """Field element to Coeff, alpha -> 1+b, one Coeff power and product per term."""
    numer, denom = elem.numer, elem.denom
    dterms = list(denom.terms())
    if len(dterms) != 1 or any(e for e in dterms[0][0][1:]):
        raise OracleDenominatorError(
            "series coefficient has a non-(1+b) denominator: %s; this is a "
            "finding to report, not to patch" % (denom,)
        )
    (dexps, dcoeff), = dterms
    e = dexps[0]
    out = Coeff.zero()
    params = [None, COEFF_U[1], COEFF_U[2], COEFF_U[3], COEFF_Q[1], COEFF_Q[2], COEFF_Q[3]]
    for exps, c in numer.terms():
        term = Coeff.from_rational(Fraction(c.numerator, c.denominator))
        if exps[0]:
            term = term * coeff_power(ONE_PLUS_B, exps[0])
        for idx in range(1, 7):
            if exps[idx]:
                term = term * coeff_power(params[idx], exps[idx])
        out = out + term
    scale = Fraction(dcoeff.numerator, dcoeff.denominator)
    return out * (1 / scale) * Coeff.inv_one_plus_b(e) if e else out * (1 / scale)


@lru_cache(maxsize=None)
def _p_in_m(n):
    """Coefficient of each monomial basis element inside each p_lam (integers)."""
    parts = partitions(n)
    table = {}
    for lam in parts:
        expansion = {(0,) * n: 1}
        for r in lam:
            new = {}
            for exps, c in expansion.items():
                for i in range(n):
                    key = exps[:i] + (exps[i] + r,) + exps[i + 1:]
                    new[key] = new.get(key, 0) + c
            expansion = new
        row = {}
        for mu in parts:
            key = tuple(sorted(mu, reverse=True)) + (0,) * (n - len(mu))
            row[mu] = expansion.get(key, 0)
        table[lam] = row
    return table


@lru_cache(maxsize=None)
def _m_in_p(n):
    """Inverse transition: each monomial basis element over the p basis."""
    parts = partitions(n)
    size = len(parts)
    fwd = _p_in_m(n)
    mat = [[Fraction(fwd[lam][mu]) for mu in parts] for lam in parts]
    inv = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if mat[r][col])
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        inv[col] = [x / pv for x in inv[col]]
        for r in range(size):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    # row mu of the inverse expresses m_mu over the p basis
    return {
        mu: {lam: inv[c][r] for r, lam in enumerate(parts)}
        for c, mu in enumerate(parts)
    }


def _fld(x):
    field, _ = _field()
    x = Fraction(x)
    return field(x.numerator) / field(x.denominator)


def inner(f, g):
    """alpha-deformed pairing of two p-coordinate vectors over the field."""
    field, gens = _field()
    alpha = gens["alpha"]
    acc = field.zero
    for lam, cf in f.items():
        cg = g.get(lam)
        if cg:
            acc += cf * cg * alpha ** len(lam) * z_of(lam)
    return acc


@lru_cache(maxsize=None)
def jack_table(n):
    """All deformed polynomials of size n as p-coordinate vectors over the field."""
    field, _ = _field()
    if n == 0:
        return {(): {(): field.one}}
    parts = partitions(n)
    m_in_p = _m_in_p(n)
    done = []
    table = {}
    for lam in reversed(parts):
        v = {mu: _fld(c) for mu, c in m_in_p[lam].items() if c}
        for g, norm in done:
            c = inner(v, g) / norm
            if c:
                v = {
                    mu: v.get(mu, field.zero) - c * g.get(mu, field.zero)
                    for mu in set(v) | set(g)
                }
                v = {mu: x for mu, x in v.items() if x}
        done.append((v, inner(v, v)))
        lead = v[(1,) * n]
        table[lam] = {mu: x / lead for mu, x in v.items()}
    return table


def jack(lam):
    return jack_table(sum(lam))[tuple(lam)]


def jack_to_ppoly(lam):
    """The package's deformed polynomial as a PPoly with alpha evaluated at 1+b."""
    return PPoly({
        _ppoly_key(mu): _series_coeff({_NO_UQ: c}, [1]) for mu, c in dense_jack(lam).items()
    })


def content_product(lam, k, convention):
    field, gens = _field()
    alpha = gens["alpha"]
    us = [gens[v] for v in VARS if v[0] == "u"][:k]
    acc = field.one
    for r, row_len in enumerate(lam, start=1):
        for c in range(1, row_len + 1):
            if convention == "standard":
                content = alpha * (c - 1) - (r - 1)
            else:
                content = alpha * (r - 1) - (c - 1)
            for u in us:
                acc *= u + content
    return acc


def vertex_weight(lam, model):
    field, gens = _field()
    if model.r == 1:
        return field.one
    acc = field.zero
    for mu, c in jack(lam).items():
        if mu and max(mu) > model.r:
            continue
        term = c
        for part in mu:
            term *= gens["q%d" % part]
        acc += term
    return acc


def tau_coeffs(model, order, convention="standard"):
    """The oracle series coefficients t^0 .. t^order as PPoly values."""
    coeffs = [PPoly.one()]
    for n in range(1, order + 1):
        vec = {}
        for lam in partitions(n):
            v = jack(lam)
            weight = (
                content_product(lam, model.k, convention)
                * vertex_weight(lam, model)
                / inner(v, v)
            )
            if not weight:
                continue
            for mu, c in v.items():
                vec[mu] = vec.get(mu, 0) + c * weight
        coeffs.append(PPoly({
            _ppoly_key(mu): field_to_coeff(c) for mu, c in vec.items() if c
        }))
    return coeffs


def laplace_beltrami_rows(n):
    """D(alpha) on each m_nu over n variables, as the coefficients of the m_mu.

    D(alpha) = (alpha/2) sum_i x_i^2 d_i^2 + sum_{i<j} (x_i^2 d_i - x_j^2 d_j)
    / (x_i - x_j) (Stanley 1989, Adv. Math. 77, section 3), applied on sympy
    polynomials with every pair quotient divided out exactly.  Returns
    (diagonal, off): diagonal[nu] = (A, B) for the coefficient A alpha + B of
    m_nu, and off[nu] = {mu: B} for the other m_mu, which carry no alpha.
    """
    from sympy import Poly, div
    from sympy.utilities.iterables import multiset_permutations

    xs = symbols("x1:%d" % (n + 1))
    diagonal, off = {}, {}
    for nu in partitions(n):
        padded = list(nu) + [0] * (n - len(nu))
        f = Poly({tuple(a): 1 for a in multiset_permutations(padded)}, *xs)
        second = sum((Poly(x**2, *xs) * f.diff(x).diff(x) for x in xs), Poly(0, *xs))
        first = Poly(0, *xs)
        for j in range(n):
            for i in range(j):
                num = Poly(xs[i]**2, *xs) * f.diff(xs[i]) - Poly(xs[j]**2, *xs) * f.diff(xs[j])
                quot, rem = div(num, Poly(xs[i] - xs[j], *xs))
                assert rem.is_zero
                first += quot
        second, first = second.as_dict(), first.as_dict()
        assert all(sorted(a, reverse=True) == padded for a in second)
        diagonal[nu] = (second.get(tuple(padded), 0) // 2, first.get(tuple(padded), 0))
        off[nu] = {
            mu: first.get(tuple(mu) + (0,) * (n - len(mu)), 0)
            for mu in partitions(n)
            if mu != nu
        }
    return diagonal, off


# -- the fraction-free table on sympy's dup_* arithmetic ----------------------


@lru_cache(maxsize=None)
def moebius_rows(n):
    """Each augmented monomial prod_i m_i(lam)! m_lam over the p basis (integers).

    Moebius inversion on the lattice of set partitions (Doubilet 1972):
    the augmented monomial of lam is the sum over the set partitions sigma
    of lam's parts of prod_B (-1)^(|B|-1) (|B|-1)! p_lam(sigma), where
    lam(sigma) sorts the block sums.  The parts are placed one at a time,
    each in a new block or in an existing block of size s, which multiplies
    the coefficient by -s.
    """
    table = {}
    for lam in partitions(n):
        terms = [((), 1)]
        for part in lam:
            terms = [(blocks + ((1, part),), c) for blocks, c in terms] + [
                (blocks[:i] + ((size + 1, total + part),) + blocks[i + 1:], -size * c)
                for blocks, c in terms
                for i, (size, total) in enumerate(blocks)
            ]
        row = {}
        for blocks, c in terms:
            add_term(row, tuple(sorted((total for _, total in blocks), reverse=True)), c)
        table[lam] = row
    return table


def dup_inner(f, g):
    """alpha-deformed pairing of two p-coordinate vectors over dense ZZ[alpha]."""
    from sympy.polys.densearith import dup_add, dup_mul, dup_mul_ground
    from sympy.polys.domains import ZZ

    acc = []
    for lam, cf in f.items():
        cg = g.get(lam)
        if cg:
            term = dup_mul_ground(dup_mul(cf, cg, ZZ), z_of(lam), ZZ)
            acc = dup_add(acc, term + [0] * len(lam), ZZ)
    return acc


def dup_stanley_norm(lam):
    """Closed form prod_s (alpha a(s) + l(s) + 1)(alpha a(s) + l(s) + alpha), dense."""
    from sympy.polys.densearith import dup_mul
    from sympy.polys.densebasic import dup_strip
    from sympy.polys.domains import ZZ

    acc = [1]
    for r, row_len in enumerate(lam):
        for c in range(row_len):
            arm = row_len - c - 1
            leg = sum(1 for below in lam[r + 1:] if below > c)
            acc = dup_mul(acc, dup_strip([arm, leg + 1]), ZZ)
            acc = dup_mul(acc, [arm + 1, leg], ZZ)
    return acc


def dup_jack_table(n):
    """All deformed polynomials of size n as p-coordinate vectors over dense ZZ[alpha].

    The vector of lam is J_lam: primitive (its coordinates have gcd 1 in
    ZZ[alpha]), with p_1^n coordinate 1.
    """
    if n > JACK_BOUND:
        raise JackBoundError("size %d exceeds the configured bound %d" % (n, JACK_BOUND))
    from sympy.polys.densearith import dup_exquo, dup_mul, dup_neg, dup_sub
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dup_gcd, dup_inner_gcd

    if n == 0:
        return {(): {(): [1]}}
    m_in_p = moebius_rows(n)
    ones = (1,) * n
    done = []
    table = {}
    # increasing lexicographic order refines dominance upward
    for lam in reversed(partitions(n)):
        v = {mu: [c] for mu, c in m_in_p[lam].items()}
        for g, norm in done:
            c = dup_inner(v, g)
            if c:
                # v <- <g,g> v - <v,g> g, both factors divided by their gcd
                _, scale, c = dup_inner_gcd(norm, c, ZZ)
                v = {
                    mu: dup_sub(dup_mul(scale, v.get(mu, []), ZZ),
                                dup_mul(c, g.get(mu, []), ZZ), ZZ)
                    for mu in set(v) | set(g)
                }
                v = {mu: x for mu, x in v.items() if x}
        content = reduce(lambda x, y: dup_gcd(x, y, ZZ), v.values())
        v = {mu: dup_exquo(x, content, ZZ) for mu, x in v.items()}
        lead = v.get(ones, [])
        if lead == [-1]:
            v = {mu: dup_neg(x, ZZ) for mu, x in v.items()}
        elif lead != [1]:
            raise JackTableError(
                "J%s: the primitive Gram-Schmidt vector has p_1^%d coordinate %s, "
                "not 1 or -1" % (lam, n, lead)
            )
        norm = dup_inner(v, v)
        expected = dup_stanley_norm(lam)
        if norm != expected:
            raise JackTableError(
                "J%s: Gram-Schmidt norm %s differs from the closed form %s "
                "(dense coefficients in alpha)" % (lam, norm, expected)
            )
        done.append((v, norm))
        table[lam] = v
    return table


# -- the series sums as one dense product per (lam, mu, u, q monomial) --------


def list_assembly(table, weights):
    """sum_lam table[lam][mu] weights[lam][rest] by mu and rest, one _mul each.

    The loop is tau_jack's assembly before the packed one, on the package's
    dense ZZ[alpha] _add and _mul (which test_jack_reference.py checks against
    sympy's dup_*); empty lists and mu without any are dropped, as
    bconstell.jack._assemble drops them.
    """
    sums = {}
    for lam, v in table.items():
        weight = weights[lam]
        for mu, c in v.items():
            groups = sums.setdefault(mu, {})
            for rest, w in weight.items():
                groups[rest] = _add(groups.get(rest, []), _mul(c, w))
    sums = {mu: {rest: f for rest, f in groups.items() if f} for mu, groups in sums.items()}
    return {mu: groups for mu, groups in sums.items() if groups}


def list_tau_coeffs(model, order, convention="standard"):
    """tau_jack's series t^0 .. t^order as PPoly values, summed by list_assembly."""
    coeffs = [PPoly.one()]
    for n in range(1, order + 1):
        sums = list_assembly(_jack_table(n), series_weights(model, n, convention))
        denom = _norm_ratios(n)[1]
        coeffs.append(PPoly({
            _ppoly_key(mu): _series_coeff(groups, denom) for mu, groups in sums.items()
        }))
    return coeffs


def series_weights(model, n, convention):
    """The weights tau_jack assembles at order n, by partition of n."""
    ratios = _norm_ratios(n)[0]
    return {
        lam: _weight(v, ratios[lam], _content_rows(lam, convention), model)
        for lam, v in _jack_table(n).items()
    }


def _lcm(f, g):
    """lcm in ZZ[alpha] with a positive leading coefficient; [] if f or g is zero."""
    if not f or not g:
        return []
    fc, f = _primitive(f)
    gc, g = _primitive(g)
    h = _exquo(_mul(f, g), _gcd(f, g))
    c = lcm(fc, gc)
    return _mul_ground(h, -c if h[0] < 0 else c)


def norm_ratios(n):
    """(the ratios D_n / j_lam by partition lam of n, D_n), D_n by a fold of _lcm."""
    norms = {lam: _stanley_norm(lam) for lam in partitions(n)}
    common = reduce(_lcm, norms.values())
    return {lam: _exquo(common, norm) for lam, norm in norms.items()}, common
