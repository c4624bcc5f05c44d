"""Reference Jack oracle, kept for tests only.

This is the original arithmetic behind ``bconstell.jack``: Gram-Schmidt
and series reassembly directly in the rational function field
Q(alpha, u1, u2, u3, q1, q2, q3), where every product cancels a
multivariate gcd, and the conversion to Coeff builds every term from Coeff
powers and products.  Its start vectors come from the monomial-to-power-sum
transition of the first tables: every p_lam expanded monomial by monomial
over n variables (_p_in_m), inverted by Gauss-Jordan over Fractions
(_m_in_p).  The fraction-free ZZ[alpha] tables built from Moebius rows, the
integer assembly and the grouped conversion in ``bconstell.jack`` must
agree with it.
"""

from fractions import Fraction
from functools import lru_cache

from bconstell.coeffring import Coeff, ONE_PLUS_B, U as COEFF_U, Q as COEFF_Q, VARS
from bconstell.jack import (
    OracleDenominatorError,
    _field,
    _ppoly_key,
    partitions,
    z_of,
)
from bconstell.ppoly import PPoly


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
            term = term * ONE_PLUS_B ** exps[0]
        for idx in range(1, 7):
            if exps[idx]:
                term = term * params[idx] ** exps[idx]
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
