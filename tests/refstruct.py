"""Reference structure operators, kept for tests only.

These are the three hand-written copies of the piecewise structure
coefficient that ``bconstell.constraints`` now derives from one table:
``build_D`` (charge 0), ``build_Dtilde`` (charge u) and the grouped
top-level commutator ``final_commutator_rhs``, which the level-3 ``dsum``
replaces.  The shared table must give the same terms and the same working
degree.  ``explicit_rhs`` is the grouped display written out once per model,
which ``constraints.explicit_rhs`` now sums level by level from the model's
structure family.
"""

from fractions import Fraction

from bconstell.coeffring import B, Coeff, ONE_PLUS_B, Q, U
from bconstell.currents import current
from bconstell.constraints import TGradedOp
from bconstell.weyl import WeylOp


def _sgn(x):
    return (x > 0) - (x < 0)


def build_D(s, i, j, l, working_degree):
    """Structure operator for the multi-color family (charge 0), 0 <= s <= 3."""
    if not 0 <= s <= 3:
        raise ValueError("s must be within 0..3")
    d = working_degree
    if s <= 1 or i == j:
        return WeylOp.zero(d)
    if s == 2:
        if l == i + j - 1:
            return WeylOp.identity(d).scale(Coeff.from_rational(i - j))
        return WeylOp.zero(d)
    mu, M = min(i, j), max(i, j)
    out = WeylOp.zero(d)
    coeff = Fraction(0)
    if l >= M:
        coeff += 2 * (i - j)
    if M <= l <= i + j - 1:
        coeff += i - j
    if mu <= l <= M - 1:
        coeff += _sgn(i - j) * (2 * l - 3 * mu + 1)
    if coeff:
        out = out + current(i + j - 1 - l, d).scale(Coeff.from_rational(coeff))
    if l == i + j - 1:
        out = out + WeylOp.identity(d).scale(B * ((i - j) * (i + j - 2)))
    return out


def build_Dtilde(m, i, j, l, working_degree):
    """Structure operator for the single-color family (charge u), 1 <= m <= 3."""
    if not 1 <= m <= 3:
        raise ValueError("m must be within 1..3")
    d = working_degree
    if m == 1 or i == j:
        return WeylOp.zero(d)
    if m == 2:
        if l == i + j - 2:
            return WeylOp.identity(d).scale(Coeff.from_rational(i - j))
        return WeylOp.zero(d)
    mu, M = min(i, j), max(i, j)
    out = WeylOp.zero(d)
    coeff = Fraction(0)
    if l >= M - 1:
        coeff += 2 * (i - j)
    if M - 1 <= l <= i + j - 3:
        coeff += i - j
    if mu - 1 <= l <= M - 2:
        coeff += _sgn(i - j) * (2 * l - 3 * mu + 3)
    if coeff:
        out = out + current(i + j - 3 - l, d, charge=U[1]).scale(
            Coeff.from_rational(coeff)
        )
    if l == i + j - 3:
        out = out + WeylOp.identity(d).scale(B * ((i - j) * (i + j - 3)))
    return out


def final_commutator_rhs(model, i, j, ops, d_outer):
    """The standalone top-level commutator in its grouped form."""
    mu, M = min(i, j), max(i, j)
    if model.r == 1:
        charge = None
        base = i + j - 1
        lo_double, hi_mid = M, i + j - 1
        sgn_lo, sgn_hi = mu, M - 1
        sgn_shift = 1
        b_coeff = B * ((i - j) * (i + j - 2))
    else:
        charge = U[1]
        base = i + j - 3
        lo_double, hi_mid = M - 1, i + j - 3
        sgn_lo, sgn_hi = mu - 1, M - 2
        sgn_shift = 3
        b_coeff = B * ((i - j) * (i + j - 3))
    acc = None
    for n, op in ops.items():
        coeff = Fraction(0)
        if n >= lo_double:
            coeff += 2 * (i - j)
        if lo_double <= n <= hi_mid:
            coeff += i - j
        if sgn_lo <= n <= sgn_hi:
            coeff += _sgn(i - j) * (2 * n - 3 * mu + sgn_shift)
        if coeff:
            cur = current(base - n, d_outer, charge=charge)
            if not cur.is_zero():
                term = cur.compose(op).scale(Coeff.from_rational(coeff))
                acc = term if acc is None else acc + term
    if base in ops:
        term = ops[base].scale(b_coeff)
        acc = term if acc is None else acc + term
    if acc is None:
        acc = WeylOp.zero(min(op.working_degree for op in ops.values()))
    return acc


def explicit_rhs(model, i, j, ls, d_outer):
    """The grouped closed form of [L_i, L_j] as usually displayed, per model."""
    mu, M = min(i, j), max(i, j)
    zero = TGradedOp.zero()

    def L(l):
        return ls.get(l, zero)

    if model.name == "bip":
        return L(i + j - 1).scale(Coeff.from_rational(i - j)).tshift(1)

    if model.name == "threeconst":
        rhs = TGradedOp.zero()
        for n in range(1, max(ls) - (i + j - 1) + 1):
            if i + j + n - 1 not in ls:
                continue
            term = TGradedOp({0: WeylOp.p(n, d_outer)}).compose(L(i + j + n - 1))
            rhs = rhs + term.scale(Coeff.from_rational(2 * (i - j)))
        rhs = rhs + L(i + j - 1).scale(B * ((i - j) * (i + j - 2)))
        for n in range(1, mu):
            term = TGradedOp({0: WeylOp.p_star(n, d_outer)}).compose(L(i + j - 1 - n))
            rhs = rhs + term.scale(ONE_PLUS_B * (3 * (i - j)))
        for n in range(mu, M):
            c = _sgn(i - j) * (2 * M - 2 * n - mu - 1)
            if c:
                term = TGradedOp({0: WeylOp.p_star(n, d_outer)}).compose(
                    L(i + j - 1 - n)
                )
                rhs = rhs + term.scale(ONE_PLUS_B * c)
        rhs = rhs + L(i + j - 1).scale((U[1] + U[2] + U[3]) * (i - j))
        return rhs.tshift(1)

    if model.name == "biple3":
        q2, q3 = Q[2], Q[3]
        rhs = TGradedOp.zero()
        for n in range(1, max(ls) - (i + j - 3) + 1):
            l = i + j + n - 3
            if l not in ls:
                continue
            term = TGradedOp({0: WeylOp.p(n, d_outer)}).compose(L(l))
            rhs = rhs + term.scale(q3 * (2 * (i - j))).tshift(2)
        rhs = rhs + L(i + j - 3).scale(q3 * B * ((i - j) * (i + j - 3))).tshift(2)
        for n in range(1, mu - 1):
            term = TGradedOp({0: WeylOp.p_star(n, d_outer)}).compose(L(i + j - 3 - n))
            rhs = rhs + term.scale(q3 * ONE_PLUS_B * (3 * (i - j))).tshift(2)
        for n in range(max(mu - 1, 1), M - 1):
            c = _sgn(i - j) * (2 * M - 2 * n - mu - 3)
            if c:
                term = TGradedOp({0: WeylOp.p_star(n, d_outer)}).compose(
                    L(i + j - 3 - n)
                )
                rhs = rhs + term.scale(q3 * ONE_PLUS_B * c).tshift(2)
        rhs = rhs + L(i + j - 3).scale(q3 * U[1] * (3 * (i - j))).tshift(2)
        rhs = rhs + L(i + j - 2).scale(q2 * (i - j)).tshift(1)
        return rhs.tshift(1)

    raise ValueError("unknown model %r" % (model.name,))
