"""Reference structure operators, kept for tests only.

These are the three hand-written copies of the piecewise structure
coefficient that ``bconstell.constraints`` now derives from one table:
``build_D`` (charge 0), ``build_Dtilde`` (charge u) and the grouped
top-level commutator ``final_commutator_rhs``, which the level-3 relation
composes from the table's scalars.  The shared table must give the same
terms and the same working degree.  ``explicit_rhs`` is the grouped display
written out once per model, which ``constraints.explicit_rhs`` now sums
level by level from the model's structure family.

``structure_coefficient``, ``structure_rhs``, ``summed_explicit_rhs`` and its
``_grouped_level`` are the level-by-level sums as they stood before the two
right-hand sides shared their products: each form composes its own scaled
factors with every L_l, and the structure form composes the scalar parts of
its coefficients too.  Their table is read from ``build_D`` and
``build_Dtilde`` above; the family choice is the engine's one place.

The references build their currents (``refcurrents.current``) and their
p_n, p_n* factors at a finite working degree, the factors at
``outer_degree`` (the check degree plus twice the headroom); the engine
builds all of them exact, and both must give the same terms and degrees.
"""

from fractions import Fraction

from bconstell.coeffring import B, Coeff, ONE_PLUS_B, Q, U
from bconstell.constraints import TGradedOp, structure_family
from bconstell.weyl import WeylOp


def scale(top, c):
    """c times the TGradedOp top."""
    return TGradedOp({m: op.scale(c) for m, op in top.pieces.items()})


def tshift(top, k):
    """t^k times the TGradedOp top."""
    return TGradedOp({m + k: op for m, op in top.pieces.items()})

from refcurrents import current


def identity(d):
    return WeylOp.identity().truncated(d)


def outer_degree(model, d_check):
    """d_check plus twice the headroom: the degree the references compose factors at."""
    return d_check + 2 * model.headroom()


def _sgn(x):
    return (x > 0) - (x < 0)


def live_pieces(top):
    """The non-zero pieces of a TGradedOp.

    The references compose products that the engine skips, such as those
    scaled by zero, so their zero pieces may sit at other working degrees.
    """
    return {m: op for m, op in top.pieces.items() if not op.is_zero()}


def build_D(s, i, j, l, working_degree):
    """Structure operator for the multi-color family (charge 0), 0 <= s <= 3."""
    if not 0 <= s <= 3:
        raise ValueError("s must be within 0..3")
    d = working_degree
    if s <= 1 or i == j:
        return WeylOp.zero(d)
    if s == 2:
        if l == i + j - 1:
            return identity(d).scale(Coeff.from_rational(i - j))
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
        out = out + identity(d).scale(B * ((i - j) * (i + j - 2)))
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
            return identity(d).scale(Coeff.from_rational(i - j))
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
        out = out + identity(d).scale(B * ((i - j) * (i + j - 3)))
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

    def p(n):
        return TGradedOp({0: WeylOp.p(n).truncated(d_outer)})

    def p_star(n):
        return TGradedOp({0: WeylOp.p_star(n).truncated(d_outer)})

    if model.name == "bip":
        return tshift(scale(L(i + j - 1), Coeff.from_rational(i - j)), 1)

    if model.name == "threeconst":
        rhs = TGradedOp.zero()
        for n in range(1, max(ls) - (i + j - 1) + 1):
            if i + j + n - 1 not in ls:
                continue
            term = p(n).compose(L(i + j + n - 1))
            rhs = rhs + scale(term, Coeff.from_rational(2 * (i - j)))
        rhs = rhs + scale(L(i + j - 1), B * ((i - j) * (i + j - 2)))
        for n in range(1, mu):
            term = p_star(n).compose(L(i + j - 1 - n))
            rhs = rhs + scale(term, ONE_PLUS_B * (3 * (i - j)))
        for n in range(mu, M):
            c = _sgn(i - j) * (2 * M - 2 * n - mu - 1)
            if c:
                term = p_star(n).compose(L(i + j - 1 - n))
                rhs = rhs + scale(term, ONE_PLUS_B * c)
        rhs = rhs + scale(L(i + j - 1), (U[1] + U[2] + U[3]) * (i - j))
        return tshift(rhs, 1)

    if model.name == "biple3":
        q2, q3 = Q[2], Q[3]
        rhs = TGradedOp.zero()
        for n in range(1, max(ls) - (i + j - 3) + 1):
            l = i + j + n - 3
            if l not in ls:
                continue
            term = p(n).compose(L(l))
            rhs = rhs + tshift(scale(term, q3 * (2 * (i - j))), 2)
        rhs = rhs + tshift(scale(L(i + j - 3), q3 * B * ((i - j) * (i + j - 3))), 2)
        for n in range(1, mu - 1):
            term = p_star(n).compose(L(i + j - 3 - n))
            rhs = rhs + tshift(scale(term, q3 * ONE_PLUS_B * (3 * (i - j))), 2)
        for n in range(max(mu - 1, 1), M - 1):
            c = _sgn(i - j) * (2 * M - 2 * n - mu - 3)
            if c:
                term = p_star(n).compose(L(i + j - 3 - n))
                rhs = rhs + tshift(scale(term, q3 * ONE_PLUS_B * c), 2)
        rhs = rhs + tshift(scale(L(i + j - 3), q3 * U[1] * (3 * (i - j))), 2)
        rhs = rhs + tshift(scale(L(i + j - 2), q2 * (i - j)), 1)
        return tshift(rhs, 1)

    raise ValueError("unknown model %r" % (model.name,))


def _structure_op(level, shift, charge, i, j, l, working_degree):
    """The reference table for D^(level) (shift 1) or Dtilde^(level) (shift 3)."""
    build = build_D if shift == 1 else build_Dtilde
    return build(level, i, j, l, working_degree)


def structure_coefficient(model, i, j, l, working_degree):
    """The model's t-graded structure operator in front of L_l."""
    family, weights = structure_family(model)
    shift, charge = family.shift, family.charge
    ops = (
        (tpow, _structure_op(s, shift, charge, i, j, l, working_degree).scale(w))
        for s, (tpow, w) in weights.items()
    )
    return TGradedOp(WeylOp.sums(ops))


def structure_rhs(model, i, j, ls, d_outer):
    """t * sum_l D_{ij,l} . L_l with the l-sum truncated by the support bound."""
    return tshift(TGradedOp.sum(
        structure_coefficient(model, i, j, l, d_outer).compose(L_l)
        for l, L_l in ls.items()
    ), 1)


def _grouped_level(level, family, i, j, l_top, d_outer):
    """The terms (factor, l, c) of one level of the grouped display of [L_i, L_j].

    Each term is c * factor . L_l, factor None standing for Id, for every l
    up to l_top.  Level 2 is (i-j) L_{i+j-1-low}.  Level 3 is the sum over
    p_n, the b * Id term, the two ranges over p_n* (split at n = min(i,j) -
    low) and, for the charge-u family only, the uniform charge term
    3u(i-j) L_{i+j-shift}.
    """
    shift = family.shift
    low = (shift - 1) // 2
    if level == 2:
        yield None, i + j - 1 - low, i - j
    if level != 3:
        return
    mu, M = min(i, j), max(i, j)
    base = i + j - shift
    yield None, base, B * ((i - j) * (i + j - 2 - low))
    for n in range(1, l_top - base + 1):
        yield WeylOp.p(n).truncated(d_outer), base + n, 2 * (i - j)
    for n in range(1, M - low):
        c = 3 * (i - j) if n < mu - low else _sgn(i - j) * (2 * M - 2 * n - mu - shift)
        if c:
            yield WeylOp.p_star(n).truncated(d_outer), base - n, ONE_PLUS_B * c
    if family.charge is not None:
        yield None, base, family.charge * (3 * (i - j))


def summed_explicit_rhs(model, i, j, ls, d_outer):
    """The grouped closed form of [L_i, L_j] as usually displayed."""
    family, weights = structure_family(model)
    if i == j:
        return TGradedOp.zero()

    def terms():
        for level, (tpow, w) in weights.items():
            for factor, l, c in _grouped_level(level, family, i, j, max(ls), d_outer):
                if l in ls:
                    op = ls[l] if factor is None else TGradedOp({0: factor}).compose(ls[l])
                    yield tshift(scale(op, w * c), tpow + 1)

    return TGradedOp.sum(terms())
