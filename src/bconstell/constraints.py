"""Constraint operators for the three models and their commutator algebras.

Each model owns a family of constraints L_i, polynomial in the size
parameter t with WeylOp coefficients.  The t^0 piece is always -p_i* and the
t^m piece is q_m times the level-m mode operator, so the t^m piece is
homogeneous of operator degree m - i.

Two right-hand sides are materialized for [L_i, L_j]:

* the structure-operator form t * sum_l D_{ij,l} L_l, built from the
  operator-valued structure coefficients; this is the form the constraint
  extraction argument needs and it is the authoritative one;
* the explicit grouped form, with the infinite sums truncated by the
  minimal-annihilation-degree rule.

D^(s) (charge 0) and Dtilde^(m) (charge u) are one piecewise table,
`_structure_op`, up to the index shift.  Every sweep runs through one pair
runner, `_pair_sweep`, and every check's ok is derived from its entries by
`sweep_report`.  An index beyond a built family is the zero operator.

For the single-color model with vertex degrees up to 3 the grouped form, as
usually displayed, carries a uniform charge term 3u(i-j)L_{i+j-3}; this is
only correct when min(i,j) >= 2.  The sweeps therefore check both forms and
report pairs where the grouped display deviates, instead of silently
patching either side.
"""

from fractions import Fraction
from functools import partial

from .coeffring import Coeff, B, ONE, ONE_PLUS_B, Q, U
from .currents import build_A, build_M, current, esym
from .weyl import WeylOp


class Model:
    """One of the three supported constellation models."""

    __slots__ = ("name", "k", "r")

    def __init__(self, name, k, r):
        self.name = name
        self.k = k
        self.r = r

    def q_weights(self):
        """Vertex-degree weights q_m: symbolic for r = 3, else q_m = [m == 1]."""
        if self.r == 1:
            return {1: ONE}
        return {m: Q[m] for m in range(1, self.r + 1)}

    def headroom(self):
        """Composition headroom: largest positive operator degree of an L piece."""
        return self.r - 1

    def us(self):
        return [U[c] for c in range(1, self.k + 1)]

    def __repr__(self):
        return "Model(%r, k=%d, r=%d)" % (self.name, self.k, self.r)


BIP = Model("bip", 2, 1)
THREECONST = Model("threeconst", 3, 1)
BIPLE3 = Model("biple3", 1, 3)
MODELS = {m.name: m for m in (BIP, THREECONST, BIPLE3)}


class TGradedOp:
    """Polynomial in t with WeylOp coefficients."""

    __slots__ = ("pieces",)

    def __init__(self, pieces=None):
        self.pieces = {m: op for m, op in (pieces or {}).items() if not op.is_zero()}

    @classmethod
    def zero(cls):
        return cls({})

    def piece(self, m, working_degree):
        return self.pieces.get(m, WeylOp.zero(working_degree))

    def __add__(self, other):
        out = dict(self.pieces)
        for m, op in other.pieces.items():
            out[m] = out[m] + op if m in out else op
        return TGradedOp(out)

    def __neg__(self):
        return TGradedOp({m: -op for m, op in self.pieces.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return TGradedOp({m: op.scale(c) for m, op in self.pieces.items()})

    def tshift(self, k):
        return TGradedOp({m + k: op for m, op in self.pieces.items()})

    def compose(self, other):
        out = {}
        for m1, op1 in self.pieces.items():
            for m2, op2 in other.pieces.items():
                prod = op1.compose(op2)
                m = m1 + m2
                out[m] = out[m] + prod if m in out else prod
        return TGradedOp(out)

    def commutator(self, other):
        return self.compose(other) - other.compose(self)

    def map_coeff(self, fn):
        return TGradedOp({m: op.map_coeff(fn) for m, op in self.pieces.items()})

    def equal_up_to(self, other, d):
        for m in set(self.pieces) | set(other.pieces):
            a = self.piece(m, d)
            b = other.piece(m, d)
            if not a.equal_up_to(b, d):
                return False
        return True

    def first_mismatch(self, other, d):
        """Human-readable first differing term, or None when equal."""
        for m in sorted(set(self.pieces) | set(other.pieces)):
            found = self.piece(m, d).first_mismatch(other.piece(m, d), d)
            if found:
                return "t^%d: %s" % (m, found)
        return None

    def to_json_obj(self):
        return {str(m): op.to_json_obj() for m, op in sorted(self.pieces.items())}


# -- constraint operators ----------------------------------------------------


def build_L(model, i, working_degree):
    """The constraint L_i = -p_i* + sum_m q_m t^m M^(k,m)_i; zero for i <= 0."""
    if i <= 0:
        return TGradedOp.zero()
    pieces = {0: -WeylOp.p_star(i, working_degree)}
    for m, q in model.q_weights().items():
        op = build_M(model.k, m, i, working_degree).scale(q)
        if not op.is_zero():
            hom = op.homogeneous_degree()
            if hom is not None and hom != m - i:
                raise AssertionError(
                    "mode (%d,%d) is not homogeneous of degree %d" % (m, i, m - i)
                )
            pieces[m] = op
    return TGradedOp(pieces)


def l_support_bound(model, working_degree):
    """Smallest l beyond which L_l acts as zero at the working degree."""
    return working_degree + model.r + 2


# -- structure operators -----------------------------------------------------


def _sgn(x):
    return (x > 0) - (x < 0)


def _structure_op(level, shift, charge, i, j, l, working_degree):
    """D^(level) for shift 1 and charge None, Dtilde^(level) for shift 3 and charge u.

    The charge-u index ranges sit one lower.  Level 3 is c * J_{i+j-shift-l}
    plus, for l = i + j - shift, a multiple of b * Id.
    """
    d = working_degree
    low = (shift - 1) // 2
    if level <= 1 or i == j:
        return WeylOp.zero(d)
    if level == 2:
        if l == i + j - 1 - low:
            return WeylOp.identity(d).scale(Coeff.from_rational(i - j))
        return WeylOp.zero(d)
    mu, M = min(i, j), max(i, j)
    coeff = 0
    if l >= M - low:
        coeff += 2 * (i - j)
    if M - low <= l <= i + j - shift:
        coeff += i - j
    if mu - low <= l <= M - 1 - low:
        coeff += _sgn(i - j) * (2 * l - 3 * mu + shift)
    out = WeylOp.zero(d)
    if coeff:
        cur = current(i + j - shift - l, d, charge=charge)
        out = out + cur.scale(Coeff.from_rational(coeff))
    if l == i + j - shift:
        out = out + WeylOp.identity(d).scale(B * ((i - j) * (i + j - 2 - low)))
    return out


def build_D(s, i, j, l, working_degree):
    """Structure operator for the multi-color family (charge 0), 0 <= s <= 3."""
    if not 0 <= s <= 3:
        raise ValueError("s must be within 0..3")
    return _structure_op(s, 1, None, i, j, l, working_degree)


def build_Dtilde(m, i, j, l, working_degree):
    """Structure operator for the single-color family (charge u), 1 <= m <= 3."""
    if not 1 <= m <= 3:
        raise ValueError("m must be within 1..3")
    return _structure_op(m, 3, U[1], i, j, l, working_degree)


def dsum(dfun, s, i, j, targets, d_outer):
    """sum_l dfun(s, i, j, l) . targets[l], the structure operators at d_outer."""
    acc = WeylOp.zero(min(op.working_degree for op in targets.values()))
    for l, op in targets.items():
        dd = dfun(s, i, j, l, d_outer)
        if not dd.is_zero():
            acc = acc + dd.compose(op)
    return acc


def structure_coefficient(model, i, j, l, working_degree):
    """The model's t-graded structure operator in front of L_l."""
    if model.r == 1:
        us = model.us()
        op = WeylOp.zero(working_degree)
        for s in range(model.k + 1):
            ds = build_D(s, i, j, l, working_degree)
            if not ds.is_zero():
                op = op + ds.scale(esym(model.k - s, us))
        return TGradedOp({0: op})
    qs = model.q_weights()
    pieces = {}
    for m in range(1, model.r + 1):
        dm = build_Dtilde(m, i, j, l, working_degree).scale(qs[m])
        if not dm.is_zero():
            pieces[m - 1] = dm
    return TGradedOp(pieces)


def structure_rhs(model, i, j, ls, d_outer):
    """t * sum_l D_{ij,l} . L_l with the l-sum truncated by the support bound."""
    rhs = TGradedOp.zero()
    for l, L_l in ls.items():
        coeff = structure_coefficient(model, i, j, l, d_outer)
        if coeff.pieces:
            rhs = rhs + coeff.compose(L_l)
    return rhs.tshift(1)


def explicit_rhs(model, i, j, ls, working_degree, d_outer):
    """The grouped closed form of [L_i, L_j] as usually displayed."""
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


# -- verification sweeps -----------------------------------------------------


def _build_l_family(model, d_check):
    """All L_l up to the support bound, with composition headroom built in."""
    h = model.headroom()
    d_build = d_check + h
    d_outer = d_build + h
    ls = {}
    for l in range(1, l_support_bound(model, d_build) + 1):
        op = build_L(model, l, d_build)
        if op.pieces:
            ls[l] = op
    return ls, d_build, d_outer


def _antisymmetric_sweep(i_max, build):
    """Yield (i, j, build(i, j)) for 1 <= i, j <= i_max, i outer, j inner.

    `build` must be antisymmetric, as every commutator sweep is:
    build(j, i) == -build(i, j).  It is called only for i <= j; the
    negation is held until the pair (j, i) comes up, so at most
    C(i_max, 2) results are held at once.
    """
    later = {}
    for i in range(1, i_max + 1):
        for j in range(1, i_max + 1):
            if i > j:
                yield i, j, later.pop((i, j))
                continue
            lhs = build(i, j)
            if i < j:
                later[j, i] = -lhs
            yield i, j, lhs


def _pair_sweep(params, i_max, d_check, relations, extra=None, progress=None):
    """Report on lhs_of(i, j) == rhs_of(i, j) at degree <= d_check.

    relations lists (label, lhs_of, rhs_of) with an antisymmetric lhs_of;
    each gives one entry per ordered pair, i outer and j inner, that is
    streamed to `progress`.  extra(i, j, lhs) adds fields to an entry.
    """
    entries = []
    for label, lhs_of, rhs_of in relations:
        for i, j, lhs in _antisymmetric_sweep(i_max, lhs_of):
            rhs = rhs_of(i, j)
            entry = dict(label, i=i, j=j, status="pass")
            if not lhs.equal_up_to(rhs, d_check):
                entry["status"] = "fail"
                entry["first_mismatch"] = lhs.first_mismatch(rhs, d_check)
            if extra is not None:
                entry.update(extra(i, j, lhs))
            if progress is not None:
                progress(entry)
            entries.append(entry)
    return sweep_report(params, entries)


def sweep_report(params, entries, key="pairs", **extra):
    """A check's report: ok exactly when every entry has status "pass"."""
    ok = all(entry["status"] == "pass" for entry in entries)
    return {"params": params, key: entries, **extra, "ok": ok}


def verify_commutators(model, i_max, d_check, b_eval=None, progress=None):
    """Check [L_i, L_j] against both right-hand sides for all 1 <= i,j <= i_max.

    Returns a report dict; overall status reflects the structure-operator
    identity, with grouped-display deviations listed per pair.  `progress`
    is called with each finished pair entry, so long sweeps can stream.
    """
    if i_max < 1:
        raise ValueError("i_max must be at least 1")
    ls, d_build, d_outer = _build_l_family(model, d_check)
    subs = {"b": Fraction(b_eval)} if b_eval is not None else None
    zero = TGradedOp.zero()

    def post(op):
        return op.map_coeff(lambda c: c.subs(subs)) if subs else op

    def lhs_of(i, j):
        return post(ls.get(i, zero).commutator(ls.get(j, zero)))

    def rhs_of(i, j):
        return post(structure_rhs(model, i, j, ls, d_outer))

    def grouped(i, j, lhs):
        rhs = post(explicit_rhs(model, i, j, ls, d_build, d_outer))
        if lhs.equal_up_to(rhs, d_check):
            return {}
        return {
            "explicit_form": "deviates",
            "explicit_first_mismatch": lhs.first_mismatch(rhs, d_check),
        }

    params = {
        "model": model.name,
        "imax": i_max,
        "degree": d_check,
        "b_eval": None if b_eval is None else str(b_eval),
    }
    return _pair_sweep(
        params, i_max, d_check, [({}, lhs_of, rhs_of)], extra=grouped, progress=progress
    )


def _family_ops(model, levels, d_check):
    """Mode families entering the simplified commutator relations."""
    h = model.headroom()
    d_build = d_check + h
    d_outer = d_build + h
    ops = {}
    if model.r == 1:
        top = d_build + 2
        for s in levels:
            ops[s] = {l: build_A(l, s, d_build) for l in range(1, top + 1)}
        dfun = build_D
    else:
        top = d_build + 4
        for m in levels:
            ops[m] = {l: build_M(1, m, l, d_build) for l in range(1, top + 1)}
        dfun = build_Dtilde
    return ops, dfun, d_outer


def verify_simplified(model, which, levels, i_max, d_check, progress=None):
    """Check one family of simplified commutator relations.

    which: 'dstruct' for the same-level closure, 'mixed' for the
    antisymmetrized mixed-level relation, 'pstar' for the relation against
    the bare derivative operators.
    """
    if which not in ("dstruct", "mixed", "pstar"):
        raise ValueError("unknown relation family %r" % (which,))
    ops, dfun, d_outer = _family_ops(model, levels, d_check)
    zero = WeylOp.zero(d_check + model.headroom())

    def op(s, i):
        return ops[s].get(i, zero)

    def lhs_of(s, sp, i, j):
        if which == "dstruct":
            out = op(s, i).commutator(op(s, j))
        elif which == "mixed":
            out = op(s, i).commutator(op(sp, j)) - op(s, j).commutator(op(sp, i))
        else:
            out = WeylOp.p_star(i, d_outer).commutator(op(s, j)) - WeylOp.p_star(
                j, d_outer
            ).commutator(op(s, i))
        return TGradedOp({0: out})

    def rhs_of(s, sp, i, j):
        if which == "dstruct":
            out = dsum(dfun, s, i, j, ops[s], d_outer)
        elif which == "mixed":
            out = dsum(dfun, sp, i, j, ops[s], d_outer) + dsum(
                dfun, s, i, j, ops[sp], d_outer
            )
        else:
            pstars = {l: WeylOp.p_star(l, d_outer + 2) for l in ops[s]}
            out = dsum(dfun, s, i, j, pstars, d_outer)
        return TGradedOp({0: out})

    if which == "mixed":
        combos = [({"level": s, "level2": sp}, s, sp) for s in levels for sp in levels]
    else:
        combos = [({"level": s}, s, s) for s in levels]
    relations = [
        (label, partial(lhs_of, s, sp), partial(rhs_of, s, sp))
        for label, s, sp in combos
    ]
    params = {
        "model": model.name,
        "relation": which,
        "levels": list(levels),
        "imax": i_max,
        "degree": d_check,
    }
    return _pair_sweep(params, i_max, d_check, relations, progress=progress)


def final_commutator_rhs(model, i, j, ops, d_outer):
    """The standalone top-level commutator: sum_l D^(3)_{ij,l} . ops[l].

    The single-color model uses Dtilde^(3) in place of D^(3).
    """
    dfun = build_D if model.r == 1 else build_Dtilde
    return dsum(dfun, 3, i, j, ops, d_outer)


def verify_final_commutator(model, i_max, d_check):
    """Check the top-level commutator [A_i(3), A_j(3)] for all pairs up to i_max.

    The single-color model uses its level-3 modes M_i(3).
    """
    families, _, d_outer = _family_ops(model, [3], d_check)
    ops = families[3]
    zero = WeylOp.zero(d_check + model.headroom())

    def lhs_of(i, j):
        return ops.get(i, zero).commutator(ops.get(j, zero))

    def rhs_of(i, j):
        return final_commutator_rhs(model, i, j, ops, d_outer)

    params = {"model": model.name, "imax": i_max, "degree": d_check}
    return _pair_sweep(params, i_max, d_check, [({}, lhs_of, rhs_of)])
