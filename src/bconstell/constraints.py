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

`structure_family` is the one place that picks a model's family: D^(s)
(shift 1, charge 0, modes A_l(s), weights e_{k-s}(u) at t^0) or Dtilde^(m)
(shift 3, charge u, modes M_l(m), weights q_m at t^(m-1)).  Both forms sum
over its weights: the structure form over the piecewise table
`_structure_terms` (which `_structure_op` also reads), the grouped form over
`_grouped_level`, a separate transcription of the displayed formula.  The
two forms share products but not coefficients: each composes p_n . L_l and
p_n* . L_l unscaled through one products dict per pair and applies its own
scalars afterwards.  Every sweep runs through one pair
runner, `_pair_sweep`, and every check's ok is derived from its entries by
`sweep_report`.  An index beyond a built family is the zero operator.

For the single-color model with vertex degrees up to 3 the grouped form, as
usually displayed, carries a uniform charge term 3u(i-j)L_{i+j-3}; this is
only correct when min(i,j) >= 2.  The sweeps therefore check both forms and
report pairs where the grouped display deviates, instead of silently
patching either side."""

from fractions import Fraction
from collections import namedtuple
from functools import lru_cache, partial

from .coeffring import B, ONE, ONE_PLUS_B, Q, U, add_term
from .currents import build_A, build_M, current, esym
from .weyl import EXACT, WeylOp, compose_degree


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
    """Polynomial in t with WeylOp coefficients.

    ``pieces`` maps each t power to its WeylOp coefficient, zero ones
    included: a zero piece is zero only up to its working degree, so a
    comparison above it raises as the WeylOp one does.  A t power with no
    piece is exactly zero, the WeylOp zero at EXACT.  Sums, products and
    comparisons read every piece as the WeylOp it is.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces=None):
        self.pieces = dict(pieces or {})

    @classmethod
    def zero(cls):
        return cls({})

    def piece(self, m):
        """The t^m piece; an absent power is the exact zero."""
        op = self.pieces.get(m)
        return WeylOp.zero(EXACT) if op is None else op

    def is_zero(self):
        return all(op.is_zero() for op in self.pieces.values())

    @classmethod
    def sum(cls, tops):
        """The sum of tops per t power, at the least working degree of its addends."""
        return cls(WeylOp.sums((m, op) for top in tops for m, op in top.pieces.items()))

    def __add__(self, other):
        return TGradedOp.sum((self, other))

    def __neg__(self):
        return TGradedOp({m: -op for m, op in self.pieces.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return TGradedOp({m: op.scale(c) for m, op in self.pieces.items()})

    def tshift(self, k):
        return TGradedOp({m + k: op for m, op in self.pieces.items()})

    def compose(self, other):
        """self . other per pair of t powers."""
        return TGradedOp(WeylOp.sums(
            (m1 + m2, op1.compose(op2))
            for m1, op1 in self.pieces.items()
            for m2, op2 in other.pieces.items()
        ))

    def commutator(self, other):
        """[self, other]; [A, A] is zero at the degrees of A . A, nothing composed."""
        if other is self:
            return TGradedOp(WeylOp.sums(
                (m1 + m2, WeylOp.zero(compose_degree(op1.working_degree, op2)))
                for m1, op1 in self.pieces.items()
                for m2, op2 in self.pieces.items()
            ))
        return self.compose(other) - other.compose(self)

    def map_coeff(self, fn):
        return TGradedOp({m: op.map_coeff(fn) for m, op in self.pieces.items()})

    def _powers(self, other):
        return sorted({*self.pieces, *other.pieces})

    def equal_up_to(self, other, d):
        for m in self._powers(other):
            if not self.piece(m).equal_up_to(other.piece(m), d):
                return False
        return True

    def first_mismatch(self, other, d):
        """Human-readable first differing term, or None when equal."""
        for m in self._powers(other):
            found = self.piece(m).first_mismatch(other.piece(m), d)
            if found:
                return "t^%d: %s" % (m, found)
        return None

    def to_json_obj(self):
        return {
            str(m): op.to_json_obj()
            for m, op in sorted(self.pieces.items())
            if not op.is_zero()
        }


# -- constraint operators ----------------------------------------------------


def build_L(model, i, working_degree):
    """The constraint L_i = -p_i* + sum_m q_m t^m M^(k,m)_i; zero for i <= 0."""
    if i <= 0:
        return TGradedOp.zero()
    pieces = {0: -WeylOp.p_star(i).truncated(working_degree)}
    for m, q in model.q_weights().items():
        op = pieces[m] = build_M(model.k, m, i, working_degree).scale(q)
        hom = op.homogeneous_degree()
        if hom is not None and hom != m - i:
            raise AssertionError(
                "mode (%d,%d) is not homogeneous of degree %d" % (m, i, m - i)
            )
    return TGradedOp(pieces)


def l_support_bound(model, working_degree):
    """Smallest l beyond which L_l acts as zero at the working degree."""
    return working_degree + model.r + 2


# -- structure operators -----------------------------------------------------


def _sgn(x):
    return (x > 0) - (x < 0)


def _structure_terms(level, shift, i, j, l):
    """The terms (x, c) of the table: c * J_x, or c * Id for x None.

    D^(level)_{ij,l} for shift 1, Dtilde^(level)_{ij,l} for shift 3, whose
    index ranges sit one lower.  Level 2 is (i-j) Id at l = i + j - 1 - low;
    level 3 is c * J_{i+j-shift-l} plus, for l = i + j - shift, a multiple
    of b * Id.
    """
    low = (shift - 1) // 2
    if level <= 1 or i == j:
        return
    if level == 2:
        if l == i + j - 1 - low:
            yield None, i - j
        return
    mu, M = min(i, j), max(i, j)
    coeff = 0
    if l >= M - low:
        coeff += 2 * (i - j)
    if M - low <= l <= i + j - shift:
        coeff += i - j
    if mu - low <= l <= M - 1 - low:
        coeff += _sgn(i - j) * (2 * l - 3 * mu + shift)
    if coeff:
        yield i + j - shift - l, coeff
    if l == i + j - shift:
        yield None, B * ((i - j) * (i + j - 2 - low))


def _structure_op(level, shift, charge, i, j, l):
    """Exact D^(level) (shift 1, no charge) or Dtilde^(level) (shift 3, charge u)."""
    parts = (
        (WeylOp.identity() if x is None else current(x, charge=charge)).scale(c)
        for x, c in _structure_terms(level, shift, i, j, l)
    )
    return WeylOp.sum(parts, EXACT)


def build_D(s, i, j, l, working_degree):
    """Structure operator for the multi-color family (charge 0), 0 <= s <= 3."""
    if not 0 <= s <= 3:
        raise ValueError("s must be within 0..3")
    return _structure_op(s, 1, None, i, j, l).truncated(working_degree)


def build_Dtilde(m, i, j, l, working_degree):
    """Structure operator for the single-color family (charge u), 1 <= m <= 3."""
    if not 1 <= m <= 3:
        raise ValueError("m must be within 1..3")
    return _structure_op(m, 3, U[1], i, j, l).truncated(working_degree)


Family = namedtuple("Family", "shift charge levels weights mode")


@lru_cache(maxsize=None)
def structure_family(model):
    """The one place that picks a model's structure family.

    shift and charge select D^(s) (1, None) or Dtilde^(m) (3, u).  levels
    are the levels the simplified relations check; weights maps each level
    with a non-zero weight to (t power, scalar); mode(level, l, d) builds
    A_l(s) or M_l(m), zero past l = d + 1 + shift.
    """
    if model.r == 1:
        us = model.us()
        weights = {s: (0, esym(model.k - s, us)) for s in range(min(model.k, 3) + 1)}
        return Family(1, None, range(0, 4), weights, lambda s, l, d: build_A(l, s, d))
    weights = {m: (m - 1, q) for m, q in model.q_weights().items()}
    return Family(3, U[1], range(1, 4), weights, lambda m, l, d: build_M(1, m, l, d))


def dsum(family, s, i, j, targets):
    """sum_l D_{ij,l} . targets[l] with the family's level-s operators."""
    structure = (
        (_structure_op(s, family.shift, family.charge, i, j, l), op)
        for l, op in targets.items()
    )
    return WeylOp.sum(
        (dd.compose(op) for dd, op in structure if not dd.is_zero()),
        min(op.working_degree for op in targets.values()),
    )


def _products_sum(scalars, ls, products):
    """The sum of c * t^tpow * X_x . L_l over scalars {(x, l, tpow): c}.

    X_x is p_{-x} for x < 0, p_x* for x > 0 and Id for x None.  Each X_x . L_l
    is composed unscaled at most once per products dict (a fresh one when
    None) and scaled once per t power.  Id . L_l is L_l itself: the identity
    drops no term at any degree, so nothing is composed for it.
    """
    if products is None:
        products = {}

    def product(x, l):
        if x is None:
            return ls[l]
        top = products.get((x, l))
        if top is None:
            factor = WeylOp.p(-x) if x < 0 else WeylOp.p_star(x)
            top = products[x, l] = TGradedOp({0: factor}).compose(ls[l])
        return top

    return TGradedOp.sum(
        product(x, l).scale(c).tshift(tpow) for (x, l, tpow), c in scalars.items()
    )


def structure_rhs(model, i, j, ls, products=None):
    """t * sum_l D_{ij,l} . L_l with the l-sum truncated by the support bound.

    The table's scalar, the level weight, the (1+b) of J_x for x > 0 and the
    charge of J_0 are applied after composing; products may be shared with
    explicit_rhs for the same pair.
    """
    family = structure_family(model)
    scalars = {}
    for l in ls:
        for s, (tpow, w) in family.weights.items():
            for x, c in _structure_terms(s, family.shift, i, j, l):
                if x == 0:
                    if family.charge is None:
                        continue
                    x, c = None, c * family.charge
                elif x is not None and x > 0:
                    c = c * ONE_PLUS_B
                add_term(scalars, (x, l, tpow + 1), w * c)
    return _products_sum(scalars, ls, products)


def _grouped_level(level, family, i, j, l_top):
    """The terms (x, l, c) of one level of the grouped display of [L_i, L_j].

    Each term is c * X_x . L_l, X_x being p_{-x} for x < 0, p_x* for x > 0
    and Id for x None, for every l up to l_top.  Level 2 is (i-j)
    L_{i+j-1-low}.  Level 3 is the sum over p_n, the b * Id term, the two
    ranges over p_n* (split at n = min(i,j) - low) and, for the charge-u
    family only, the uniform charge term 3u(i-j) L_{i+j-shift}.
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
        yield -n, base + n, 2 * (i - j)
    for n in range(1, M - low):
        c = 3 * (i - j) if n < mu - low else _sgn(i - j) * (2 * M - 2 * n - mu - shift)
        if c:
            yield n, base - n, ONE_PLUS_B * c
    if family.charge is not None:
        yield None, base, family.charge * (3 * (i - j))


def explicit_rhs(model, i, j, ls, products=None):
    """The grouped closed form of [L_i, L_j] as usually displayed.

    Its coefficients are its own; products may be shared with structure_rhs
    for the same pair.
    """
    family = structure_family(model)
    if i == j:
        return TGradedOp.zero()
    scalars = {}
    for level, (tpow, w) in family.weights.items():
        for x, l, c in _grouped_level(level, family, i, j, max(ls)):
            if l in ls:
                add_term(scalars, (x, l, tpow + 1), w * c)
    return _products_sum(scalars, ls, products)


# -- verification sweeps -----------------------------------------------------


def _build_degree(model, d_check):
    """d_check plus the composition headroom: the degree the operators are built at."""
    return d_check + model.headroom()


def _build_l_family(model, d_check):
    """All L_l up to the support bound, with composition headroom built in."""
    d_build = _build_degree(model, d_check)
    ls = {}
    for l in range(1, l_support_bound(model, d_build) + 1):
        op = build_L(model, l, d_build)
        if not op.is_zero():
            ls[l] = op
    return ls


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
    ls = _build_l_family(model, d_check)
    subs = {"b": Fraction(b_eval)} if b_eval is not None else None
    zero = TGradedOp.zero()

    def post(op):
        return op.map_coeff(lambda c: c.subs(subs)) if subs else op

    def lhs_of(i, j):
        return post(ls.get(i, zero).commutator(ls.get(j, zero)))

    # one set of products per ordered pair, shared by its two right-hand
    # sides: rhs_of(i, j) starts it and grouped(i, j, lhs) follows
    products = {}

    def rhs_of(i, j):
        products.clear()
        return post(structure_rhs(model, i, j, ls, products))

    def grouped(i, j, lhs):
        rhs = post(explicit_rhs(model, i, j, ls, products))
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
    """The model's structure family, its modes per level and their build degree."""
    family = structure_family(model)
    d_build = _build_degree(model, d_check)
    top = d_build + family.shift + 1
    ops = {
        s: {l: family.mode(s, l, d_build) for l in range(1, top + 1)} for s in levels
    }
    return family, ops, d_build


def verify_simplified(model, which, levels, i_max, d_check, progress=None):
    """Check one family of simplified commutator relations.

    which: 'dstruct' for the same-level closure, 'mixed' for the
    antisymmetrized mixed-level relation, 'pstar' for the relation against
    the bare derivative operators.
    """
    if which not in ("dstruct", "mixed", "pstar"):
        raise ValueError("unknown relation family %r" % (which,))
    family, ops, d_build = _family_ops(model, levels, d_check)
    zero = WeylOp.zero(d_build)

    def op(s, i):
        return ops[s].get(i, zero)

    def lhs_of(s, sp, i, j):
        if which == "dstruct":
            out = op(s, i).commutator(op(s, j))
        elif which == "mixed":
            out = op(s, i).commutator(op(sp, j)) - op(s, j).commutator(op(sp, i))
        else:
            out = (WeylOp.p_star(i).commutator(op(s, j))
                   - WeylOp.p_star(j).commutator(op(s, i)))
        return TGradedOp({0: out})

    def rhs_of(s, sp, i, j):
        if which == "dstruct":
            out = dsum(family, s, i, j, ops[s])
        elif which == "mixed":
            out = dsum(family, sp, i, j, ops[s]) + dsum(family, s, i, j, ops[sp])
        else:
            out = dsum(family, s, i, j, {l: WeylOp.p_star(l) for l in ops[s]})
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
