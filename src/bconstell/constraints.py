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
`_structure_terms`, the grouped form over `_grouped_level`, a separate
transcription of the displayed formula.  `_structure_scalars` is the one
reader of the table: it turns sum_l sum_s w t^tpow D^(s)_{ij,l} . target_l
into scalars per (current, l, t power), and `_products_sum` composes them.
The structure form, the simplified `--prop` relations and the D and Dtilde
dumps (composed onto Id) all go through that pair; `_products_sum` sums
each t power in one `sum_grouped`.  The two forms of [L_i, L_j] share
products but not coefficients: each composes p_n . L_l and p_n* . L_l
unscaled through one products dict per sweep, since no product depends on
the pair, and applies its own scalars afterwards.  Every sweep runs through
one pair runner, `_pair_sweep`; every check builds its entries by
`sweep_entry` and derives its ok from them by `sweep_report`.  An index
beyond a built family is the zero operator at the build degree.

For the single-color model with vertex degrees up to 3 the grouped form, as
usually displayed, carries a uniform charge term 3u(i-j)L_{i+j-3}; this is
only correct when min(i,j) >= 2.  The sweeps therefore check both forms and
report pairs where the grouped display deviates, instead of silently
patching either side."""

from collections import namedtuple
from functools import lru_cache, partial

from .coeffring import B, ONE, ONE_PLUS_B, Q, U, add_term, sum_grouped
from .currents import build_A, build_M, esym
from .weyl import EXACT, WeylOp, compose_degree, live_terms


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


BIP = Model("bip", 2, 1)
THREECONST = Model("threeconst", 3, 1)
BIPLE3 = Model("biple3", 1, 3)
MODELS = {m.name: m for m in (BIP, THREECONST, BIPLE3)}
RELATIONS = ("dstruct", "mixed", "pstar")  # the families verify_simplified checks


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


Family = namedtuple("Family", "shift charge levels mode")

# D^(s): shift 1, no charge on J_0, levels 0..3, modes A_l(s)
D_FAMILY = Family(1, None, range(0, 4), lambda s, l, d: build_A(l, s, d))
# Dtilde^(m): shift 3, charge u on J_0, levels 1..3, modes M_l(m)
DTILDE_FAMILY = Family(3, U[1], range(1, 4), lambda m, l, d: build_M(1, m, l, d))


@lru_cache(maxsize=None)
def structure_family(model):
    """The one place that picks a model's structure family: (family, weights).

    family is D_FAMILY or DTILDE_FAMILY; its levels are the levels the
    simplified relations check, and mode(level, l, d) builds A_l(s) or
    M_l(m), zero past l = d + 1 + shift.  weights maps each level with a
    non-zero weight to (t power, scalar).
    """
    if model.r == 1:
        us = model.us()
        weights = {s: (0, esym(model.k - s, us)) for s in range(min(model.k, 3) + 1)}
        return D_FAMILY, weights
    return DTILDE_FAMILY, {m: (m - 1, q) for m, q in model.q_weights().items()}


def _structure_scalars(family, weights, i, j, targets):
    """{(x, l, tpow): c} of sum_l sum_s w t^tpow D^(s)_{ij,l} . targets[l].

    weights maps each level s to (tpow, w).  Each term c * X_x . targets[l]
    is read as in _products_sum: the (1+b) of J_x for x > 0 and the
    family's charge of J_0 (read as Id) are folded into c.
    """
    scalars = {}
    for l in targets:
        for s, (tpow, w) in weights.items():
            for x, c in _structure_terms(s, family.shift, i, j, l):
                if x == 0:
                    if family.charge is None:
                        continue
                    x, c = None, c * family.charge
                elif x is not None and x > 0:
                    c = c * ONE_PLUS_B
                add_term(scalars, (x, l, tpow), w * c)
    return scalars


def _products_sum(scalars, ls, products=None):
    """The sum of c * t^tpow * X_x . L_l over scalars {(x, l, tpow): c}.

    X_x is p_{-x} for x < 0, p_x* for x > 0 and Id for x None.  Each X_x . L_l
    is composed unscaled at most once per products dict (a fresh one when
    None).  Id . L_l is L_l itself: the identity drops no term at any degree,
    so nothing is composed for it.  Each t power is summed in one pass: the
    triples (term coefficient, c, 1) of all its addends are grouped by term
    and summed by sum_grouped, at the least working degree among the
    addends, zero pieces included, as TGradedOp.sum gives.
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

    degrees, groups = {}, {}
    for (x, l, tpow), c in scalars.items():
        for m, op in product(x, l).pieces.items():
            power = m + tpow
            degrees[power] = min(degrees.get(power, EXACT), op.working_degree)
            group = groups.setdefault(power, {})
            for key, v in op.terms.items():
                group.setdefault(key, []).append((v, c, 1))
    pieces = {}
    for power, d in degrees.items():
        pieces[power] = WeylOp._live(sum_grouped(live_terms(groups[power], d)), d)
    return TGradedOp(pieces)


def _structure_level(family, level, i, j, l, working_degree):
    """The family's exact level operator D_{ij,l}, composed onto Id and truncated."""
    if level not in family.levels:
        low, top = family.levels[0], family.levels[-1]
        raise ValueError("level %d is not within %d..%d" % (level, low, top))
    ids = {l: TGradedOp({0: WeylOp.identity()})}
    scalars = _structure_scalars(family, {level: (0, ONE)}, i, j, ids)
    return _products_sum(scalars, ids).piece(0).truncated(working_degree)


def build_D(s, i, j, l, working_degree):
    """Structure operator D^(s)_{ij,l} of the multi-color family (charge 0)."""
    return _structure_level(D_FAMILY, s, i, j, l, working_degree)


def build_Dtilde(m, i, j, l, working_degree):
    """Structure operator Dtilde^(m)_{ij,l} of the single-color family (charge u)."""
    return _structure_level(DTILDE_FAMILY, m, i, j, l, working_degree)


def structure_rhs(model, i, j, ls, products=None):
    """t * sum_l D_{ij,l} . L_l with the l-sum truncated by the support bound.

    The table's scalar, the level weight, the (1+b) of J_x for x > 0 and the
    charge of J_0 are applied after composing; products may be shared with
    explicit_rhs and across pairs.
    """
    family, weights = structure_family(model)
    shifted = {s: (tpow + 1, w) for s, (tpow, w) in weights.items()}
    return _products_sum(_structure_scalars(family, shifted, i, j, ls), ls, products)


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
    and across pairs.
    """
    family, weights = structure_family(model)
    if i == j:
        return TGradedOp.zero()
    scalars = {}
    for level, (tpow, w) in weights.items():
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
            equal = lhs.equal_up_to(rhs, d_check)  # first_mismatch subtracts
            mismatch = None if equal else lhs.first_mismatch(rhs, d_check)
            entry = sweep_entry(dict(label, i=i, j=j), first_mismatch=mismatch)
            if extra is not None:
                entry.update(extra(i, j, lhs))
            if progress is not None:
                progress(entry)
            entries.append(entry)
    return sweep_report(params, entries)


def sweep_entry(coords, **found):
    """coords plus each non-empty field of found; "fail" exactly when one is left."""
    found = {k: v for k, v in found.items() if v}
    return {**coords, "status": "fail" if found else "pass", **found}


def sweep_report(params, entries, key="pairs", **extra):
    """A check's report: ok exactly when every entry has status "pass"."""
    ok = all(entry["status"] == "pass" for entry in entries)
    return {"params": params, key: entries, **extra, "ok": ok}


def verify_commutators(model, i_max, d_check, progress=None):
    """Check [L_i, L_j] against both right-hand sides for all 1 <= i,j <= i_max.

    Returns a report dict; overall status reflects the structure-operator
    identity, with grouped-display deviations listed per pair.  `progress`
    is called with each finished pair entry, so long sweeps can stream.
    """
    if i_max < 1:
        raise ValueError("i_max must be at least 1")
    ls = _build_l_family(model, d_check)
    zero = TGradedOp({0: WeylOp.zero(_build_degree(model, d_check))})

    def lhs_of(i, j):
        return ls.get(i, zero).commutator(ls.get(j, zero))

    # one products dict for the whole sweep, shared by both right-hand sides
    # of every pair: X_x . L_l does not depend on the pair
    products = {}

    def rhs_of(i, j):
        return structure_rhs(model, i, j, ls, products)

    def grouped(i, j, lhs):
        rhs = explicit_rhs(model, i, j, ls, products)
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
        # always null, kept because schema 1 prints it: the comparison is symbolic in b
        "b_eval": None,
    }
    return _pair_sweep(
        params, i_max, d_check, [({}, lhs_of, rhs_of)], extra=grouped, progress=progress
    )


def _family_ops(model, levels, d_check):
    """The model's structure family, its t^0 modes per level and their build degree."""
    family, _ = structure_family(model)
    d_build = _build_degree(model, d_check)
    top = d_build + family.shift + 1
    ops = {
        s: {l: TGradedOp({0: family.mode(s, l, d_build)}) for l in range(1, top + 1)}
        for s in levels
    }
    return family, ops, d_build


def verify_simplified(model, which, levels, i_max, d_check, progress=None):
    """Check one family of simplified commutator relations.

    which: 'dstruct' for the same-level closure, 'mixed' for the
    antisymmetrized mixed-level relation, 'pstar' for the relation against
    the bare derivative operators.
    """
    if which not in RELATIONS:
        raise ValueError("unknown relation family %r" % (which,))
    family, ops, d_build = _family_ops(model, levels, d_check)
    zero = TGradedOp({0: WeylOp.zero(d_build)})

    def op(s, i):
        return ops[s].get(i, zero)

    def pstar(n):
        return TGradedOp({0: WeylOp.p_star(n)})

    # one products dict per family of targets, shared by every pair:
    # X_x . target_l does not depend on the pair
    modes = {s: (ops[s], {}) for s in levels}
    pstars = {s: ({l: pstar(l) for l in ops[s]}, {}) for s in levels}

    def structure_sum(s, i, j, targets):
        tops, products = targets
        scalars = _structure_scalars(family, {s: (0, ONE)}, i, j, tops)
        return _products_sum(scalars, tops, products)

    def lhs_of(s, sp, i, j):
        if which == "dstruct":
            return op(s, i).commutator(op(s, j))
        if which == "mixed":
            return op(s, i).commutator(op(sp, j)) - op(s, j).commutator(op(sp, i))
        return pstar(i).commutator(op(s, j)) - pstar(j).commutator(op(s, i))

    def rhs_of(s, sp, i, j):
        if which == "dstruct":
            return structure_sum(s, i, j, modes[s])
        if which == "mixed":
            return (structure_sum(sp, i, j, modes[s])
                    + structure_sum(s, i, j, modes[sp]))
        return structure_sum(s, i, j, pstars[s])

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
