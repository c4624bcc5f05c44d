"""Deformed Heisenberg currents and the catalytic-variable mode constructors.

The current J_i is p_{-i} for i < 0, (1+b) p_i* for i > 0 and charge * Id
for i = 0; the currents satisfy [J_i, J_j] = (1+b) i delta_{i,-j}.

Mode operators are built two independent ways:

* the y-formalism: an operator-valued vector indexed by the degree of a
  marked face evolves under the shift Y_+ and the transfer operator
  Lambda_Y, and the modes are its entries;
* index recursions that express a level in terms of the previous one.

Both routes must agree exactly; the test suite and the verification sweeps
enforce this.
"""

from functools import lru_cache

from .coeffring import Coeff, B, INV_1PB, ONE_PLUS_B, U, ZERO
from .weyl import WeylOp


def current(i, working_degree, charge=None):
    """The current J_i at the given working degree."""
    if i < 0:
        return WeylOp.p(-i, working_degree)
    if i > 0:
        return WeylOp.p_star(i, working_degree, ONE_PLUS_B)
    return WeylOp.scalar(charge if charge is not None else ZERO, working_degree)


class YVector:
    """Finitely supported vector of WeylOps indexed by the marked degree j >= 0.

    All entries share one working degree.  Entries that act as zero within
    the truncation contract are not stored.
    """

    __slots__ = ("entries", "working_degree")

    def __init__(self, entries, working_degree):
        self.entries = {j: op for j, op in entries.items() if not op.is_zero()}
        self.working_degree = working_degree

    @classmethod
    def seed(cls, working_degree):
        """The start state: Id/(1+b) at marked degree 0."""
        return cls({0: WeylOp.scalar(INV_1PB, working_degree)}, working_degree)

    @classmethod
    def zero(cls, working_degree):
        return cls({}, working_degree)

    def entry(self, j):
        return self.entries.get(j, WeylOp.zero(self.working_degree))

    def y_plus(self):
        """Shift the marked degree up by one; nothing lands at degree 0."""
        return YVector(
            {j + 1: op for j, op in self.entries.items()}, self.working_degree
        )

    def lambda_y(self, shift=None, charge=None):
        """Apply the transfer operator, optionally shifted by a scalar.

        Entry m of the result collects J_{m-j} composed onto entry j for
        every stored j, plus (b*m + shift) times entry m.  The sum over
        currents is finite: annihilating currents beyond the working degree
        act as zero there and are skipped.
        """
        d = self.working_degree
        out = {}

        def accumulate(m, op):
            if op.is_zero():
                return
            prev = out.get(m)
            out[m] = op if prev is None else prev + op

        for j, op in self.entries.items():
            j_budget = d + op.max_jump()
            for delta in range(-j, j_budget + 1):
                if delta == 0 and (charge is None or charge.is_zero()):
                    continue
                cur = current(delta, j_budget, charge)
                if cur.is_zero():
                    continue
                accumulate(j + delta, cur.compose(op))
        for m, op in self.entries.items():
            c = B * m if shift is None else B * m + shift
            if c:
                accumulate(m, op.scale(c))
        return YVector(out, d)


# -- mode operators --------------------------------------------------------
# Caches are lru_cache-backed: safe to share across threads, results are
# immutable.


@lru_cache(maxsize=None)
def _a_state(s, working_degree):
    """The y-state after s transfer steps from the seed (charge 0)."""
    if s == 0:
        return YVector.seed(working_degree)
    return _a_state(s - 1, working_degree).lambda_y()


@lru_cache(maxsize=None)
def _m_state(k, m, working_degree):
    """The y-state after m rounds of the k-factor transfer followed by Y_+.

    For k >= 2 the charge is zero and the factors are shifted by u_1..u_k;
    for k = 1 the single factor carries charge u instead.
    """
    if m == 0:
        return YVector.seed(working_degree)
    v = _m_state(k, m - 1, working_degree)
    if k == 1:
        v = v.lambda_y(charge=U[1])
    else:
        for c in range(1, k + 1):
            v = v.lambda_y(shift=U[c])
    return v.y_plus()


def build_A_y(i, s, working_degree):
    """A_i(s) read off the y-state: entry i of Y_+ applied to the s-step state."""
    if i < 1 or s < 0:
        raise ValueError("build_A requires i >= 1 and s >= 0")
    return _a_state(s, working_degree).y_plus().entry(i)


@lru_cache(maxsize=None)
def _a_rec_level(s, working_degree):
    """All A_i(s) for 1 <= i <= working_degree + 2 via the index recursion."""
    d = working_degree
    top = d + 2
    if s == 0:
        return {1: WeylOp.scalar(INV_1PB, d)}
    prev = _a_rec_level(s - 1, d)
    level = {}
    for i in range(1, top + 1):
        acc = WeylOp.zero(d)
        for n, a_n in prev.items():
            cur = current(i - n, d + a_n.max_jump())
            if cur.is_zero():
                continue
            acc = acc + cur.compose(a_n)
        if i in prev:
            acc = acc + prev[i].scale(B * (i - 1))
        if not acc.is_zero():
            level[i] = acc
    return level


def build_A_rec(i, s, working_degree):
    if i < 1 or s < 0:
        raise ValueError("build_A requires i >= 1 and s >= 0")
    level = _a_rec_level(s, working_degree)
    return level.get(i, WeylOp.zero(working_degree))


def build_A(i, s, working_degree, route="rec"):
    """A_i(s), homogeneous of operator degree -(i-1)."""
    if route == "rec":
        return build_A_rec(i, s, working_degree)
    if route == "y":
        return build_A_y(i, s, working_degree)
    raise ValueError("unknown route %r" % (route,))


@lru_cache(maxsize=None)
def _m1_rec_level(m, working_degree):
    """All single-color modes at level m via the charge-u recursion."""
    d = working_degree
    top = d + m + 1
    if m == 1:
        level = {}
        for i in range(1, top + 1):
            op = current(i - 1, d, charge=U[1]).scale(INV_1PB)
            if not op.is_zero():
                level[i] = op
        return level
    prev = _m1_rec_level(m - 1, d)
    level = {}
    for i in range(1, top + 1):
        acc = WeylOp.zero(d)
        for n, m_n in prev.items():
            cur = current(i - n - 1, d + m_n.max_jump(), charge=U[1])
            if cur.is_zero():
                continue
            acc = acc + cur.compose(m_n)
        if i - 1 in prev:
            acc = acc + prev[i - 1].scale(B * (i - 1))
        if not acc.is_zero():
            level[i] = acc
    return level


def build_M_rec(m, i, working_degree):
    """Single-color mode via the recursion route (k = 1 only)."""
    if m < 1 or i < 1:
        raise ValueError("build_M requires m >= 1 and i >= 1")
    level = _m1_rec_level(m, working_degree)
    return level.get(i, WeylOp.zero(working_degree))


def build_M(k, m, i, working_degree, route="y"):
    """Mode operator for the k-color model, homogeneous of degree m - i."""
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if m < 1 or i < 1:
        raise ValueError("build_M requires m >= 1 and i >= 1")
    if k == 1 and m > 3:
        raise ValueError("the single-color model is materialized up to m = 3")
    if route == "y":
        return _m_state(k, m, working_degree).entry(i)
    if route == "rec":
        if k != 1:
            raise ValueError("the recursion route exists only for k = 1")
        return build_M_rec(m, i, working_degree)
    raise ValueError("unknown route %r" % (route,))


def esym(j, values):
    """Elementary symmetric polynomial e_j of the given Coeff values."""
    if j < 0 or j > len(values):
        return Coeff.zero()
    out = [Coeff.one()] + [Coeff.zero()] * j
    for v in values:
        for t in range(min(j, len(out) - 1), 0, -1):
            out[t] = out[t] + out[t - 1] * v
    return out[j]


def clear_caches():
    """Empty the unbounded memo tables of the modes and of the Jack oracle."""
    from .jack import _field, _jack_table, _m_in_p, _p_in_m, _rings, partitions

    for cached in (_a_state, _m_state, _a_rec_level, _m1_rec_level, partitions,
                   _field, _rings, _p_in_m, _m_in_p, _jack_table):
        cached.cache_clear()
