"""Deformed Heisenberg currents and the catalytic-variable mode constructors.

The current J_i is p_{-i} for i < 0, (1+b) p_i* for i > 0 and charge * Id
for i = 0; `current` builds the uncharged ones, with J_0 = 0.  The
currents satisfy [J_i, J_j] = (1+b) i delta_{i,-j}.  They
are exact; a sum of currents composed onto an operator op at working degree
d stops at index d + jump(op), past which J_i annihilates all of op.

Mode operators are built two independent ways:

* the y-formalism: an operator-valued vector indexed by the degree of a
  marked face evolves under the shift Y_+ and the transfer operator
  Lambda_Y shifted by a scalar, and the modes are its entries; a k-color
  round is one transfer step per shift u_1..u_k, then Y_+;
* one index recursion that expresses a level in terms of the previous one,
  with an index offset o and a shift: o = 0 with shift 0 gives A_i(s),
  o = 1 with shift u gives the single-color modes M_i(m).

A charge c on J_0 adds c times the entry it acts on, so it is a shift by c;
the transfer takes u only as a shift, and the structure operators fold the
family's charge into their scalars.  Both routes must agree exactly; the
test suite and the verification sweeps enforce this.
"""

import importlib
from functools import lru_cache

from .coeffring import Coeff, B, INV_1PB, ONE_PLUS_B, U, ZERO
from .weyl import EXACT, WeylOp


def current(i):
    """The current J_i, exact; J_0 is zero."""
    if i < 0:
        return WeylOp.p(-i)
    if i > 0:
        return WeylOp.p_star(i, ONE_PLUS_B)
    return WeylOp.zero(EXACT)


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
    def seed(cls, d):
        """The start state: Id/(1+b) at marked degree 0, at working degree d."""
        return cls({0: WeylOp.scalar(INV_1PB).truncated(d)}, d)

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

    def lambda_y(self, shift=ZERO):
        """Apply the transfer operator shifted by a scalar.

        Entry m of the result collects J_{m-j} composed onto entry j for
        every stored j, plus (b*m + shift) times entry m.  The sum over
        currents is finite: a current index past d + jump(entry j)
        annihilates the entry's live terms, so it is skipped.
        """
        d = self.working_degree

        def terms():
            for j, op in self.entries.items():
                for delta in range(-j, d + op.max_jump() + 1):
                    cur = current(delta)
                    if not cur.is_zero():
                        yield j + delta, cur.compose(op)
            for m, op in self.entries.items():
                c = B * m + shift
                if c:
                    yield m, op.scale(c)

        return YVector(WeylOp.sums(terms()), d)


# -- mode operators --------------------------------------------------------
# Caches are lru_cache-backed: safe to share across threads, results are
# immutable.


def _filled(level_of, top, *key):
    """level_of(top, *key) after caching each lower level bottom-up.

    Each level recurses into the one below it; filled in order, that
    recursion is one level deep however deep `top` is.  A level is built
    from the one below it alone, so above an empty level every level is
    empty: the fill stops at the first one and returns it.
    """
    for n in range(top):
        level = level_of(n, *key)
        if not level:
            return level
    return level_of(top, *key)


@lru_cache(maxsize=None)
def _y_state(rounds, shifts, working_degree):
    """The y-state after `rounds` rounds from the seed.

    A round is one transfer step per shift in `shifts`, followed by Y_+.
    """
    if rounds == 0:
        return YVector.seed(working_degree)
    v = _y_state(rounds - 1, shifts, working_degree)
    for shift in shifts:
        v = v.lambda_y(shift)
    return v.y_plus()


@lru_cache(maxsize=None)
def _rec_level(s, working_degree, offset, shift):
    """Level s of the index recursion: entries 1 <= i <= d + 2 + offset*(s-1).

    Entry i collects J_{i-n-offset} composed onto entry n of level s-1 plus
    (b(i-1) + shift) times entry i-offset; level 0 is Id/(1+b) at index
    1-offset.
    """
    d = working_degree
    if s == 0:
        return {1 - offset: WeylOp.scalar(INV_1PB).truncated(d)}
    prev = _rec_level(s - 1, d, offset, shift)

    def terms():
        for i in range(1, d + 3 + offset * (s - 1)):
            for n, op in prev.items():
                x = i - n - offset
                if x <= d + op.max_jump():
                    cur = current(x)
                    if not cur.is_zero():
                        yield i, cur.compose(op)
            if i - offset in prev:
                yield i, prev[i - offset].scale(B * (i - 1) + shift)

    return {i: op for i, op in WeylOp.sums(terms()).items() if not op.is_zero()}


def build_A(i, s, working_degree, route="rec"):
    """A_i(s), homogeneous of operator degree -(i-1)."""
    if route not in ("rec", "y"):
        raise ValueError("unknown route %r" % (route,))
    if i < 1 or s < 0:
        raise ValueError("build_A requires i >= 1 and s >= 0")
    if route == "y":
        # entry i of one round of s unshifted steps
        return _y_state(1, (ZERO,) * s, working_degree).entry(i)
    level = _filled(_rec_level, s, working_degree, 0, ZERO)
    return level.get(i, WeylOp.zero(working_degree))


def build_M(k, m, i, working_degree, route="y"):
    """Mode operator for the k-color model, homogeneous of degree m - i."""
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    if m < 1 or i < 1:
        raise ValueError("build_M requires m >= 1 and i >= 1")
    if m > 3:
        raise ValueError("the mode operators are materialized up to m = 3")
    if route == "y":
        return _filled(_y_state, m, tuple(U[1:k + 1]), working_degree).entry(i)
    if route == "rec":
        if k != 1:
            raise ValueError("the recursion route exists only for k = 1")
        level = _filled(_rec_level, m, working_degree, 1, U[1])
        return level.get(i, WeylOp.zero(working_degree))
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
    """Empty the unbounded memo tables of the modes and of the Jack oracle.

    Every memo table in the two modules is an lru_cache: the y-states and
    recursion levels here, and the partitions, triangular matrices, tables
    and norm ratios of the oracle.
    """
    jack = importlib.import_module(".jack", __package__)
    for table in (*globals().values(), *vars(jack).values()):
        if hasattr(table, "cache_clear"):
            table.cache_clear()
