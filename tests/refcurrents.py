"""Reference constructions of the mode operators, kept for tests only.

These are the two hand-written copies of the index recursion that
``bconstell.currents`` now runs as one recursion with an index offset and a
shift: ``_a_rec_level`` (offset 0, shift 0) gives A_i(s), and
``_m1_rec_level`` (offset 1, charge u on J_0) gives the single-colour M_i(m).
The shared recursion must give the same terms and the same working degree.

``lambda_y``, ``_a_state``, ``round_steps`` and ``_m_state`` are the charged
y-route transfer: a step may carry a charge on J_0 as well as a shift, and
the single-colour round is one step with charge u and no shift.
``bconstell.currents`` now shifts every step instead (one state per tuple of
shifts); the y-route modes must give the same terms and working degree.
"""

from functools import lru_cache

from bconstell.coeffring import B, INV_1PB, ONE, ONE_PLUS_B, U, ZERO
from bconstell.currents import YVector, current as engine_current
from bconstell.weyl import WeylOp


def current(i, working_degree, charge=None):
    """The current J_i built at a working degree, as the references use it.

    The engine's currents are exact; ``current(i).truncated(d)`` there must
    give these terms and this degree.
    """
    if i < 0:
        return WeylOp({(((-i, 1),), ()): ONE}, working_degree)
    if i > 0:
        return WeylOp({((), ((i, 1),)): ONE_PLUS_B}, working_degree)
    return WeylOp({((), ()): charge if charge is not None else ZERO}, working_degree)


def charged_current(i, charge):
    """The exact current J_i with J_0 = charge * Id; the engine's J_0 is zero."""
    return WeylOp.scalar(charge) if i == 0 else engine_current(i)


@lru_cache(maxsize=None)
def _a_rec_level(s, working_degree):
    """All A_i(s) for 1 <= i <= working_degree + 2 via the index recursion."""
    d = working_degree
    top = d + 2
    if s == 0:
        return {1: WeylOp.scalar(INV_1PB).truncated(d)}
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
            if delta == 0 and (charge is None or not charge):
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


@lru_cache(maxsize=None)
def _a_state(s, working_degree):
    """The y-state after s transfer steps from the seed (charge 0)."""
    if s == 0:
        return YVector.seed(working_degree)
    return lambda_y(_a_state(s - 1, working_degree))


def round_steps(k):
    """The (shift, charge) of each transfer step of a k-color round.

    For k >= 2 the charge is zero and the k factors are shifted by u_1..u_k;
    for k = 1 the single factor carries charge u instead.
    """
    if k == 1:
        return [(None, U[1])]
    return [(U[c], None) for c in range(1, k + 1)]


@lru_cache(maxsize=None)
def _m_state(k, m, working_degree):
    """The y-state after m rounds of the k-factor transfer followed by Y_+."""
    if m == 0:
        return YVector.seed(working_degree)
    v = _m_state(k, m - 1, working_degree)
    for shift, charge in round_steps(k):
        v = lambda_y(v, shift, charge)
    return v.y_plus()
