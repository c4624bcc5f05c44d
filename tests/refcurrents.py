"""Reference index recursions for the mode operators, kept for tests only.

These are the two hand-written copies of the index recursion that
``bconstell.currents`` now runs as one recursion with an index offset and a
charge: ``_a_rec_level`` (offset 0, charge 0) gives A_i(s), and
``_m1_rec_level`` (offset 1, charge u) gives the single-colour M_i(m).  The
shared recursion must give the same terms and the same working degree.
"""

from functools import lru_cache

from bconstell.coeffring import B, INV_1PB, U
from bconstell.currents import current
from bconstell.weyl import WeylOp


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
