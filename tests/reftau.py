"""Reference rooted transfer step, kept for tests only.

``_j_act`` transcribes the action of the currents J_delta on a truncated
series; ``bconstell.tau._lambda_series`` now acts with the currents of
``bconstell.currents`` instead.  Both must give equal entries.
"""

from bconstell.coeffring import B, ONE_PLUS_B
from bconstell.ppoly import PPoly


def _j_act(delta, series, charge):
    """Action of the current J_delta on a truncated series, slice by slice."""
    if delta < 0:
        return series.map(lambda c: c * PPoly.gen(-delta))
    if delta > 0:
        return series.map(lambda c: c.dp(delta) * (ONE_PLUS_B * delta))
    return series.scale(charge)


def _lambda_series(entries, order, shift, charge, feedback):
    """Transfer step on a y-vector of truncated series, with rooted feedback.

    feedback maps a >= 1 to the rooted series G_a = a dH/dp_a; the feedback
    term moves the marked degree up by a while multiplying by G_a.
    """
    out = {}

    def accumulate(m, s):
        if s.is_zero():
            return
        out[m] = out[m] + s if m in out else s

    for j, s in entries.items():
        for delta in range(-j, order + 1):
            if delta == 0 and not charge:
                continue
            accumulate(j + delta, _j_act(delta, s, charge))
    for j, s in entries.items():
        c = B * j if shift is None else B * j + shift
        if c:
            accumulate(j, s.scale(c))
        for a, g in feedback.items():
            accumulate(j + a, s.mul_series(g))
    return out
