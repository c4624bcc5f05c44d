"""Reference rooted transfer step and rooted fixed point, kept for tests only.

``_j_act`` transcribes the action of the currents J_delta on a truncated
series; ``bconstell.tau._lambda_series`` now acts with the currents of
``bconstell.currents`` instead.  Both must give equal entries.

``check_rooted_fixed_point`` and ``_rooted_lambda_series`` are the fixed
point as it ran before each round was cut to the orders its check reads:
every round at the full order t^N, every marked degree, and delta bounded
by min(top, N).  The engine's check must give the same report dict.
"""

from bconstell.coeffring import B, ONE_PLUS_B
from bconstell.constraints import sweep_report
from bconstell.currents import current
from bconstell.ppoly import PPoly
from bconstell.tau import TauSeries, h_series


def _j_act(delta, series, charge):
    """Action of the current J_delta on a truncated series, slice by slice."""
    if delta < 0:
        return series.map(lambda c: c * PPoly.monomial(((-delta, 1),)))
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
        out[m] = TauSeries.sum((out[m], s), order) if m in out else s

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


def _rooted_lambda_series(entries, order, shift, feedback):
    """Shifted transfer step on a y-vector of truncated series, with rooted feedback.

    The currents are exact and act coefficient by coefficient.  delta stops
    at the order and at the entry's largest coefficient degree, past which
    J_delta annihilates every coefficient.  feedback maps a >= 1 to the rooted
    series G_a = a dH/dp_a; the feedback term moves the marked degree up by a
    while multiplying by G_a.
    """

    def terms():
        for j, s in entries.items():
            top = max(c.degree() for c in s.coeffs)
            for delta in range(-j, min(top, order) + 1):
                cur = current(delta)
                if not cur.is_zero():
                    yield j + delta, s.map(cur.apply)
        for j, s in entries.items():
            c = B * j + shift
            if c:
                yield j, s.scale(c)
            for a, g in feedback.items():
                yield j + a, s.mul_series(g)

    return TauSeries.sums(terms(), order)


def check_rooted_fixed_point(model, tau, i_max):
    """Check i dH/dp_i against the rooted transfer formula, order by order."""
    h = h_series(tau)
    N = tau.order

    def rooted(a):
        """G_a = a dH/dp_a through t^N."""
        return TauSeries([h.coeff(n).dp(a) * a for n in range(N + 1)])

    feedback = {a: rooted(a) for a in range(1, N + 1)}
    feedback = {a: g for a, g in feedback.items() if not g.is_zero()}
    qs = model.q_weights()

    entries = {0: TauSeries.one(N)}
    per_round = []
    for _ in range(1, model.r + 1):
        for shift in model.us():
            entries = _rooted_lambda_series(entries, N, shift, feedback)
        entries = {j + 1: s for j, s in entries.items()}
        per_round.append(dict(entries))

    items = []
    for i in range(1, i_max + 1):
        lhs = feedback.get(i, TauSeries.zero(N))
        rounds = enumerate(per_round, 1)
        rhs = TauSeries.sum((y[i].scale(qs[m]).tshift(m) for m, y in rounds if i in y), N)
        for n, c in enumerate((lhs - rhs).coeffs):
            item = {"i": i, "n": n, "status": "pass"}
            if c:
                item["status"] = "fail"
                item["first_mismatch"] = str(c.first_term())
            items.append(item)
    return sweep_report({"model": model.name, "imax": i_max, "order": N}, items, "items")
