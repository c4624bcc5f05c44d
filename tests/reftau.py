"""Reference rooted transfer step and rooted fixed point, kept for tests only.

``_j_act`` transcribes the action of the currents J_delta on a truncated
series; ``bconstell.tau._lambda_series`` now acts with the currents of
``bconstell.currents`` instead.  Both must give equal entries.

``check_rooted_fixed_point`` and ``_rooted_lambda_series`` are the fixed
point as it ran before each round was cut to the orders its check reads:
every round at the full order t^N, every marked degree, and delta bounded
by min(top, N).  The engine's check must give the same report dict.

``check_constraints_by_piece``, ``check_cut_fixed_point`` (with
``_cut_lambda_series``) and ``mul_series`` are the nullity check and the
fixed point as they ran before each output slice was summed once over all
its addends: every piece of a slice, every current, scalar and feedback
product of a transfer step, was summed to a canonical polynomial of its own
and the addends were then merged coefficient by coefficient.  The engine's
checks must give the same report dicts, reasons and first terms included.

``Series`` keeps the series operations these references run on and the
engine no longer needs: the constant series, truncation, sums, products,
scaling and t shifts.
"""

import math

from bconstell.coeffring import B, ONE_PLUS_B, add_terms
from bconstell.constraints import build_L, sweep_entry, sweep_report
from bconstell.currents import current
from bconstell.ppoly import PPoly, pm_degree
from bconstell.tau import TauSeries, h_series


def degree(f):
    """The largest monomial degree of the PPoly f, 0 for zero."""
    return max(map(pm_degree, f.terms), default=0)


def mul_series(f, g):
    """The product of the series f and g, truncated at f's order."""
    return Series([
        PPoly.sum_products([(f.coeffs[a], g.coeffs[n - a], 1) for a in range(n + 1)])
        for n in range(f.order + 1)
    ])


class Series(TauSeries):
    """A TauSeries with the operations of the reference checks."""

    __slots__ = ()

    @classmethod
    def zero(cls, order):
        return cls([PPoly.zero()] * (order + 1))

    @classmethod
    def one(cls, order):
        return cls([PPoly.one()] + [PPoly.zero()] * order)

    @classmethod
    def sum(cls, series, order):
        """The sum of the series in series, through t^order."""
        return cls.sums(((0, s) for s in series), order).get(0) or cls.zero(order)

    @classmethod
    def sums(cls, pairs, order):
        """{key: the sum of the series paired with key}; zero addends are skipped."""
        parts = {}
        for key, s in pairs:
            if s.is_zero():
                continue
            part = parts.get(key)
            if part is None:
                part = parts[key] = [PPoly() for _ in range(order + 1)]
            for out, c in zip(part, s.coeffs):
                add_terms(out.terms, c.terms)
        return {key: cls(part) for key, part in parts.items()}

    def __sub__(self, other):
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def mul_series(self, other):
        return mul_series(self, other)

    def map(self, fn):
        return Series([fn(c) for c in self.coeffs])

    def scale(self, c):
        return self.map(lambda x: x * c)

    def tshift(self, k, order=None):
        """t^k times the series, through t^order (by default this series' order)."""
        shifted = [PPoly.zero()] * k + self.coeffs
        return Series(shifted[: (self.order if order is None else order) + 1])

    def truncated(self, order):
        """The series through t^order; empty for a negative order."""
        return Series(self.coeffs[: order + 1])

    def is_zero(self):
        return not any(self.coeffs)


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
        out[m] = Series.sum((out[m], s), order) if m in out else s

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
            top = max(degree(c) for c in s.coeffs)
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

    return Series.sums(terms(), order)


def check_rooted_fixed_point(model, tau, i_max):
    """Check i dH/dp_i against the rooted transfer formula, order by order."""
    h = h_series(tau)
    N = tau.order

    def rooted(a):
        """G_a = a dH/dp_a through t^N."""
        return Series([h.coeff(n).dp(a) * a for n in range(N + 1)])

    feedback = {a: rooted(a) for a in range(1, N + 1)}
    feedback = {a: g for a, g in feedback.items() if not g.is_zero()}
    qs = model.q_weights()

    entries = {0: Series.one(N)}
    per_round = []
    for _ in range(1, model.r + 1):
        for shift in model.us():
            entries = _rooted_lambda_series(entries, N, shift, feedback)
        entries = {j + 1: s for j, s in entries.items()}
        per_round.append(dict(entries))

    items = []
    for i in range(1, i_max + 1):
        lhs = feedback.get(i, Series.zero(N))
        rounds = enumerate(per_round, 1)
        rhs = Series.sum((y[i].scale(qs[m]).tshift(m) for m, y in rounds if i in y), N)
        for n, c in enumerate((lhs - rhs).coeffs):
            item = {"i": i, "n": n, "status": "pass"}
            if c:
                item["status"] = "fail"
                item["first_mismatch"] = str(c.first_term())
            items.append(item)
    return sweep_report({"model": model.name, "imax": i_max, "order": N}, items, "items")


# -- the checks with one canonical sum per addend ------------------------------


def check_constraints_by_piece(model, tau, i_max):
    """Check [t^n](L_i tau) = 0, each piece applied and summed on its own."""
    N = tau.order
    items = []
    denom_flags = [
        {"order": n, "denom_pow": bound}
        for n, bound in enumerate(tau.denom_pow_profile())
        if bound > n
    ]
    for i in range(1, i_max + 1):
        L = build_L(model, i, N)
        for n in range(0, N + 1):
            parts = {m: L.pieces[m].apply(tau.coeff(n - m)) for m in L.pieces if m <= n}
            bad = [m for m, part in parts.items() if not part.is_homogeneous(n - i)]
            reason = bad and "t^%d piece is not homogeneous of degree %d" % (bad[0], n - i)
            slice_sum = PPoly.sum(parts.values())
            first = slice_sum and str(slice_sum.first_term())
            items.append(sweep_entry({"i": i, "n": n}, reason=reason, first_nonzero=first))
    params = {"model": model.name, "imax": i_max, "order": N}
    return sweep_report(params, items, "items", denominator_flags=denom_flags)


def _cut_lambda_series(entries, order, shift, feedback, j_max):
    """Shifted transfer step through t^order, addend by addend, marked degrees <= j_max."""

    def terms():
        for j, s in entries.items():
            top = max(degree(c) for c in s.coeffs)
            for delta in range(-j, min(top, j_max - j) + 1):
                cur = current(delta)
                if not cur.is_zero():
                    yield j + delta, s.map(cur.apply)
        for j, s in entries.items():
            c = B * j + shift
            if c and j <= j_max:
                yield j, s.scale(c)
            for a, g in feedback.items():
                if j + a <= j_max:
                    yield j + a, mul_series(s, g)

    return Series.sums(terms(), order)


def _cut(series, order):
    """{key: s through t^order} for the keys whose truncation is nonzero."""
    cut = {key: s.truncated(order) for key, s in series.items()}
    return {key: s for key, s in cut.items() if not s.is_zero()}


def check_cut_fixed_point(model, tau, i_max):
    """The rooted fixed point with round m cut to t^(N-m), addend by addend."""
    h = h_series(tau)
    N = tau.order

    def rooted(a):
        """G_a = a dH/dp_a through t^N."""
        return Series([h.coeff(n).dp(a) * a for n in range(N + 1)])

    feedback = {a: rooted(a) for a in range(1, N + 1)}
    qs = model.q_weights()
    shifts = model.us()

    entries = {0: Series.one(N)}
    per_round = []
    for m in range(1, model.r + 1):
        order = N - m
        entries = _cut(entries, order)
        fed = _cut(feedback, order)
        for c, shift in enumerate(shifts, 1):
            j_max = i_max - 1 if (m, c) == (model.r, len(shifts)) else math.inf
            entries = _cut_lambda_series(entries, order, shift, fed, j_max)
        entries = {j + 1: s for j, s in entries.items()}
        per_round.append(entries)

    items = []
    for i in range(1, i_max + 1):
        lhs = feedback.get(i, Series.zero(N))
        read = enumerate(per_round, 1)
        rhs = Series.sum((y[i].scale(qs[m]).tshift(m, N) for m, y in read if i in y), N)
        for n, c in enumerate((lhs - rhs).coeffs):
            first = c and str(c.first_term())
            items.append(sweep_entry({"i": i, "n": n}, first_mismatch=first))
    return sweep_report({"model": model.name, "imax": i_max, "order": N}, items, "items")
