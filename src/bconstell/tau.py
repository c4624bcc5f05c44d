"""Tau series: order-by-order integration and the checks that live on it.

The generating series tau satisfies t d(tau)/dt = sum_m t^m M^(m) tau with
M^(m) = q_m sum_i p_i M^(k,m)_i, which pins every coefficient recursively:

    n [t^n] tau = sum_{m=1}^{min(n,r)} M^(m) [t^{n-m}] tau.

Each [t^n] tau is homogeneous of degree n, so the whole computation happens
inside the truncated operator algebra at working degree N.

H = (1+b) log tau collects connected objects; the rooted fixed point checks
that extracting a marked face out of H reproduces i dH/dp_i when the
transfer operator is fed the rooted series back.  It reads round m of the
transfer only times t^m, so round m runs through t^(N-m); an entry at marked
degree j there has p-degree at most N - 1 - j, which bounds the currents
J_delta that act on it by its own coefficient degree.

One series type, TauSeries, carries tau, H and the rooted series alike;
``TauSeries.sum`` merges its addends into one dict per power of t.
"""

import math
from fractions import Fraction

from .coeffring import Coeff, B, ONE_PLUS_B, add_terms
from .constraints import build_L, sweep_entry, sweep_report
from .currents import build_M, current
from .ppoly import EMPTY, PPoly
from .weyl import WeylOp


class TauSeries:
    """A series in t through t^order with PPoly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        self.order = len(self.coeffs) - 1

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

    def coeff(self, n):
        if 0 <= n <= self.order:
            return self.coeffs[n]
        return PPoly.zero()

    def __sub__(self, other):
        return TauSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def mul_series(self, other):
        """The product, truncated at this series' order."""
        return TauSeries([
            PPoly.sum_products([
                (self.coeffs[a], other.coeffs[n - a], 1) for a in range(n + 1)
            ])
            for n in range(self.order + 1)
        ])

    def map(self, fn):
        return TauSeries([fn(c) for c in self.coeffs])

    def scale(self, c):
        return self.map(lambda x: x * c)

    def tshift(self, k, order=None):
        """t^k times the series, through t^order (by default this series' order)."""
        shifted = [PPoly.zero()] * k + self.coeffs
        return TauSeries(shifted[: (self.order if order is None else order) + 1])

    def truncated(self, order):
        """The series through t^order; empty for a negative order."""
        return TauSeries(self.coeffs[: order + 1])

    def is_zero(self):
        return not any(self.coeffs)

    def denom_pow_profile(self):
        """Observed maximal (1+b)-denominator power per order."""
        out = []
        for c in self.coeffs:
            out.append(max((v.dp for v in c.terms.values()), default=0))
        return out


def _transfer_operator(model, m, order):
    """M^(m) = q_m sum_i p_i M^(k,m)_i materialized at working degree = order."""
    modes = ((i, build_M(model.k, m, i, order)) for i in range(1, order + 1))
    leads = (WeylOp.p(i).compose(mode) for i, mode in modes if not mode.is_zero())
    return WeylOp.sum(leads).scale(model.q_weights()[m])


def tau_evolve(model, order):
    """Integrate the evolution equation up to t^order, exactly."""
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = [PPoly.one()]
    transfer = {
        m: _transfer_operator(model, m, order) for m in model.q_weights()
    } if order else {}
    for n in range(1, order + 1):
        acc = PPoly.sum(op.apply(coeffs[n - m]) for m, op in transfer.items() if m <= n)
        term = acc * Coeff.from_rational(Fraction(1, n))
        if not term.is_homogeneous(n):
            raise AssertionError("[t^%d] tau is not homogeneous of degree %d" % (n, n))
        coeffs.append(term)
    return TauSeries(coeffs)


def check_constraints(model, tau, i_max):
    """Check [t^n](L_i tau) = 0 for all i <= i_max and n <= tau.order.

    Also asserts the homogeneity of every slice before it is tested for
    cancellation; each (i, n) gives one entry, which names the first piece
    that is not homogeneous.  The check is symbolic in b, u and q, so a pass
    holds at every specialization of them (b != -1).
    """
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


def h_series(tau):
    """H = (1+b) log tau, term by term; requires [t^0] tau = 1."""
    if tau.coeff(0) != PPoly.one():
        raise ValueError("log requires a series with constant term 1")
    N = tau.order
    # log tau satisfies n log_n = n tau_n - sum_{0<j<n} j log_j tau_{n-j}, so
    # H_n = (1+b) log_n satisfies it with (1+b) tau_n in place of tau_n
    one_plus_b = PPoly.monomial(EMPTY, ONE_PLUS_B)
    hs = [PPoly.zero()]
    for n in range(1, N + 1):
        hs.append(PPoly.sum_products(
            [(tau.coeff(n), one_plus_b, 1)]
            + [(hs[j], tau.coeff(n - j), Fraction(-j, n)) for j in range(1, n)]
        ))
    return TauSeries(hs)


# -- rooted fixed point ------------------------------------------------------


def _lambda_series(entries, order, shift, feedback, j_max):
    """Shifted transfer step on a y-vector of truncated series, with rooted feedback.

    The currents are exact and act coefficient by coefficient, and the
    feedback term is a truncated product, so t^n of the result reads only
    t^0..t^n of the entries and the feedback.  delta stops at the entry's
    largest coefficient degree, past which J_delta annihilates every
    coefficient; no order bound is needed on top, since in round m of the
    fixed point an entry at marked degree j and t^n, n <= N - m, has
    p-degree n + m - 1 - j <= N - 1 - j.  feedback maps a >= 1 to the
    rooted series G_a = a dH/dp_a; the feedback term moves the marked degree
    up by a while multiplying by G_a.  Only the marked degrees <= j_max are
    produced.
    """

    def terms():
        for j, s in entries.items():
            top = max(c.degree() for c in s.coeffs)
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
                    yield j + a, s.mul_series(g)

    return TauSeries.sums(terms(), order)


def _truncated(series, order):
    """{key: s through t^order} for the keys whose truncation is nonzero."""
    cut = {key: s.truncated(order) for key, s in series.items()}
    return {key: s for key, s in cut.items() if not s.is_zero()}


def check_rooted_fixed_point(model, tau, i_max):
    """Check i dH/dp_i against the rooted transfer formula, order by order.

    Round m's y-vector is read only as y[i] q_m t^m through t^N, so round m
    runs through t^(N-m) on truncated entries and feedback (G_a starts at
    t^a); past m = N no entry is left.  The last step of the last round
    produces only the marked degrees <= i_max - 1, which the shift turns into
    the y[i], i <= i_max, that are read.
    """
    h = h_series(tau)
    N = tau.order

    def rooted(a):
        """G_a = a dH/dp_a through t^N."""
        return TauSeries([h.coeff(n).dp(a) * a for n in range(N + 1)])

    feedback = {a: rooted(a) for a in range(1, N + 1)}
    qs = model.q_weights()
    shifts = model.us()

    entries = {0: TauSeries.one(N)}
    per_round = []
    for m in range(1, model.r + 1):
        order = N - m
        entries = _truncated(entries, order)
        fed = _truncated(feedback, order)
        for c, shift in enumerate(shifts, 1):
            j_max = i_max - 1 if (m, c) == (model.r, len(shifts)) else math.inf
            entries = _lambda_series(entries, order, shift, fed, j_max)
        entries = {j + 1: s for j, s in entries.items()}
        per_round.append(entries)

    items = []
    for i in range(1, i_max + 1):
        lhs = feedback.get(i, TauSeries.zero(N))
        read = enumerate(per_round, 1)
        rhs = TauSeries.sum((y[i].scale(qs[m]).tshift(m, N) for m, y in read if i in y), N)
        for n, c in enumerate((lhs - rhs).coeffs):
            first = c and str(c.first_term())
            items.append(sweep_entry({"i": i, "n": n}, first_mismatch=first))
    return sweep_report({"model": model.name, "imax": i_max, "order": N}, items, "items")
