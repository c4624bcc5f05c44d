"""Tau series: order-by-order integration and the checks that live on it.

The generating series tau satisfies t d(tau)/dt = sum_m t^m M^(m) tau with
M^(m) = q_m sum_i p_i M^(k,m)_i, which pins every coefficient recursively:

    n [t^n] tau = sum_{m=1}^{min(n,r)} M^(m) [t^{n-m}] tau.

Each [t^n] tau is homogeneous of degree n, so the whole computation happens
inside the truncated operator algebra at working degree N.

H = (1+b) log tau collects connected objects; the rooted fixed point checks
that extracting a marked face out of H reproduces i dH/dp_i when the
transfer operator is fed the rooted series back.

One series type, TauSeries, carries tau, H and the rooted series alike.
"""

from fractions import Fraction

from .coeffring import Coeff, B, INV_1PB, ONE_PLUS_B
from .constraints import build_L, sweep_report
from .currents import build_M, current
from .ppoly import PPoly
from .weyl import WeylOp


class TauSeries:
    """A series in t through t^order with PPoly coefficients; `model` may be None."""

    __slots__ = ("model", "order", "coeffs")

    def __init__(self, model, coeffs):
        self.model = model
        self.coeffs = list(coeffs)
        self.order = len(self.coeffs) - 1

    @classmethod
    def zero(cls, order):
        return cls(None, [PPoly.zero()] * (order + 1))

    @classmethod
    def one(cls, order):
        return cls(None, [PPoly.one()] + [PPoly.zero()] * order)

    def coeff(self, n):
        if 0 <= n <= self.order:
            return self.coeffs[n]
        return PPoly.zero()

    def __add__(self, other):
        return TauSeries(self.model, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return TauSeries(self.model, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def mul_series(self, other):
        """The product, truncated at this series' order."""
        return TauSeries(self.model, [
            PPoly.sum_products([
                (self.coeffs[a], other.coeffs[n - a], 1) for a in range(n + 1)
            ])
            for n in range(self.order + 1)
        ])

    def map(self, fn):
        return TauSeries(self.model, [fn(c) for c in self.coeffs])

    def map_coeff(self, fn):
        return self.map(lambda c: c.map_coeff(fn))

    def scale(self, c):
        return self.map(lambda x: x * c)

    def tshift(self, k):
        """t^k times the series, truncated at the same order."""
        shifted = [PPoly.zero()] * k + self.coeffs
        return TauSeries(self.model, shifted[: self.order + 1])

    def is_zero(self):
        return not any(self.coeffs)

    def denom_pow_profile(self):
        """Observed maximal (1+b)-denominator power per order."""
        out = []
        for c in self.coeffs:
            out.append(max((v.dp for v in c.terms.values()), default=0))
        return out


# H = (1+b) log tau is a series of the same type.
HSeries = TauSeries


def _transfer_operator(model, m, order):
    """M^(m) = sum_i p_i M^(k,m)_i materialized at working degree = order."""
    acc = WeylOp.zero(order)
    for i in range(1, order + 1):
        mode = build_M(model.k, m, i, order)
        if mode.is_zero():
            continue
        lead = WeylOp.p(i, order + max(0, m - i))
        acc = acc + lead.compose(mode)
    return acc


def tau_evolve(model, order):
    """Integrate the evolution equation up to t^order, exactly."""
    if order < 0:
        raise ValueError("order must be non-negative")
    coeffs = [PPoly.one()]
    transfer = {
        m: _transfer_operator(model, m, order) for m in model.q_weights()
    } if order else {}
    qs = model.q_weights()
    for n in range(1, order + 1):
        acc = PPoly.zero()
        for m, op in transfer.items():
            if m > n:
                continue
            acc = acc + op.apply(coeffs[n - m]) * qs[m]
        term = acc * Coeff.from_rational(Fraction(1, n))
        if not term.is_homogeneous(n):
            raise AssertionError("[t^%d] tau is not homogeneous of degree %d" % (n, n))
        coeffs.append(term)
    return TauSeries(model, coeffs)


def check_constraints(tau, i_max, subs=None):
    """Check [t^n](L_i tau) = 0 for all i <= i_max and n <= tau.order.

    Also asserts the homogeneity of every slice before it is tested for
    cancellation.  With subs, parameters are substituted first (used for the
    specializations of the vertex-degree weights).
    """
    model = tau.model
    N = tau.order
    series = tau.map_coeff(lambda c: c.subs(subs)) if subs else tau
    items = []
    denom_flags = [
        {"order": n, "denom_pow": bound}
        for n, bound in enumerate(series.denom_pow_profile())
        if bound > n
    ]
    for i in range(1, i_max + 1):
        L = build_L(model, i, N)
        if subs:
            L = L.map_coeff(lambda c: c.subs(subs))
        for n in range(0, N + 1):
            slice_sum = PPoly.zero()
            for m, piece in L.pieces.items():
                if m > n:
                    continue
                part = piece.apply(series.coeff(n - m))
                if not part.is_homogeneous(n - i):
                    reason = "t^%d piece is not homogeneous of degree %d" % (m, n - i)
                    items.append({"i": i, "n": n, "status": "fail", "reason": reason})
                slice_sum = slice_sum + part
            item = {"i": i, "n": n, "status": "pass"}
            if slice_sum:
                first = min(slice_sum.terms)
                item["status"] = "fail"
                item["first_nonzero"] = str(PPoly({first: slice_sum.terms[first]}))
            items.append(item)
    params = {"model": model.name, "imax": i_max, "order": N,
              "subs": {k: str(v) for k, v in (subs or {}).items()}}
    return sweep_report(params, items, "items", denominator_flags=denom_flags)


def h_series(tau):
    """H = (1+b) log tau, term by term; requires [t^0] tau = 1."""
    if tau.coeff(0) != PPoly.one():
        raise ValueError("log requires a series with constant term 1")
    N = tau.order
    # log = log tau satisfies n log_n = n tau_n - sum_{0<j<n} j log_j tau_{n-j}
    one = PPoly.one()
    logs = [PPoly.zero()]
    for n in range(1, N + 1):
        logs.append(PPoly.sum_products(
            [(tau.coeff(n), one, 1)]
            + [(logs[j], tau.coeff(n - j), Fraction(-j, n)) for j in range(1, n)]
        ))
    return TauSeries(tau.model, [c * ONE_PLUS_B for c in logs])


def tau_from_h(h):
    """exp(H/(1+b)) back from H; inverse of h_series."""
    N = h.order
    s = [c * INV_1PB for c in h.coeffs]
    # tau = exp(s) satisfies n tau_n = sum_{0<j<=n} j s_j tau_{n-j}
    coeffs = [PPoly.one()]
    for n in range(1, N + 1):
        coeffs.append(PPoly.sum_products(
            [(s[j], coeffs[n - j], Fraction(j, n)) for j in range(1, n + 1)]
        ))
    return TauSeries(h.model, coeffs)


# -- rooted fixed point ------------------------------------------------------


def _lambda_series(entries, order, shift, feedback):
    """Shifted transfer step on a y-vector of truncated series, with rooted feedback.

    The currents act coefficient by coefficient at the entry's largest
    coefficient degree.  feedback maps a >= 1 to the rooted series
    G_a = a dH/dp_a; the feedback term moves the marked degree up by a while
    multiplying by G_a.
    """
    out = {}

    def accumulate(m, s):
        if s.is_zero():
            return
        out[m] = out[m] + s if m in out else s

    for j, s in entries.items():
        top = max(c.degree() for c in s.coeffs)
        for delta in range(-j, order + 1):
            cur = current(delta, top)
            if not cur.is_zero():
                accumulate(j + delta, s.map(cur.apply))
    for j, s in entries.items():
        c = B * j + shift
        if c:
            accumulate(j, s.scale(c))
        for a, g in feedback.items():
            accumulate(j + a, s.mul_series(g))
    return out


def check_rooted_fixed_point(model, tau, i_max):
    """Check i dH/dp_i against the rooted transfer formula, order by order."""
    h = h_series(tau)
    N = tau.order

    def rooted(a):
        """G_a = a dH/dp_a through t^N."""
        return TauSeries(model, [h.coeff(n).dp(a) * a for n in range(N + 1)])

    feedback = {a: rooted(a) for a in range(1, N + 1)}
    feedback = {a: g for a, g in feedback.items() if not g.is_zero()}
    qs = model.q_weights()

    entries = {0: TauSeries.one(N)}
    per_round = []
    for _ in range(1, model.r + 1):
        for shift in model.us():
            entries = _lambda_series(entries, N, shift, feedback)
        entries = {j + 1: s for j, s in entries.items()}
        per_round.append(dict(entries))

    items = []
    for i in range(1, i_max + 1):
        lhs = rooted(i)
        rhs = TauSeries.zero(N)
        for m in range(1, model.r + 1):
            entry = per_round[m - 1].get(i)
            if entry is not None:
                rhs = rhs + entry.scale(qs[m]).tshift(m)
        for n, c in enumerate((lhs - rhs).coeffs):
            item = {"i": i, "n": n, "status": "pass"}
            if c:
                item["status"] = "fail"
                item["first_mismatch"] = str(c)
            items.append(item)
    return sweep_report({"model": model.name, "imax": i_max, "order": N}, items, "items")
