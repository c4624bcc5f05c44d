"""Tau series: order-by-order integration and the checks that live on it.

The generating series tau satisfies t d(tau)/dt = sum_m t^m M^(m) tau with
M^(m) = q_m sum_i p_i M^(k,m)_i, which pins every coefficient recursively:

    n [t^n] tau = sum_{m=1}^{min(n,r)} M^(m) [t^{n-m}] tau.

Each [t^n] tau is homogeneous of degree n, so the whole computation happens
inside the truncated operator algebra at working degree N.

H = (1+b) log tau collects connected objects; the rooted fixed point checks
that extracting a marked face out of H reproduces i dH/dp_i when the
transfer operator is fed the rooted series back.

One series type, TauSeries, carries tau, H and the rooted series alike;
``TauSeries.sum`` merges its addends into one dict per power of t.
"""

from fractions import Fraction

from .coeffring import Coeff, B, INV_1PB, ONE_PLUS_B, add_terms
from .constraints import build_L, sweep_report
from .currents import build_M, current
from .ppoly import EMPTY, PPoly
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
        return {key: cls(None, part) for key, part in parts.items()}

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
    modes = ((i, build_M(model.k, m, i, order)) for i in range(1, order + 1))
    leads = (WeylOp.p(i).compose(mode) for i, mode in modes if not mode.is_zero())
    return WeylOp.sum(leads, order)


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
        acc = PPoly.sum(
            op.apply(coeffs[n - m]) * qs[m] for m, op in transfer.items() if m <= n
        )
        term = acc * Coeff.from_rational(Fraction(1, n))
        if not term.is_homogeneous(n):
            raise AssertionError("[t^%d] tau is not homogeneous of degree %d" % (n, n))
        coeffs.append(term)
    return TauSeries(model, coeffs)


def check_constraints(tau, i_max, subs=None):
    """Check [t^n](L_i tau) = 0 for all i <= i_max and n <= tau.order.

    Also asserts the homogeneity of every slice before it is tested for
    cancellation; each (i, n) gives one entry, which names the first piece
    that is not homogeneous.  With subs, parameters are substituted first (used for the
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
            item = {"i": i, "n": n, "status": "pass"}
            parts = {m: L.pieces[m].apply(series.coeff(n - m)) for m in L.pieces if m <= n}
            bad = [m for m, part in parts.items() if not part.is_homogeneous(n - i)]
            if bad:
                reason = "t^%d piece is not homogeneous of degree %d" % (bad[0], n - i)
                item.update(status="fail", reason=reason)
            slice_sum = PPoly.sum(parts.values())
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
    # log tau satisfies n log_n = n tau_n - sum_{0<j<n} j log_j tau_{n-j}, so
    # H_n = (1+b) log_n satisfies it with (1+b) tau_n in place of tau_n
    one_plus_b = PPoly.monomial(EMPTY, ONE_PLUS_B)
    hs = [PPoly.zero()]
    for n in range(1, N + 1):
        hs.append(PPoly.sum_products(
            [(tau.coeff(n), one_plus_b, 1)]
            + [(hs[j], tau.coeff(n - j), Fraction(-j, n)) for j in range(1, n)]
        ))
    return TauSeries(tau.model, hs)


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
        lhs = feedback.get(i, TauSeries.zero(N))
        rounds = enumerate(per_round, 1)
        rhs = TauSeries.sum((y[i].scale(qs[m]).tshift(m) for m, y in rounds if i in y), N)
        for n, c in enumerate((lhs - rhs).coeffs):
            item = {"i": i, "n": n, "status": "pass"}
            if c:
                item["status"] = "fail"
                item["first_mismatch"] = str(c)
            items.append(item)
    return sweep_report({"model": model.name, "imax": i_max, "order": N}, items, "items")
