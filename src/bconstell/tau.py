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

TauSeries carries tau and H.  Both checks sum each output coefficient once:
every addend of a slice, [t^n] L_i tau or a transfer step's (j', t^n),
deposits its contraction triples into the slice's one accumulator
(``WeylOp.apply_into``), and ``weyl.sum_applied`` sums that accumulator by
one ``sum_grouped`` before the next slice starts.  No addend is
canonicalised on its own.  The fixed point keeps its y-vectors as packed
polynomials (``weyl.pack_poly``), so a transfer step neither packs nor
unpacks a monomial; a scalar is the operator c * Id and a feedback product
the multiplication operator by a coefficient of G_a.
"""

import math
from fractions import Fraction

from .coeffring import Coeff, B, ONE_PLUS_B
from .constraints import build_L, sweep_entry, sweep_report
from .currents import build_M, current
from .ppoly import EMPTY, PPoly, first_difference
from .weyl import WeylOp, pack_poly, sum_applied, unpack_poly


class TauSeries:
    """A series in t through t^order with PPoly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        self.order = len(self.coeffs) - 1

    def coeff(self, n):
        if 0 <= n <= self.order:
            return self.coeffs[n]
        return PPoly.zero()

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

    Each slice is summed once: every piece deposits its contraction triples
    into the slice's one accumulator.  A piece homogeneous of degree m - i
    maps a coefficient homogeneous of degree n - m into degree n - i, so
    only a piece or a coefficient that is not homogeneous has its own part
    summed, to read that part's degrees.
    """
    N = tau.order
    items = []
    denom_flags = [
        {"order": n, "denom_pow": bound}
        for n, bound in enumerate(tau.denom_pow_profile())
        if bound > n
    ]
    packed = [pack_poly(c) for c in tau.coeffs]
    homogeneous = [c.is_homogeneous(n) for n, c in enumerate(tau.coeffs)]
    for i in range(1, i_max + 1):
        L = build_L(model, i, N)
        graded = {m: op.homogeneous_degree() == m - i for m, op in L.pieces.items()}
        for n in range(0, N + 1):
            acc = {}
            bad = []
            for m, op in L.pieces.items():
                if m > n:
                    continue
                op.apply_into(packed[n - m], acc)
                if not (graded[m] and homogeneous[n - m]):
                    if not op.apply(tau.coeff(n - m)).is_homogeneous(n - i):
                        bad.append(m)
            reason = bad and "t^%d piece is not homogeneous of degree %d" % (bad[0], n - i)
            slice_sum = unpack_poly(sum_applied(acc))
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

    entries maps a marked degree j to its series through t^order, one
    packed polynomial (weyl.pack_poly) per power of t, and so does the
    result; feedback maps a >= 1 to the multiplication operators by the
    coefficients of the rooted series G_a = a dH/dp_a, through t^order at
    least.  The currents are exact and act coefficient by coefficient, and
    the feedback term is a truncated product, so t^n of the result reads
    only t^0..t^n of the entries and the feedback.  delta stops at the
    entry's largest coefficient degree, past which J_delta annihilates every
    coefficient; no order bound is needed on top, since in round m of the
    fixed point an entry at marked degree j and t^n, n <= N - m, has
    p-degree n + m - 1 - j <= N - 1 - j.  The feedback term moves the marked
    degree up by a while multiplying by G_a.  Only the marked degrees
    <= j_max are produced, and only those with a nonzero coefficient.

    Each output slice (j', t^n) is summed once over all its addends: every
    current, the diagonal scalar and every feedback product deposit their
    triples into the slice's one accumulator, and the slice is summed
    before the next one starts.
    """
    if not entries:
        return {}
    tops = {j: max(degree for degree, _ in s) for j, s in entries.items()}
    reach = max(j + max([tops[j], *feedback]) for j in entries)
    out = {}
    for jp in range(min(reach, j_max) + 1):
        acting = [
            (current(jp - j), s) for j, s in entries.items() if 0 != jp - j <= tops[j]
        ]
        c = B * jp + shift
        if c and jp in entries:
            acting.append((WeylOp.scalar(c), entries[jp]))
        fed = [(g, entries[jp - a], a) for a, g in feedback.items() if jp - a in entries]
        slices = []
        for n in range(order + 1):
            acc = {}
            for op, s in acting:
                op.apply_into(s[n], acc)
            for g, s, a in fed:
                # G_a starts at t^a
                for k in range(n - a + 1):
                    g[n - k].apply_into(s[k], acc)
            slices.append(sum_applied(acc))
        if any(terms for _, terms in slices):
            out[jp] = slices
    return out


def _truncated(entries, order):
    """{j: s through t^order} for the entries whose truncation is nonzero."""
    cut = {j: s[: order + 1] for j, s in entries.items()}
    return {j: s for j, s in cut.items() if any(terms for _, terms in s)}


def _rooted_series(tau):
    """{a: the coefficients of G_a = a dH/dp_a through t^N}, for 1 <= a <= N.

    H is not kept: the check reads it only through the G_a.
    """
    h = h_series(tau)
    return {a: [c.dp(a) * a for c in h.coeffs] for a in range(1, tau.order + 1)}


def check_rooted_fixed_point(model, tau, i_max):
    """Check i dH/dp_i against the rooted transfer formula, order by order.

    Round m's y-vector is read only as y[i] q_m t^m through t^N, so round m
    runs through t^(N-m) on truncated entries and feedback (G_a starts at
    t^a); past m = N no entry is left.  The last step of the last round
    produces only the marked degrees <= i_max - 1, which the shift turns into
    the y[i], i <= i_max, that are read.  Each [t^n] of the right-hand side
    is summed once over its rounds and compared by equality; only a mismatch
    is subtracted, to name its first term.
    """
    N = tau.order
    rooted = _rooted_series(tau)
    feedback = {a: [WeylOp.multiplication(c) for c in g] for a, g in rooted.items()}
    scales = {m: WeylOp.scalar(q) for m, q in model.q_weights().items()}
    shifts = model.us()

    entries = {0: [pack_poly(PPoly.one())] + [pack_poly(PPoly.zero())] * N}
    per_round = []
    for m in range(1, model.r + 1):
        entries = _truncated(entries, N - m)
        # G_a starts at t^a
        fed = {a: g for a, g in feedback.items() if a <= N - m}
        for c, shift in enumerate(shifts, 1):
            j_max = i_max - 1 if (m, c) == (model.r, len(shifts)) else math.inf
            entries = _lambda_series(entries, N - m, shift, fed, j_max)
        entries = {j + 1: s for j, s in entries.items()}
        per_round.append(entries)

    items = []
    for i in range(1, i_max + 1):
        lhs = rooted.get(i)
        for n in range(N + 1):
            acc = {}
            for m, y in enumerate(per_round, 1):
                if i in y and m <= n:
                    scales[m].apply_into(y[i][n - m], acc)
            rhs = unpack_poly(sum_applied(acc))
            side = lhs[n] if lhs else PPoly.zero()
            first = side != rhs and str(first_difference(side, rhs))
            items.append(sweep_entry({"i": i, "n": n}, first_mismatch=first))
    return sweep_report({"model": model.name, "imax": i_max, "order": N}, items, "items")
