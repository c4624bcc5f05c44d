"""Independent tau oracle through deformed symmetric functions.

The series is reassembled from scratch: for each size n, sum over
partitions of n the product of the one-parameter deformed polynomials in
the face variables and in the vertex-degree variables, weighted by a
content product and divided by the squared norm.  Nothing here touches the
evolution engine, so exact agreement of the two series is a real check.

The deformed polynomials J_lam are constructed by Gram-Schmidt against the
lexicographic order (which refines dominance) over the alpha-deformed
power-sum pairing, normalized so the coefficient of p_1^n is 1.  Their
p-coordinates are polynomials in alpha, so the tables live in QQ[alpha]
and the Gram-Schmidt is fraction-free: each projection step is
v <- <g,g> v - <v,g> g against a finished J_mu (both factors divided by
their gcd, which keeps the degrees down), and the p_1^n coefficient is
divided out exactly at the end.  Every norm <J_lam, J_lam> is checked
against Stanley's closed form j_lam = prod_s (alpha a(s) + l(s) + 1)
(alpha a(s) + l(s) + alpha); an inexact division or a differing norm
raises JackTableError.

The series at order n is accumulated on integers, in the polynomial ring
ZZ[alpha, u1, u2, u3, q1, q2, q3]: every weight is scaled by D_n / j_lam,
where D_n is the lcm of the norms of size n, the size-n tables are scaled
by L_n and the ratios D_n / j_lam by R_n, the lcms of their coefficient
denominators, and the content product is built as prod_c P_lam(u_c), one
factor per colour.  The scaled tables, ratios and denominator of each size
are memoised next to the tables (_series_scales).  Each output p-monomial
is then N / (L_n^2 R_n D_n), and its denominator must reduce to a power of
alpha = 1+b.  Writing that denominator as c alpha^a D' with D' free of
alpha, this holds exactly when D' divides N, which is checked by one exact
division by the univariate D'; an inexact one raises
OracleDenominatorError.  The engine's scalar ring cannot host the
intermediate norms (their denominators are not powers of 1+b), and keeping
the oracle on a separate arithmetic stack is the point; values cross into
Coeff only in _series_coeff.
jack, jack_norm and content_product return elements of the field
Q(alpha, u1, u2, u3, q1, q2, q3).

The deformed content of a box is a convention to calibrate, not to assume:
c(row r, column c) = alpha*(c-1) - (r-1) ("standard") or its transpose
with the deformation on rows ("transpose").  calibrate_convention settles
it empirically against the evolution engine at sizes <= 2 and the caller
is told which one matched.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, lcm

from .coeffring import _B_SHIFT, VARS, Coeff, ONE_PLUS_B, _pack, add_term
from .ppoly import PPoly


JACK_BOUND = 6


class JackBoundError(ValueError):
    """Requested partition size exceeds the configured bound."""


class OracleDenominatorError(ArithmeticError):
    """A series coefficient did not reduce to a power of (1+b)."""


class OracleCalibrationError(ArithmeticError):
    """Neither content convention reproduced the engine series."""


class JackTableError(ArithmeticError):
    """The Gram-Schmidt table failed its exact division or its norm check."""


# -- partitions --------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(n):
    """All partitions of n as weakly decreasing tuples, decreasing-lex order."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)

    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(n, n))


def dominance_leq(mu, lam):
    """mu <= lam in dominance order (same size)."""
    if sum(mu) != sum(lam):
        raise ValueError("dominance compares partitions of equal size")
    total_mu = total_lam = 0
    for k in range(max(len(mu), len(lam))):
        total_mu += mu[k] if k < len(mu) else 0
        total_lam += lam[k] if k < len(lam) else 0
        if total_mu > total_lam:
            return False
    return True


def z_of(lam):
    """The symmetry factor prod_i i^{m_i} m_i!."""
    z = 1
    mult = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part ** m
        for k in range(1, m + 1):
            z *= k
    return z


def alpha_inner(lam, mu):
    """Pairing of power-sum basis elements, deformation evaluated at 1+b."""
    if sum(lam) != sum(mu):
        raise ValueError("the pairing needs partitions of equal size")
    if tuple(lam) != tuple(mu):
        return Coeff.zero()
    return (ONE_PLUS_B ** len(lam)) * z_of(lam)


# -- exact field and basis conversions ---------------------------------------


@lru_cache(maxsize=1)
def _field():
    from sympy import symbols
    from sympy.polys.domains import QQ

    names = ("alpha",) + VARS[1:]
    field = QQ.frac_field(*symbols(names))
    gens = dict(zip(names, field.gens))
    return field, gens


@lru_cache(maxsize=1)
def _rings():
    """QQ[alpha] for the tables and ZZ[alpha, u, q] for the series."""
    from sympy.polys.domains import QQ, ZZ

    field, _ = _field()
    series_ring = field.field.ring.clone(domain=ZZ)
    return QQ.poly_ring(series_ring.symbols[0]).ring, series_ring


def _to_field(p):
    """A polynomial of any of the rings as a (cancelled) field element."""
    field, _ = _field()
    return field.field(p.set_ring(field.field.ring))


def _integral(p, scale):
    """scale * p for a QQ[alpha] element p, inside ZZ[alpha, u, q].

    scale must clear every denominator of p; the conversion to ZZ fails
    loudly otherwise.
    """
    return (p * scale).set_ring(_rings()[1])


def _denominator_lcm(polys):
    """The lcm of the coefficient denominators of QQ[alpha] elements."""
    return lcm(*(c.denominator for p in polys for c in p.values()))


@lru_cache(maxsize=None)
def _p_in_m(n):
    """Coefficient of each monomial basis element inside each p_lam (integers)."""
    parts = partitions(n)
    table = {}
    for lam in parts:
        expansion = {(0,) * n: 1}
        for r in lam:
            new = {}
            for exps, c in expansion.items():
                for i in range(n):
                    key = exps[:i] + (exps[i] + r,) + exps[i + 1:]
                    new[key] = new.get(key, 0) + c
            expansion = new
        row = {}
        for mu in parts:
            key = tuple(sorted(mu, reverse=True)) + (0,) * (n - len(mu))
            row[mu] = expansion.get(key, 0)
        table[lam] = row
    return table


@lru_cache(maxsize=None)
def _m_in_p(n):
    """Inverse transition: each monomial basis element over the p basis."""
    parts = partitions(n)
    size = len(parts)
    fwd = _p_in_m(n)
    mat = [[Fraction(fwd[lam][mu]) for mu in parts] for lam in parts]
    inv = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if mat[r][col])
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        inv[col] = [x / pv for x in inv[col]]
        for r in range(size):
            if r != col and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    # row mu of the inverse expresses m_mu over the p basis
    return {
        mu: {lam: inv[c][r] for r, lam in enumerate(parts)}
        for c, mu in enumerate(parts)
    }


def _inner_field(f, g):
    """alpha-deformed pairing of two p-coordinate vectors over QQ[alpha]."""
    ring, _ = _rings()
    alpha = ring.gens[0]
    acc = ring.zero
    for lam, cf in f.items():
        cg = g.get(lam)
        if cg:
            acc += cf * cg * alpha ** len(lam) * z_of(lam)
    return acc


def _stanley_norm(lam):
    """Closed form prod_s (alpha a(s) + l(s) + 1)(alpha a(s) + l(s) + alpha).

    a(s) and l(s) are the arm and leg of box s (Stanley 1989, Adv. Math. 77;
    Macdonald, Symmetric Functions and Hall Polynomials, VI.10); returned
    in QQ[alpha].
    """
    ring, _ = _rings()
    alpha = ring.gens[0]
    acc = ring.one
    for r, row_len in enumerate(lam):
        for c in range(row_len):
            arm = row_len - c - 1
            leg = sum(1 for below in lam[r + 1:] if below > c)
            acc *= (alpha * arm + leg + 1) * (alpha * arm + leg + alpha)
    return acc


@lru_cache(maxsize=None)
def _jack_table(n):
    """All deformed polynomials of size n as p-coordinate vectors in QQ[alpha]."""
    if n > JACK_BOUND:
        raise JackBoundError("size %d exceeds the configured bound %d" % (n, JACK_BOUND))
    from sympy.polys.domains import QQ
    from sympy.polys.polyerrors import ExactQuotientFailed

    ring, _ = _rings()
    if n == 0:
        return {(): {(): ring.one}}
    m_in_p = _m_in_p(n)
    ones = (1,) * n
    done = []
    table = {}
    # increasing lexicographic order refines dominance upward
    for lam in reversed(partitions(n)):
        v = {
            mu: ring(QQ(c.numerator, c.denominator))
            for mu, c in m_in_p[lam].items() if c
        }
        for g, norm in done:
            c = _inner_field(v, g)
            if c:
                _, scale, c = norm.cofactors(c)
                v = {
                    mu: scale * v.get(mu, ring.zero) - c * g.get(mu, ring.zero)
                    for mu in set(v) | set(g)
                }
                v = {mu: x for mu, x in v.items() if x}
        lead = v[ones]
        try:
            vec = {mu: x.exquo(lead) for mu, x in v.items()}
        except ExactQuotientFailed:
            raise JackTableError(
                "J%s: the p_1^%d coefficient %s does not divide the Gram-Schmidt "
                "vector exactly" % (lam, n, lead)
            ) from None
        norm = _inner_field(vec, vec)
        expected = _stanley_norm(lam)
        if norm != expected:
            raise JackTableError(
                "J%s: Gram-Schmidt norm %s differs from the closed form %s"
                % (lam, norm, expected)
            )
        done.append((vec, norm))
        table[lam] = vec
    return table


# size n -> (the table, its _series_scales); emptied by clear_caches()
_SCALES = {}


def _series_scales(n):
    """The size-n tables and ratios D_n / j_lam on integers, and their denominator.

    D_n is the lcm of the norms of size n; the tables are scaled by L_n and
    the ratios by R_n (the lcms of their coefficient denominators), so each
    series term carries the denominator D_n L_n^2 R_n (the coordinate and
    the vertex weight both carry L_n).  Memoised per size for the table
    object _jack_table returns, so a rebuilt table gets its scales afresh.
    """
    table = _jack_table(n)
    memo = _SCALES.get(n)
    if memo is not None and memo[0] is table:
        return memo[1]
    norms = {lam: _inner_field(v, v) for lam, v in table.items()}
    common = reduce(lambda x, y: x.lcm(y), norms.values())
    ratios = {lam: common.exquo(norm) for lam, norm in norms.items()}
    scale_table = _denominator_lcm(c for v in table.values() for c in v.values())
    scale_ratio = _denominator_lcm(ratios.values())
    scales = (
        {lam: {mu: _integral(c, scale_table) for mu, c in v.items()}
         for lam, v in table.items()},
        {lam: _integral(r, scale_ratio) for lam, r in ratios.items()},
        common * (scale_table * scale_table * scale_ratio),
    )
    _SCALES[n] = (table, scales)
    return scales


def _table_entry(lam):
    """The QQ[alpha] p-coordinates of the deformed polynomial indexed by lam."""
    lam = tuple(sorted(lam, reverse=True))
    if any(part <= 0 for part in lam):
        raise ValueError("partitions have positive parts")
    return _jack_table(sum(lam))[lam]


def jack(lam):
    """The deformed polynomial indexed by lam, as {partition: field coeff}."""
    return {mu: _to_field(c) for mu, c in _table_entry(lam).items()}


def jack_norm(lam):
    """Squared norm of the deformed polynomial under the pairing."""
    v = _table_entry(lam)
    return _to_field(_inner_field(v, v))


_NON_ALPHA_DENOMINATOR = (
    "series coefficient has a non-(1+b) denominator: %s; this is a "
    "finding to report, not to patch"
)


def _by_alpha(poly):
    """The terms of a polynomial as {u, q exponents: {alpha exponent: coeff}}."""
    groups = {}
    for exps, c in poly.items():
        groups.setdefault(exps[1:], {})[exps[0]] = c
    return groups


def _groups_to_coeff(groups, dp, scale):
    """scale * sum_rest g_rest(1+b) u^rest / (1+b)^dp as a Coeff.

    Each alpha^e becomes the binomial row of (1+b)^e, expanded once per
    distinct e, and the whole numerator is built as one dict of packed keys.
    """
    rows = {}
    num = {}
    for rest, coeffs in groups.items():
        key = _pack((0,) + rest)
        for e, c in coeffs.items():
            row = rows.get(e)
            if row is None:
                row = rows[e] = [comb(e, k) for k in range(e + 1)]
            for k, binom in enumerate(row):
                add_term(num, key + (k << _B_SHIFT), c * binom)
    out = Coeff(num, dp)
    return out if scale == 1 else out * scale


def _series_coeff(numer, denom):
    """numer / denom as a Coeff with alpha -> 1+b; loud unless it reduces to c / alpha^a.

    numer lies in ZZ[alpha, u, q] and denom in QQ[alpha].  Write
    denom = c alpha^a D' with D' a primitive integer polynomial and
    D'(0) > 0.  alpha and D' are coprime, so the reduced fraction has a
    power of alpha as denominator exactly when D' divides numer; D' is
    primitive, so it divides over ZZ whenever it divides over QQ (Gauss's
    lemma), and since it involves alpha alone that is one exact univariate
    division per u, q monomial of numer.  Only when a division is inexact
    is the cancelled fraction built, for the error message.
    """
    from sympy.polys.densearith import dup_exquo
    from sympy.polys.densebasic import dup_from_dict, dup_to_raw_dict
    from sympy.polys.domains import ZZ
    from sympy.polys.polyerrors import ExactQuotientFailed

    (a,), _ = min(denom.items())
    content, dprime = denom.quo_term(((a,), 1)).primitive()
    if dprime[(0,)] < 0:
        content, dprime = -content, -dprime
    dprime = [c.numerator for c in dprime.to_dense()]
    groups = _by_alpha(numer)
    if len(dprime) > 1:
        try:
            groups = {
                rest: dup_to_raw_dict(dup_exquo(dup_from_dict(coeffs, ZZ), dprime, ZZ))
                for rest, coeffs in groups.items()
            }
        except ExactQuotientFailed:
            field = _field()[0].field
            frac = field.new(numer.set_ring(field.ring), denom.set_ring(field.ring))
            raise OracleDenominatorError(_NON_ALPHA_DENOMINATOR % (frac.denom,)) from None
    return _groups_to_coeff(groups, a, Fraction(content.denominator, content.numerator))


def _ppoly_key(mu):
    """The PPoly monomial key of the power-sum product p_mu."""
    counts = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    return tuple(sorted(counts.items()))


def jack_to_ppoly(lam):
    """The deformed polynomial as a PPoly with alpha evaluated at 1+b."""
    vec = _table_entry(lam)
    scale = _denominator_lcm(vec.values())
    denom = _rings()[0](scale)
    return PPoly({
        _ppoly_key(mu): _series_coeff(_integral(c, scale), denom) for mu, c in vec.items()
    })


# -- the oracle series -------------------------------------------------------


def _content_poly(lam, k, convention):
    """Product over colors c of P_lam(u_c) = prod_boxes (u_c + deformed content).

    Each colour's factor involves alpha and u_c alone, so it is built on its
    own and the k factors are multiplied once, in ZZ[alpha, u, q].
    """
    _, ring = _rings()
    alpha = ring.gens[0]
    contents = []
    for r, row_len in enumerate(lam, start=1):
        for c in range(1, row_len + 1):
            if convention == "standard":
                contents.append(alpha * (c - 1) - (r - 1))
            elif convention == "transpose":
                contents.append(alpha * (r - 1) - (c - 1))
            else:
                raise ValueError("unknown content convention %r" % (convention,))
    acc = ring.one
    for u in ring.gens[1:1 + k]:
        factor = ring.one
        for content in contents:
            factor *= u + content
        acc *= factor
    return acc


def content_product(lam, k, convention="standard"):
    """Product over boxes and colors of (u_l + deformed content)."""
    return _to_field(_content_poly(lam, k, convention))


def content_product_coeff(lam, k, convention="standard"):
    """Same product converted to Coeff (alpha -> 1+b)."""
    return _series_coeff(_content_poly(lam, k, convention), _rings()[0].one)


def _vertex_weight(vec, model):
    """The vertex-side evaluation of a p-coordinate vector over ZZ[alpha, u, q]."""
    if model.r == 1:
        # q_j = [j == 1]: only the p_1^n coordinate survives
        return vec[(1,) * sum(next(iter(vec)))]
    _, ring = _rings()
    qs = (None,) + tuple(g for v, g in zip(VARS, ring.gens) if v[0] == "q")
    acc = ring.zero
    for mu, c in vec.items():
        if mu and max(mu) > model.r:
            continue
        term = c
        for part in mu:
            term *= qs[part]
        acc += term
    return acc


def tau_jack(model, order, convention="standard"):
    """The oracle series up to t^order as a TauSeries.

    Order n is summed in ZZ[alpha, u, q] over the common denominator of
    _series_scales(n); each p-monomial is then one exact division by the
    alpha-free part of that denominator (_series_coeff).
    """
    from .tau import TauSeries

    if order > JACK_BOUND:
        raise JackBoundError(
            "order %d exceeds the configured bound %d" % (order, JACK_BOUND)
        )
    _, ring = _rings()
    coeffs = [PPoly.one()]
    for n in range(1, order + 1):
        vectors, ratios, denom = _series_scales(n)
        vec = {}
        for lam in partitions(n):
            v = vectors[lam]
            weight = _content_poly(lam, model.k, convention) * (
                _vertex_weight(v, model) * ratios[lam]
            )
            if not weight:
                continue
            for mu, c in v.items():
                vec[mu] = vec.get(mu, ring.zero) + c * weight
        coeffs.append(PPoly({
            _ppoly_key(mu): _series_coeff(c, denom) for mu, c in vec.items() if c
        }))
    return TauSeries(model, coeffs)


def calibrate_convention(model, order=2, reference=None):
    """Pick the content convention that matches the evolution engine.

    Tries sizes up to `order` (2 is enough to separate the conventions) and
    returns the matching convention name.  `reference` is an engine series
    of order >= `order` to compare against; without one the engine is run.
    Raises if neither matches; that situation is a finding about the series
    itself and must be reported.
    """
    if reference is None or reference.order < order:
        from .tau import tau_evolve

        reference = tau_evolve(model, order)
    matched = []
    for convention in ("standard", "transpose"):
        series = tau_jack(model, order, convention)
        if all(series.coeff(n) == reference.coeff(n) for n in range(order + 1)):
            matched.append(convention)
    if not matched:
        raise OracleCalibrationError(
            "no content convention reproduces the engine series up to order %d"
            % (order,)
        )
    return matched[0]


def compare_with_engine(model, order, convention=None, engine=None):
    """Full oracle comparison; returns a report dict.

    `engine` is the engine series through `order`, when the caller already
    holds it; otherwise it is evolved here.  Calibration reuses it.
    """
    if engine is None:
        from .tau import tau_evolve

        engine = tau_evolve(model, order)
    if convention is None:
        convention = calibrate_convention(model, reference=engine)
    oracle = tau_jack(model, order, convention)
    first_diff = None
    for n in range(order + 1):
        diff = engine.coeff(n) - oracle.coeff(n)
        if diff:
            mono, coeff = diff.sorted_terms()[0]
            first_diff = {
                "order": n,
                "monomial": [[i, e] for i, e in mono],
                "engine_minus_oracle": str(coeff),
            }
            break
    return {
        "params": {"model": model.name, "order": order, "convention": convention},
        "ok": first_diff is None,
        "first_mismatch": first_diff,
    }
