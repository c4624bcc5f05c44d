"""Independent tau oracle through deformed symmetric functions.

The series is reassembled from scratch: for each size n, sum over
partitions of n the product of the one-parameter deformed polynomials in
the face variables and in the vertex-degree variables, weighted by a
content product and divided by the squared norm.  Nothing here touches the
evolution engine, so exact agreement of the two series is a real check.

The deformed polynomials J_lam are built by two triangular steps, with no
inner product (_jack_vector).  Their monomial coordinates come from the
Laplace-Beltrami operator D(alpha), whose eigenvector J_lam is: the
coordinate of m_lam is the lower hook product prod_s (alpha a(s) + l(s) + 1),
and each lower one, in decreasing lex order (which refines dominance), is
one exact division by the linear factor e_lam - e_mu of a sum over the
integer raising coefficients of D(alpha) (Stanley 1989, Adv. Math. 77).
Their p-coordinates, integer polynomials in alpha held as dense univariate
lists over ZZ (the module's own arithmetic, below), then follow by
back-substitution through the integer transition matrix R_rho,mu of p_rho
in the monomial basis, one exact division by R_mu,mu = prod_i m_i(mu)! per
coordinate.  Both integer matrices are memoised per size (_triangles).
Every finished vector must have p_1^n coordinate 1, and its norm
<J_lam, J_lam> must equal Stanley's closed form
j_lam = prod_s (alpha a(s) + l(s) + 1)(alpha a(s) + l(s) + alpha) in
ZZ[alpha]; either failure, or an inexact division in either step, raises
JackTableError, so the series reads the closed form.

The series at order n is accumulated on integers, as one dense ZZ[alpha]
list per p-monomial and u, q monomial (a u, q monomial is its exponent
tuple in VARS[1:] order).  Every weight is scaled by D_n / j_lam, where D_n
is the lcm of the closed-form norms of size n in ZZ[alpha], so these ratios
are integer polynomials (_norm_ratios, memoised per size).  The content
product prod_c P_lam(u_c) is built from the rows of P_lam(u), one dense list
per power of u (_content_rows), and multiplied with the vertex-side sum and
the ratio by u, q monomial (_weight).  The sum over lam is one packed
big-int assembly (_assemble, Kronecker substitution).  Each output
p-monomial is then N / D_n, and its denominator must reduce to a power of
alpha = 1+b.  Writing that denominator as c alpha^a D' with D' free of
alpha, this holds exactly when D' divides N, which _series_coeff checks by
one exact division by D' per u, q monomial; an inexact one raises
OracleDenominatorError.  The engine's scalar ring cannot host the
intermediate norms (their denominators are not powers of 1+b), and keeping
the oracle on a separate arithmetic stack is the point; values cross into
Coeff only in _series_coeff.  jack returns the table's dense lists, and
alpha_str prints one as a polynomial in alpha (-36*alpha**4 + 36*alpha**3,
alpha - 1, 1).

The deformed content of a box is a convention to calibrate, not to assume:
c(row r, column c) = alpha*(c-1) - (r-1) ("standard") or its transpose
with the deformation on rows ("transpose").  calibrate_convention settles
it empirically against the evolution engine at sizes <= 2 and the caller
is told which one matched.
"""

from functools import lru_cache, reduce
from math import comb, factorial, gcd, lcm

from .coeffring import _B_SHIFT, VARS, _check_keys, _normal, _pack, add_term
from .ppoly import PPoly, pm_normal


JACK_BOUND = 12


class JackBoundError(ValueError):
    """Requested partition size exceeds the configured bound."""


class OracleDenominatorError(ArithmeticError):
    """A series coefficient did not reduce to a power of (1+b)."""


class OracleCalibrationError(ArithmeticError):
    """Neither content convention reproduced the engine series."""


class JackTableError(ArithmeticError):
    """A table vector failed an exact division, its p_1^n coordinate or its norm check."""


# -- dense ZZ[alpha] arithmetic -----------------------------------------------
# A polynomial in alpha is a list of ints, highest degree first, with no
# leading zero; [] is zero.  Results follow sympy's dup_* over ZZ, signs
# included, which tests/test_jack_reference.py checks result for result.


class _InexactQuotient(ArithmeticError):
    """A dense ZZ[alpha] division left a remainder."""


def _strip(f):
    """f without its leading zeros."""
    for i, x in enumerate(f):
        if x:
            return f[i:] if i else f
    return []


def _add(f, g):
    d = len(f) - len(g)
    if d > 0:
        return f[:d] + [x + y for x, y in zip(f[d:], g)]
    if d < 0:
        return g[:-d] + [x + y for x, y in zip(f, g[-d:])]
    return _strip([x + y for x, y in zip(f, g)])


def _neg(f):
    return [-x for x in f]


def _sub(f, g):
    return _add(f, _neg(g))


def _mul(f, g):
    if not f or not g:
        return []
    if len(f) < len(g):
        f, g = g, f
    if len(g) == 1:
        c = g[0]
        return [c * x for x in f]
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(g):
        if c:
            for j, x in enumerate(f, i):
                out[j] += c * x
    return out


def _mul_ground(f, c):
    return [c * x for x in f] if c else []


def _exquo(f, g):
    """f / g for a non-zero g; raises _InexactQuotient unless g divides f."""
    top = max(len(f) - len(g) + 1, 0)
    lc, tail = g[0], g[1:]
    r = list(f)
    for i in range(top):
        q, rem = divmod(r[i], lc)
        if rem:
            break
        r[i] = q
        for j, y in enumerate(tail, i + 1):
            r[j] -= q * y
    else:
        if not any(r[top:]):
            return r[:top]
    raise _InexactQuotient("%s does not divide %s" % (g, f))


def _primitive(f):
    """(content, f / content), the content a non-negative integer."""
    content = reduce(gcd, f, 0)
    if content in (0, 1):
        return content, f
    return content, [x // content for x in f]


def _prem(f, g):
    """The remainder of f by g times a non-zero integer (f, g non-zero)."""
    lc, tail = g[0], g[1:]
    while len(f) >= len(g):
        c = f[0]
        pad = [0] * (len(f) - len(g))
        f = _strip([lc * x - c * y for x, y in zip(f[1:], tail + pad)])
    return f


def _gcd(f, g):
    """gcd in ZZ[alpha] with a positive leading coefficient.

    The primitive pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1)
    gives the primitive part; the gcd of the contents multiplies it.
    """
    fc, f = _primitive(f)
    gc, g = _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        f, g = g, _primitive(_prem(f, g))[1]
    c = gcd(fc, gc)
    return _mul_ground(f, -c if f and f[0] < 0 else c)


def _lcm(f, g):
    """lcm in ZZ[alpha] with a positive leading coefficient; [] if f or g is zero."""
    if not f or not g:
        return []
    fc, f = _primitive(f)
    gc, g = _primitive(g)
    h = _exquo(_mul(f, g), _gcd(f, g))
    c = lcm(fc, gc)
    return _mul_ground(h, -c if h[0] < 0 else c)


def alpha_str(f):
    """f as a polynomial in alpha, highest degree first: -36*alpha**4 + 36*alpha**3."""
    out = ""
    for i, c in enumerate(f):
        if c:
            e = len(f) - 1 - i
            mono = "alpha**%d" % e if e > 1 else "alpha" if e else ""
            coeff = "" if abs(c) == 1 and mono else str(abs(c))
            out += (" - " if c < 0 else " + ") + coeff + ("*" if coeff and mono else "") + mono
    if not out:
        return "0"
    return ("-" if out[1] == "-" else "") + out[3:]


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


def _ppoly_key(mu):
    """The PPoly monomial key of the power-sum product p_mu."""
    return pm_normal((part, 1) for part in mu)


def z_of(lam):
    """The symmetry factor prod_i i^{m_i} m_i!."""
    z = 1
    for part, m in _ppoly_key(lam):
        z *= part ** m * factorial(m)
    return z


# -- tables and basis conversions --------------------------------------------


# slots of u_c and q_j in a u, q exponent tuple (the VARS[1:] order)
_U_SLOTS = tuple(i for i, v in enumerate(VARS[1:]) if v[0] == "u")
_Q_SLOTS = (None,) + tuple(i for i, v in enumerate(VARS[1:]) if v[0] == "q")
_NO_UQ = (0,) * (len(VARS) - 1)


def _inner_field(f, g):
    """alpha-deformed pairing of two p-coordinate vectors over dense ZZ[alpha].

    <p_lam, p_lam> = alpha^len(lam) z_lam, and distinct p_lam are orthogonal.
    The result is a dense list, highest degree first; [] is zero.
    """
    acc = []
    for lam, cf in f.items():
        cg = g.get(lam)
        if cg:
            term = _mul_ground(_mul(cf, cg), z_of(lam))
            acc = _add(acc, term + [0] * len(lam))
    return acc


def _stanley_norm(lam):
    """Closed form prod_s (alpha a(s) + l(s) + 1)(alpha a(s) + l(s) + alpha).

    a(s) and l(s) are the arm and leg of box s (Stanley 1989, Adv. Math. 77;
    Macdonald, Symmetric Functions and Hall Polynomials, VI.10); returned
    as a dense ZZ[alpha] list.
    """
    acc = [1]
    for arm, leg in _arms_and_legs(lam):
        acc = _mul(acc, _strip([arm, leg + 1]))
        acc = _mul(acc, [arm + 1, leg])
    return acc


def _count_maps(parts, caps, memo):
    """The maps from the parts to rows of capacities caps that fill every row.

    parts and caps are weakly decreasing tuples of equal sum.  Rows of equal
    remaining capacity are interchangeable, so the state is the sorted
    capacities and a part placed in one of m rows of capacity c counts m
    times; memo is shared by every call of one size.
    """
    if not parts:
        return 1
    key = parts, caps
    count = memo.get(key)
    if count is None:
        first, rest = parts[0], parts[1:]
        count = 0
        for i, c in enumerate(caps):
            if c < first:
                break
            if i and caps[i - 1] == c:
                continue
            left = caps[:i] + caps[i + 1:]
            if c > first:
                left = tuple(sorted(left + (c - first,), reverse=True))
            count += caps.count(c) * _count_maps(rest, left, memo)
        memo[key] = count
    return count


@lru_cache(maxsize=None)
def _triangles(n):
    """The integer matrices of both triangular steps at size n.

    Returns (transition, raising), each {mu: {partition: int}} over the
    partitions mu of n.  transition[mu][rho] = R_rho,mu, the coefficient of
    m_mu in p_rho: the maps from rho's parts to mu's rows whose row sums are
    mu (Macdonald, Symmetric Functions and Hall Polynomials, I.6).  It is
    non-zero only for rho <= mu in dominance, and R_mu,mu = prod_i m_i(mu)!.
    raising[mu][nu] = c_nu,mu, the coefficient of m_mu in D(alpha) m_nu off
    the diagonal (Stanley 1989, Adv. Math. 77, section 3).  The part of
    D(alpha) that mixes the rows i < j sends the pair of exponents (a, c),
    a > c, to (a - c) sum_{0<r<a-c} x_i^(a-r) x_j^(c+r), so c_nu,mu sums
    p - q over the pairs of mu's non-zero parts (mu_i, mu_j), i < j, raised
    to (p, q) = (mu_i + r, mu_j - r), 0 < r <= mu_j, that sort to nu > mu.
    """
    parts = partitions(n)
    memo = {}
    transition = {}
    raising = {}
    for k, mu in enumerate(parts):
        row = {}
        for rho in parts[k:]:  # lex order refines dominance: rho <= mu sits here
            count = _count_maps(rho, mu, memo)
            if count:
                row[rho] = count
        transition[mu] = row
        coeffs = {}
        for j in range(1, len(mu)):
            for i in range(j):
                for r in range(1, mu[j] + 1):
                    nu = list(mu)
                    nu[i] += r
                    nu[j] -= r
                    nu = tuple(sorted((x for x in nu if x), reverse=True))
                    coeffs[nu] = coeffs.get(nu, 0) + mu[i] - mu[j] + 2 * r
        raising[mu] = coeffs
    return transition, raising


def _n_of(lam):
    """n(lam) = sum_i (i-1) lam_i."""
    return sum(i * part for i, part in enumerate(lam))


def _n_of_conjugate(lam):
    """n(lam') = sum_i binom(lam_i, 2)."""
    return sum(part * (part - 1) // 2 for part in lam)


def _arms_and_legs(lam):
    """(a(s), l(s)) for every box s of lam, row by row."""
    for r, row_len in enumerate(lam):
        for c in range(row_len):
            yield row_len - c - 1, sum(1 for below in lam[r + 1:] if below > c)


def _jack_vector(lam, parts, transition, raising):
    """J_lam over the p basis: its monomial coordinates, then back-substitution.

    The monomial coordinate of lam is the lower hook product
    prod_s (alpha a(s) + l(s) + 1).  J_lam is the eigenvector of D(alpha)
    with eigenvalue e_lam = alpha n(lam') - n(lam), up to a constant shared
    by every partition of n, so for mu below lam in decreasing lex order
    (e_lam - e_mu) v_mu = sum_nu c_nu,mu v_nu: one exact division by a
    linear factor in ZZ[alpha] (J_lam is integral in the monomial basis,
    Knop and Sahi 1997).  Then v_mu = sum_rho w_rho R_rho,mu is solved for
    the p-coordinates w in increasing lex order, one exact division by the
    integer R_mu,mu each.  v_mu is zero unless mu <= lam in dominance, and
    those mu all follow lam in decreasing lex order.
    """
    below = parts[parts.index(lam):]
    eigen = {mu: [_n_of_conjugate(mu), -_n_of(mu)] for mu in below}
    lead = [1]
    for arm, leg in _arms_and_legs(lam):
        lead = _mul(lead, _strip([arm, leg + 1]))
    v = {lam: lead}
    for mu in below[1:]:
        rhs = []
        for nu, c in raising[mu].items():
            x = v.get(nu)
            if x:
                rhs = _add(rhs, _mul_ground(x, c))
        if rhs:
            # rhs != 0 puts mu strictly below lam in dominance, so e_lam != e_mu
            v[mu] = _exquo(rhs, _sub(eigen[lam], eigen[mu]))
    w = {}
    for mu in reversed(parts):
        x = v.get(mu, [])
        for rho, count in transition[mu].items():
            if rho in w:  # every rho but mu, which is not solved yet
                x = _add(x, _mul_ground(w[rho], -count))
        if x:
            w[mu] = _exquo(x, [transition[mu][mu]])
    return w


@lru_cache(maxsize=None)
def _jack_table(n):
    """All deformed polynomials of size n as p-coordinate vectors over dense ZZ[alpha].

    The vector of lam is J_lam, built by the two triangular steps of
    _jack_vector, and must have p_1^n coordinate 1 and the norm <J_lam, J_lam>
    of Stanley's closed form; neither check takes part in the construction.
    """
    if n > JACK_BOUND:
        raise JackBoundError("size %d exceeds the configured bound %d" % (n, JACK_BOUND))
    if n == 0:
        return {(): {(): [1]}}
    parts = partitions(n)
    transition, raising = _triangles(n)
    ones = (1,) * n
    table = {}
    for lam in reversed(parts):
        try:
            v = _jack_vector(lam, parts, transition, raising)
        except _InexactQuotient as exc:
            raise JackTableError(
                "J%s: the triangular construction left a remainder: %s" % (lam, exc)
            ) from None
        lead = v.get(ones, [])
        if lead != [1]:
            raise JackTableError(
                "J%s: the p_1^%d coordinate is %s, not 1" % (lam, n, alpha_str(lead))
            )
        norm = _inner_field(v, v)
        expected = _stanley_norm(lam)
        if norm != expected:
            raise JackTableError(
                "J%s: the norm %s differs from the closed form %s "
                "(dense coefficients in alpha)" % (lam, norm, expected)
            )
        table[lam] = v
    return table


@lru_cache(maxsize=None)
def _norm_ratios(n):
    """The ratios D_n / j_lam by partition lam of n, and D_n, over dense ZZ[alpha].

    j_lam is Stanley's closed form, which _jack_table checked against
    <J_lam, J_lam>, and D_n is the lcm of the j_lam of size n in ZZ[alpha],
    so the ratios are integer polynomials.
    """
    norms = {lam: _stanley_norm(lam) for lam in partitions(n)}
    common = reduce(_lcm, norms.values())
    return {lam: _exquo(common, norm) for lam, norm in norms.items()}, common


def jack(lam):
    """The deformed polynomial indexed by lam, as {partition: dense ZZ[alpha] list}."""
    lam = tuple(sorted(lam, reverse=True))
    if any(part <= 0 for part in lam):
        raise ValueError("partitions have positive parts")
    return {mu: list(c) for mu, c in _jack_table(sum(lam))[lam].items()}


def _series_coeff(groups, denom):
    """sum_rest groups[rest] u^rest / denom as a Coeff with alpha -> 1+b.

    groups maps u, q exponent tuples (VARS[1:] order) to dense ZZ[alpha]
    lists, and denom is a non-zero dense ZZ[alpha] list; loud unless the
    fraction reduces to c / alpha^a.  Write denom = c alpha^a D' with D' a
    primitive integer polynomial and D'(0) > 0.  alpha and D' are coprime,
    so the reduced fraction has a power of alpha as denominator exactly
    when D' divides every group; D' is primitive, so it divides over ZZ
    whenever it divides over QQ (Gauss's lemma): one exact division per
    group.  Only when a division is inexact is the denominator of the
    cancelled fraction computed, for the error message: denom over its gcd
    with every group, with a positive leading coefficient.  alpha = 1+b
    divides the numerator exactly when every group's alpha^0 coefficient is
    0, so the common trailing zeros of the groups, at most a of them, are
    stripped and a lowered by their count; the rest is already canonical.
    Each alpha^e then becomes the binomial row of (1+b)^e, expanded once
    per distinct e.
    """
    a = next(i for i, x in enumerate(reversed(denom)) if x)
    content, dprime = _primitive(denom[:len(denom) - a])
    if dprime[-1] < 0:
        content, dprime = -content, _neg(dprime)
    if len(dprime) > 1:
        try:
            groups = {rest: _exquo(c, dprime) for rest, c in groups.items()}
        except _InexactQuotient:
            reduced = _exquo(denom, reduce(_gcd, groups.values(), denom))
            raise OracleDenominatorError(
                "series coefficient has a non-(1+b) denominator: %s; this is a "
                "finding to report, not to patch"
                % (alpha_str(_neg(reduced) if reduced[0] < 0 else reduced),)
            ) from None
    shift = min([a] + [
        next((i for i, x in enumerate(reversed(c)) if x), a) for c in groups.values()
    ])
    a -= shift
    rows = {}
    num = {}
    for rest, c in groups.items():
        key = _pack((0,) + rest)
        for i, x in enumerate(c[:len(c) - shift]):
            if not x:
                continue
            e = len(c) - 1 - shift - i
            row = rows.get(e)
            if row is None:
                row = rows[e] = [comb(e, k) for k in range(e + 1)]
            for k, binom in enumerate(row):
                add_term(num, key + (k << _B_SHIFT), x * binom)
    if content < 0:
        num = {key: -x for key, x in num.items()}
    _check_keys(num)
    return _normal(num, abs(content), a)


def jack_to_ppoly(lam):
    """The deformed polynomial as a PPoly with alpha evaluated at 1+b."""
    return PPoly({
        _ppoly_key(mu): _series_coeff({_NO_UQ: c}, [1]) for mu, c in jack(lam).items()
    })


# -- the oracle series -------------------------------------------------------


def _content_rows(lam, convention):
    """P_lam(u) = prod_boxes (u + deformed content) as rows over dense ZZ[alpha].

    rows[e] is the coefficient of u^e.
    """
    rows = [[1]]
    for r, row_len in enumerate(lam):
        for c in range(row_len):
            if convention == "standard":
                content = _strip([c, -r])
            elif convention == "transpose":
                content = _strip([r, -c])
            else:
                raise ValueError("unknown content convention %r" % (convention,))
            # (u + content) sum_e rows[e] u^e: new rows[e] = rows[e-1] + content rows[e]
            rows = [
                _add(low, _mul(content, high))
                for low, high in zip([[]] + rows, rows + [[]])
            ]
    return rows


def _weight(vec, ratio, rows, model):
    """ratio times the vertex-side sum of vec times prod_c P_lam(u_c), by u, q monomial.

    vec is the p-coordinate vector of J_lam and ratio a scale, both over
    dense ZZ[alpha]; rows are the content rows of P_lam.  Returns {u, q
    exponents: dense ZZ[alpha] list} without zero entries.
    """
    if model.r == 1:
        # q_j = [j == 1]: only the p_1^n coordinate, 1, survives
        weight = {_NO_UQ: ratio}
    else:
        weight = {}
        for mu, c in vec.items():
            if mu and max(mu) > model.r:
                continue
            rest = list(_NO_UQ)
            for part in mu:
                rest[_Q_SLOTS[part]] += 1
            weight[tuple(rest)] = _mul(c, ratio)
    # distinct mu (parts <= r) and distinct u exponents give distinct keys
    for slot in _U_SLOTS[:model.k]:
        weight = {
            rest[:slot] + (e,) + rest[slot + 1:]: _mul(x, row)
            for rest, x in weight.items()
            for e, row in enumerate(rows)
            if row
        }
    return weight


def _assemble(table, weights):
    """sum_lam table[lam][mu] weights[lam][rest] by mu and rest, over dense ZZ[alpha].

    Kronecker substitution (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 8): alpha becomes 2^B, and every u, q monomial rest gets a
    slot of L digits, L the longest product.  A polynomial is then one int,
    each lam's whole weight dict one int, and each (lam, mu) product one
    big-int product.  Every digit of a sum lies in (-2^(B-1), 2^(B-1)), so
    adding 2^(B-1) to every digit leaves no carry and to_bytes reads each
    one back.  Returns {mu: {rest: dense list}} without empty lists or mu.
    """
    slots = list(dict.fromkeys(rest for w in weights.values() for rest in w))
    cs = [c for v in table.values() for c in v.values()]
    ws = [w for weight in weights.values() for w in weight.values()]
    lc, lw = max(map(len, cs), default=0), max(map(len, ws), default=0)
    if not (lc and lw):
        return {}  # every product is zero
    width = lc + lw - 1
    top = max(abs(x) for c in cs for x in c) * max(abs(x) for w in ws for x in w)
    nb = (len(table) * min(lc, lw) * top).bit_length() // 8 + 1
    half = 1 << (8 * nb - 1)
    zero = half.to_bytes(nb, "big")

    def pack(fs, n):
        """The lists fs, each in n digits (leading zeros first), as one int."""
        buf = b"".join(
            zero * (n - len(f)) + b"".join((x + half).to_bytes(nb, "big") for x in f)
            for f in fs
        )
        return int.from_bytes(buf, "big") - int.from_bytes(zero * (n * len(fs)), "big")

    sums = {}
    for lam, v in table.items():
        packed = pack([weights[lam].get(rest, []) for rest in slots], width)
        for mu, c in v.items():
            sums[mu] = sums.get(mu, 0) + pack([c], len(c)) * packed
    del weights, ws  # unpacking is the peak; a caller holding no weights frees them
    out = {}
    size = width * nb
    offset = int.from_bytes(zero * (width * len(slots)), "big")
    for mu in list(sums):
        buf = (sums.pop(mu) + offset).to_bytes(size * len(slots), "big")
        groups = {}
        for i, rest in enumerate(slots):
            f = _strip([
                int.from_bytes(buf[k:k + nb], "big") - half
                for k in range(i * size, (i + 1) * size, nb)
            ])
            if f:
                groups[rest] = f
        if groups:
            out[mu] = groups
    return out


def tau_jack(model, order, convention="standard"):
    """The oracle series up to t^order as a TauSeries.

    Order n is summed per p-monomial and u, q monomial over dense ZZ[alpha]
    by _assemble, over the common denominator D_n of _norm_ratios(n); each
    p-monomial is then one exact division by the alpha-free part of that
    denominator per u, q monomial (_series_coeff).
    """
    from .tau import TauSeries

    if order > JACK_BOUND:
        raise JackBoundError(
            "order %d exceeds the configured bound %d" % (order, JACK_BOUND)
        )
    coeffs = [PPoly.one()]
    for n in range(1, order + 1):
        table = _jack_table(n)
        ratios, denom = _norm_ratios(n)
        sums = _assemble(table, {
            lam: _weight(v, ratios[lam], _content_rows(lam, convention), model)
            for lam, v in table.items()
        })
        coeffs.append(PPoly({
            _ppoly_key(mu): _series_coeff(groups, denom) for mu, groups in sums.items()
        }))
    return TauSeries(coeffs)


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
    holds it; otherwise it is evolved here, through t^max(order, 2) so that
    calibration reuses it.
    """
    if engine is None:
        from .tau import tau_evolve

        engine = tau_evolve(model, max(order, 2))
    if convention is None:
        convention = calibrate_convention(model, reference=engine)
    oracle = tau_jack(model, order, convention)
    first_diff = None
    for n in range(order + 1):
        diff = engine.coeff(n) - oracle.coeff(n)
        if diff:
            (mono, coeff), = diff.first_term().terms.items()
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
