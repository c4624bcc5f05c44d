"""Independent tau oracle through deformed symmetric functions.

The series is reassembled from scratch: for each size n, sum over
partitions of n the product of the one-parameter deformed polynomials in
the face variables and in the vertex-degree variables, weighted by a
content product and divided by the squared norm.  Nothing here touches the
evolution engine, so exact agreement of the two series is a real check.

The deformed polynomials J_lam are constructed by Gram-Schmidt against the
lexicographic order (which refines dominance) over the alpha-deformed
power-sum pairing, normalized so the coefficient of p_1^n is 1.  Their
p-coordinates are integer polynomials in alpha, held as dense univariate
lists over ZZ (the module's own arithmetic, below).  The start vector of lam
is its augmented monomial prod_i m_i(lam)! m_lam, whose p-coordinates are
integers given by one Moebius sum over the set partitions of lam's parts
(_m_in_p).  Each projection step is v <- <g,g> v - <v,g> g against a
finished vector g, with both factors divided by their gcd in ZZ[alpha].  The
finished vector is made primitive (its coordinates have gcd 1 in
ZZ[alpha]), which drops the start vector's own scale; its p_1^n coordinate
must then be 1 or -1, and the sign is chosen to make it 1, so the vector is
J_lam itself.  Any other p_1^n coordinate raises JackTableError.  Every
norm <v,v> is checked in ZZ[alpha] against Stanley's closed form
j_lam = prod_s (alpha a(s) + l(s) + 1)(alpha a(s) + l(s) + alpha); a
differing norm raises JackTableError too, so the series reads the closed
form.

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

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial, gcd, lcm

from .coeffring import _B_SHIFT, VARS, Coeff, _pack, add_term
from .ppoly import PPoly, pm_normal


JACK_BOUND = 10


class JackBoundError(ValueError):
    """Requested partition size exceeds the configured bound."""


class OracleDenominatorError(ArithmeticError):
    """A series coefficient did not reduce to a power of (1+b)."""


class OracleCalibrationError(ArithmeticError):
    """Neither content convention reproduced the engine series."""


class JackTableError(ArithmeticError):
    """The Gram-Schmidt table failed its exact division or its norm check."""


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


def _inner_gcd(f, g):
    """(h, f / h, g / h) with h = _gcd(f, g); all three are [] when f = g = []."""
    h = _gcd(f, g)
    if not h:
        return [], [], []
    return h, _exquo(f, h), _exquo(g, h)


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


@lru_cache(maxsize=None)
def _m_in_p(n):
    """Each augmented monomial prod_i m_i(lam)! m_lam over the p basis (integers).

    Moebius inversion on the lattice of set partitions (Doubilet 1972):
    the augmented monomial of lam is the sum over the set partitions sigma
    of lam's parts of prod_B (-1)^(|B|-1) (|B|-1)! p_lam(sigma), where
    lam(sigma) sorts the block sums.  The parts are placed one at a time,
    each in a new block or in an existing block of size s, which multiplies
    the coefficient by -s.
    """
    table = {}
    for lam in partitions(n):
        terms = [((), 1)]
        for part in lam:
            terms = [(blocks + ((1, part),), c) for blocks, c in terms] + [
                (blocks[:i] + ((size + 1, total + part),) + blocks[i + 1:], -size * c)
                for blocks, c in terms
                for i, (size, total) in enumerate(blocks)
            ]
        row = {}
        for blocks, c in terms:
            add_term(row, tuple(sorted((total for _, total in blocks), reverse=True)), c)
        table[lam] = row
    return table


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
    for r, row_len in enumerate(lam):
        for c in range(row_len):
            arm = row_len - c - 1
            leg = sum(1 for below in lam[r + 1:] if below > c)
            acc = _mul(acc, _strip([arm, leg + 1]))
            acc = _mul(acc, [arm + 1, leg])
    return acc


@lru_cache(maxsize=None)
def _jack_table(n):
    """All deformed polynomials of size n as p-coordinate vectors over dense ZZ[alpha].

    The vector of lam is J_lam: primitive (its coordinates have gcd 1 in
    ZZ[alpha]), with p_1^n coordinate 1.
    """
    if n > JACK_BOUND:
        raise JackBoundError("size %d exceeds the configured bound %d" % (n, JACK_BOUND))
    if n == 0:
        return {(): {(): [1]}}
    m_in_p = _m_in_p(n)
    ones = (1,) * n
    done = []
    table = {}
    # increasing lexicographic order refines dominance upward
    for lam in reversed(partitions(n)):
        v = {mu: [c] for mu, c in m_in_p[lam].items()}
        for g, norm in done:
            c = _inner_field(v, g)
            if c:
                # v <- <g,g> v - <v,g> g, both factors divided by their gcd
                _, scale, c = _inner_gcd(norm, c)
                v = {
                    mu: _sub(_mul(scale, v.get(mu, [])), _mul(c, g.get(mu, [])))
                    for mu in set(v) | set(g)
                }
                v = {mu: x for mu, x in v.items() if x}
        content = reduce(_gcd, v.values())
        v = {mu: _exquo(x, content) for mu, x in v.items()}
        lead = v.get(ones, [])
        if lead == [-1]:
            v = {mu: _neg(x) for mu, x in v.items()}
        elif lead != [1]:
            raise JackTableError(
                "J%s: the primitive Gram-Schmidt vector has p_1^%d coordinate %s, "
                "not 1 or -1" % (lam, n, alpha_str(lead))
            )
        norm = _inner_field(v, v)
        expected = _stanley_norm(lam)
        if norm != expected:
            raise JackTableError(
                "J%s: Gram-Schmidt norm %s differs from the closed form %s "
                "(dense coefficients in alpha)" % (lam, norm, expected)
            )
        done.append((v, norm))
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
    with every group, with a positive leading coefficient.  Each alpha^e
    then becomes the binomial row of (1+b)^e, expanded once per distinct e.
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
    rows = {}
    num = {}
    for rest, c in groups.items():
        key = _pack((0,) + rest)
        for i, x in enumerate(c):
            if not x:
                continue
            e = len(c) - 1 - i
            row = rows.get(e)
            if row is None:
                row = rows[e] = [comb(e, k) for k in range(e + 1)]
            for k, binom in enumerate(row):
                add_term(num, key + (k << _B_SHIFT), x * binom)
    out = Coeff(num, a)
    return out if content == 1 else out * Fraction(1, content)


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
