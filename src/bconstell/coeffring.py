"""Exact scalar arithmetic for the engine.

A :class:`Coeff` is a multivariate polynomial with rational coefficients in
the deformation parameter ``b`` and the model parameters ``u1, u2, u3, q1,
q2, q3``, divided by a power of ``(1+b)``.  This is the only denominator the
engine ever needs; there is deliberately no general division, so any
computation that would require another denominator fails at construction
time instead of producing an approximation.

Representation.  A value is ``n / (den * (1+b)^dp)``: ``n`` maps a packed
monomial key to a non-zero ``int``, ``den`` is one positive ``int`` and ``dp``
is the power of ``(1+b)`` in the denominator.  Values are immutable and kept
in canonical form: ``den`` is coprime to the content (the gcd of the values)
of ``n``, zero is ``({}, 1, 0)``, and ``n`` is not divisible by ``(1+b)``
when ``dp > 0``.  (1+b) is monic, so by Gauss's lemma it divides ``n`` over
the rationals exactly when it divides it over the integers: every
reduction runs on ints.  ``num`` is a read-only view of ``n / den`` term by
term, an ``int`` where integral and a ``Fraction`` otherwise; substitution
reads it, the arithmetic and printing do not (``str`` reduces each
coefficient of ``n`` against ``den`` by one gcd).  A product by a rational
constant (a numerator ``{0: k}`` with ``dp == 0``) scales the other operand's
numerator in one pass and keeps its keys (``_times``).

A key packs the seven exponents into fixed fields of ``FIELD_BITS`` bits,
``b`` in the most significant field and ``q3`` in the least (packed exponent
vectors, after Monagan & Pearce, ISSAC 2007).  The product of two monomials
is then the sum of their keys, and integer order on keys equals
lexicographic order on the exponent tuples ``(b, u1, ..., q3)``, the order in
which ``str`` prints terms.  Exponents stay below the top bit of their
field, so adding two keys never carries into a neighbouring field; a result
that reaches that guard bit raises OverflowError instead of wrapping.

Sums of products.  ``sum_products`` returns the canonical sum of ``a * b * k``
over ``(Coeff, Coeff, rational)`` triples, by one of two paths with the same
result.  Below ``PACKED_PAIRS`` term pairs (the dict path, ``_sum_dict``),
the products sharing a (1+b) power are accumulated on integers into one
dict over the common denominator of their ``den * den * k.denominator``;
every accumulated key passes the overflow guard before cancelled terms are
dropped; each power group is reduced by (1+b) and by the gcd of its
denominator and content once, and the groups are added in ascending power
by ``Coeff.__add__``.  From ``PACKED_PAIRS`` on (the packed path,
``_sum_packed``), each numerator is one int per u, q monomial, its
b-polynomial at X = 2^B; all power groups accumulate into one int per
monomial rescaled by (X+1)^(top - dp), a division by (1+b) is one
``divmod`` by X+1 per int, and B is large enough for every digit to read
back (see ``_digit_width``).  B is rounded up to a multiple of
``WIDTH_CLASS`` bits, and each ``Coeff`` keeps its packed numerator per
width in its ``packed`` slot, so a numerator met by many sums is packed
once per width class and the packing is freed with the ``Coeff``; its
height and b-degree, which bound B, are kept beside it in ``sizes``.
``sum_grouped`` runs ``sum_products`` once per key of a dict of triple
lists.  ``WeylOp.apply``, ``WeylOp.compose``, the structure sums of
``constraints._products_sum`` and ``PPoly`` products and t-convolutions
(``PPoly.sum_products``) sum each output coefficient this way instead of
canonicalising every partial sum.
"""

from fractions import Fraction
from math import comb, gcd, lcm
from types import MappingProxyType

VARS = ("b", "u1", "u2", "u3", "q1", "q2", "q3")
NVARS = len(VARS)

FIELD_BITS = 12
MAX_EXP = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1
_SHIFTS = tuple(FIELD_BITS * (NVARS - 1 - i) for i in range(NVARS))
_VAR_SHIFT = dict(zip(VARS, _SHIFTS))
_B_SHIFT = _SHIFTS[0]
_REST_MASK = (1 << _B_SHIFT) - 1
# a key is valid iff it has no guard bit and nothing above the top field
_BAD_BITS = sum(1 << (s + FIELD_BITS - 1) for s in _SHIFTS) | -(1 << (FIELD_BITS * NVARS))


def _overflow():
    return OverflowError(
        "exponent exceeds the packed field limit %d of the scalar ring" % MAX_EXP
    )


def _pack(exps):
    """Key of the exponent tuple in VARS order."""
    key = 0
    for e in exps:
        if not 0 <= e <= MAX_EXP:
            raise _overflow()
        key = (key << FIELD_BITS) | e
    return key


def _check_keys(num):
    if any(map(_BAD_BITS.__and__, num)):
        raise _overflow()


def add_term(out, key, c):
    """``out[key] += c`` on a sparse dict that never stores a zero value."""
    old = out.get(key)
    if old is None:
        if c:
            out[key] = c
    else:
        s = old + c
        if s:
            out[key] = s
        else:
            del out[key]


def add_terms(out, terms):
    """``out += terms`` on sparse dicts that never store a zero value."""
    if out:
        for key, c in terms.items():
            add_term(out, key, c)
    else:
        out.update(terms)


def _poly_add(p, q):
    """p + q for int-valued dicts, without the cancelled keys."""
    if len(p) < len(q):
        p, q = q, p
    out = dict(p)
    get = out.get
    for e, c in q.items():
        s = get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def _scaled(p, m):
    return p if m == 1 else {e: c * m for e, c in p.items()}


def _mul_into(acc, p, q, m=1):
    """``acc += m * p * q`` for int-valued dicts; cancelled keys stay in acc."""
    if len(p) < len(q):
        p, q = q, p
    get = acc.get
    pitems = p.items()
    for e2, c2 in q.items():
        c2 *= m
        for e1, c1 in pitems:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


def _checked(acc):
    """The accumulated dict without its cancelled keys, every key overflow-checked."""
    _check_keys(acc)
    return {e: c for e, c in acc.items() if c}


def _poly_mul(p, q):
    """p * q for int-valued dicts, every key overflow-checked."""
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1:
        (e2, c2), = q.items()
        out = {e1 + e2: c1 * c2 for e1, c1 in p.items()}
        _check_keys(out)
        return out
    acc = {}
    _mul_into(acc, p, q)
    return _checked(acc)


def _div_one_plus_b(num):
    """Divide an int-valued numerator by (1+b); return the quotient or None."""
    groups = {}
    for key, c in num.items():
        groups.setdefault(key & _REST_MASK, {})[key >> _B_SHIFT] = c
    quot = {}
    for rest, coeffs in groups.items():
        d = max(coeffs)
        if d == 0:
            return None
        # c(b) = (1+b) q(b) + r; reading coefficients from the top.
        q = {}
        qk = coeffs[d]
        q[d - 1] = qk
        for k in range(d - 1, 0, -1):
            qk = coeffs.get(k, 0) - qk
            q[k - 1] = qk
        if coeffs.get(0, 0) != q[0]:
            return None
        for k, c in q.items():
            if c:
                quot[(k << _B_SHIFT) | rest] = c
    return quot


def _one_plus_b_pow(e):
    if e > MAX_EXP:
        raise _overflow()
    return {k << _B_SHIFT: comb(e, k) for k in range(e + 1)}


def _make(n, den, dp):
    """Coeff from an owned dict already in canonical form with den and dp."""
    c = object.__new__(Coeff)
    c.n = n
    c.packed = c.sizes = None
    if n:
        c.den = den
        c.dp = dp
    else:
        c.den = 1
        c.dp = 0
    return c


def _normal(n, den, dp):
    """Coeff from an owned int-valued dict whose (1+b) part is already canonical.

    Divides the gcd of den and the content out of both.
    """
    if den != 1 and n:
        g = gcd(den, *n.values())
        if g != 1:
            n = {e: c // g for e, c in n.items()}
            den //= g
    return _make(n, den, dp)


def _canon(n, den, dp):
    """Coeff from an owned int-valued dict, reduced to canonical form.

    Divides the numerator by (1+b) while it divides and dp > 0.
    """
    while dp > 0 and n:
        quot = _div_one_plus_b(n)
        if quot is None:
            break
        n, dp = quot, dp - 1
    return _normal(n, den, dp)


# a sum with at least this many term pairs takes the packed path; smaller
# sums, such as the commutator sweeps' many sums of a few pairs each, are
# cheaper on the dict path
PACKED_PAIRS = 256
# the packed path rounds its digit width up to a multiple of this many bits,
# so a numerator met by many sums is packed once per width class
WIDTH_CLASS = 64


def sum_products(triples):
    """The canonical Coeff sum of a * b * k over (Coeff, Coeff, rational) triples.

    Below PACKED_PAIRS term pairs the products accumulate by monomial
    (_sum_dict), from there on by packed b-polynomials (_sum_packed).
    """
    if len(triples) == 1:
        (a, b, k), = triples
        p = a * b
        return p if k == 1 else p * k
    groups, pairs = _grouped(triples)
    if pairs >= PACKED_PAIRS:
        return _sum_packed(groups)
    return _sum_dict(groups)


def _grouped(triples):
    """The non-zero triples by (1+b) power, and their number of term pairs.

    Each triple becomes (a, b, k.numerator, a.den * b.den * k.denominator).
    """
    groups = {}
    pairs = 0
    for a, b, k in triples:
        if not (k and a.n and b.n):
            continue
        groups.setdefault(a.dp + b.dp, []).append(
            (a, b, k.numerator, a.den * b.den * k.denominator)
        )
        pairs += len(a.n) * len(b.n)
    return groups, pairs


def _sum_dict(groups):
    """The canonical sum of _grouped's groups, accumulated by monomial.

    Products sharing a (1+b) power accumulate on integers in one dict over a
    common denominator; each such group is checked for exponent overflow
    (before cancelled terms are dropped), reduced to canonical form once,
    and the groups are then added in ascending power.
    """
    total = None
    for dp in sorted(groups):
        items = groups[dp]
        den = lcm(*[d for _, _, _, d in items])
        acc = {}
        for a, b, kn, d in items:
            _mul_into(acc, a.n, b.n, kn * (den // d))
        n = _checked(acc)
        if n:
            part = _canon(n, den, dp)
            total = part if total is None else total + part
    return _make({}, 1, 0) if total is None else total


def _sum_packed(groups):
    """The canonical sum of _grouped's groups, accumulated by packed b-polynomials.

    The least digit width the bounds allow (_digit_width) is rounded up to a
    multiple of WIDTH_CLASS bits; any wider one is as good, and a Coeff
    keeps its packing at each width it meets (_packed).
    """
    if not groups:
        return _make({}, 1, 0)
    shift = _digit_width(groups)
    if shift is None:
        # a product, or a product rescaled to top, passes the b field: the
        # dict path raises where it overflows, and only there
        return _sum_dict(groups)
    return _sum_columns(groups, -(-shift // WIDTH_CLASS) * WIDTH_CLASS)


def _digit_width(groups):
    """The least B for _sum_columns over non-empty groups, or None past the b field.

    No column coefficient exceeds C = sum |kn| (den / d) max|a| max|b|
    min(#a, #b) 2^(top - dp) over the triples, and no column's b-degree
    exceeds deg, the largest b-degree of a rescaled product.  A division by
    (1+b) multiplies the bound on the coefficients, and on the alternating
    sum P(-1), by at most deg + 1.  So with 2^(B-1) > C (deg+1)^(top+1) all
    of them stay inside (-2^(B-1), 2^(B-1)) through top divisions: X+1
    divides a column exactly when P(-1) = 0, and the column reads back
    uniquely as balanced base-X digits.  None when deg passes MAX_EXP.
    """
    top = max(groups)
    den = _common_den(groups)
    bound = deg = 0
    for dp, items in groups.items():
        for a, b, kn, d in items:
            (ma, da), (mb, db) = _sizes(a), _sizes(b)
            bound += (abs(kn) * (den // d) * ma * mb * min(len(a.n), len(b.n))) << (top - dp)
            deg = max(deg, da + db + top - dp)
    if deg > MAX_EXP:
        return None
    return (bound * (deg + 1) ** (top + 1)).bit_length() + 1


def _sum_columns(groups, shift):
    """The canonical sum of non-empty groups by Kronecker substitution at X = 2^shift.

    Kronecker substitution in b alone (von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 8): a numerator becomes one int per u, q monomial
    ("rest"), its b-polynomial at X.  Every product is one int product per
    pair of rests, scaled by kn * (den / d) and by (X+1)^(top - dp), so all
    power groups accumulate into one column per rest over den * (1+b)^top.
    (1+b) divides the numerator exactly when X+1 divides every column, and
    the quotients are the columns of the quotient.  shift must be at least
    _digit_width(groups).
    """
    top = max(groups)
    den = _common_den(groups)
    x1 = (1 << shift) + 1
    packed = {id(c): _packed(c, shift) for c in _operands(groups)}
    acc = {}
    for dp, items in groups.items():
        scale = x1 ** (top - dp)
        for a, b, kn, d in items:
            _mul_into(acc, packed[id(a)], packed[id(b)], kn * (den // d) * scale)
    _check_keys(acc)  # the rest fields, cancelled columns included
    cols = {rest: v for rest, v in acc.items() if v}
    dp = top
    while dp and cols:
        quot = _div_columns(cols, x1)
        if quot is None:
            break
        cols, dp = quot, dp - 1
    return _normal(_unpack(cols, shift), den, dp)


def _common_den(groups):
    """The lcm of the denominators of the triples of groups."""
    return lcm(*[d for items in groups.values() for *_, d in items])


def _operands(groups):
    """The distinct Coeffs of the triples of groups."""
    return {id(c): c for items in groups.values() for a, b, _, _ in items for c in (a, b)}.values()


def _sizes(c):
    """The largest |coefficient| of c.n and its b-degree, computed once per Coeff."""
    sizes = c.sizes
    if sizes is None:
        # key order puts b first
        sizes = c.sizes = (max(map(abs, c.n.values())), max(c.n) >> _B_SHIFT)
    return sizes


def _packed(c, shift):
    """_pack_columns(c.n, shift), packed once per Coeff and shift."""
    cache = c.packed
    if cache is None:
        cache = c.packed = {}
    cols = cache.get(shift)
    if cols is None:
        cols = cache[shift] = _pack_columns(c.n, shift)
    return cols


def _pack_columns(p, shift):
    """{rest: the b-polynomial of p at 2^shift} over the u, q monomials of p."""
    cols = {}
    for key, c in p.items():
        rest = key & _REST_MASK
        cols[rest] = cols.get(rest, 0) + (c << shift * (key >> _B_SHIFT))
    return cols


def _div_columns(cols, x1):
    """Every column divided by x1 = X+1, or None when one leaves a remainder."""
    quot = {}
    for rest, v in cols.items():
        q, r = divmod(v, x1)
        if r:
            return None
        quot[rest] = q
    return quot


def _unpack(cols, shift):
    """The numerator dict of columns of balanced base-2^shift digits."""
    base = 1 << shift
    mask, half = base - 1, base >> 1
    n = {}
    for rest, v in cols.items():
        e = 0
        while v:
            c = v & mask
            if c >= half:
                c -= base
            if c:
                n[(e << _B_SHIFT) | rest] = c
            v = (v - c) >> shift
            e += 1
    return n


def sum_grouped(groups):
    """{key: sum_products(triples)} over {key: triples}, without the zero sums."""
    out = {}
    for key, triples in groups.items():
        c = sum_products(triples)
        if c:
            out[key] = c
    return out


def _times(x, k, d):
    """x * k/d for a Coeff x and k/d in lowest terms, d > 0; x's keys stay.

    x.den is coprime to the content of x.n, and k to d, so only gcd(k, x.den)
    and gcd(d, content) cancel: one pass over the numerator.
    """
    if not k:
        return _make({}, 1, 0)
    if k == d:
        return x
    g = gcd(k, x.den)
    h = 1 if d == 1 else gcd(d, *x.n.values())
    m = k // g
    n = _scaled(x.n, m) if h == 1 else {e: c // h * m for e, c in x.n.items()}
    return _make(n, x.den // g * (d // h), x.dp)


def _factors(key):
    """The printed factors of a monomial key, joined by '*'."""
    factors = []
    for v, shift in _VAR_SHIFT.items():
        e = (key >> shift) & _FIELD_MASK
        if e:
            factors.append(v if e == 1 else "%s^%d" % (v, e))
    return "*".join(factors)


def _rational(x):
    """x as an int when integral, else as a Fraction."""
    if x.__class__ is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Coeff:
    """Exact scalar: polynomial in b, u1..u3, q1..q3 over a power of (1+b)."""

    # packed: None, or _sum_packed's {shift: columns} of n (see _packed);
    # sizes: None, or _digit_width's (height, b-degree) of n (see _sizes)
    __slots__ = ("n", "den", "dp", "packed", "sizes")

    def __init__(self, num=None, dp=0):
        """The value of num / (1+b)^dp for {key: rational} num."""
        num = {e: _rational(c) for e, c in num.items() if c} if num else {}
        _check_keys(num)
        den = lcm(*[c.denominator for c in num.values()])
        if den != 1:
            num = {e: c.numerator * (den // c.denominator) for e, c in num.items()}
        canon = _canon(num, den, dp)
        self.n = canon.n
        self.den = canon.den
        self.dp = canon.dp
        self.packed = self.sizes = None

    @property
    def num(self):
        """The numerator over the rationals, as a read-only {key: rational} mapping."""
        n, den = self.n, self.den
        if den != 1:
            n = {e: Fraction(c, den) if c % den else c // den for e, c in n.items()}
        return MappingProxyType(n)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return _make({}, 1, 0)

    @classmethod
    def one(cls):
        return _make({0: 1}, 1, 0)

    @classmethod
    def from_rational(cls, x):
        x = _rational(x)
        return _make({0: x.numerator} if x else {}, x.denominator, 0)

    @classmethod
    def var(cls, name):
        return _make({1 << _VAR_SHIFT[name]: 1}, 1, 0)

    @classmethod
    def inv_one_plus_b(cls, power=1):
        """1/(1+b)^power."""
        return _make({0: 1}, 1, power)

    @classmethod
    def one_plus_b(cls):
        return cls.one() + cls.var("b")

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def coerce(x):
        """x as a Coeff for a Coeff, int or Fraction, else NotImplemented."""
        if isinstance(x, Coeff):
            return x
        if isinstance(x, (int, Fraction)):
            return Coeff.from_rational(x)
        return NotImplemented

    def __add__(self, other):
        other = Coeff.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.dp < b.dp:
            a, b = b, a
        pa, pb = a.n, b.n
        if a.dp != b.dp:
            pb = _poly_mul(pb, _one_plus_b_pow(a.dp - b.dp))
        den = a.den
        if den != b.den:
            den = lcm(a.den, b.den)
            pa = _scaled(pa, den // a.den)
            pb = _scaled(pb, den // b.den)
        n = _poly_add(pa, pb)
        if a.dp == b.dp and a.dp:
            return _canon(n, den, a.dp)
        # with unequal powers a's numerator is not divisible by (1+b) and the
        # rescaled b's is, so the sum is not either
        return _normal(n, den, a.dp)

    __radd__ = __add__

    def __neg__(self):
        return _make({e: -c for e, c in self.n.items()}, self.den, self.dp)

    def __sub__(self, other):
        other = Coeff.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not Coeff:
            if isinstance(other, (int, Fraction)):
                x = _rational(other)
                return _times(self, x.numerator, x.denominator)
            if not isinstance(other, Coeff):
                return NotImplemented
        # a rational constant scales the other operand, whose keys stay
        if not other.dp and len(other.n) == 1 and 0 in other.n:
            return _times(self, other.n[0], other.den)
        if not self.dp and len(self.n) == 1 and 0 in self.n:
            return _times(other, self.n[0], self.den)
        n = _poly_mul(self.n, other.n)
        den = self.den * other.den
        dp = self.dp + other.dp
        # (1+b) is prime, so a product of numerators not divisible by it is
        # not divisible either; only a dp = 0 factor with several terms can
        # bring (1+b) factors that cancel against the other's denominator.
        if self.dp and other.dp or not dp:
            return _normal(n, den, dp)
        plain = self.n if not self.dp else other.n
        return _normal(n, den, dp) if len(plain) == 1 else _canon(n, den, dp)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not supported")
        out = Coeff.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # a square past the top bit is unused and may overflow
                base = base * base
        return out

    def __bool__(self):
        return bool(self.n)

    def is_zero(self):
        return not self.n

    def __eq__(self, other):
        other = Coeff.coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.dp == other.dp and self.den == other.den and self.n == other.n

    def __hash__(self):
        return hash((self.dp, self.den, frozenset(self.n.items())))

    # -- substitution ------------------------------------------------------

    def subs(self, assignment):
        """Substitute rationals for a subset of the variables."""
        vals = {_VAR_SHIFT[v]: Fraction(x) for v, x in assignment.items()}
        num = {}
        for key, c in self.num.items():
            t = c
            for shift, v in vals.items():
                e = (key >> shift) & _FIELD_MASK
                if e:
                    t *= v ** e
                    key &= ~(_FIELD_MASK << shift)
            add_term(num, key, t)
        dp = self.dp
        if _B_SHIFT in vals and dp:
            scale = 1 + vals[_B_SHIFT]
            if scale == 0:
                raise ZeroDivisionError("substituting b = -1 with a (1+b) denominator")
            return Coeff(num) * (1 / scale ** dp)
        return Coeff(num, dp)

    # -- serialization -----------------------------------------------------

    def __str__(self):
        n = self.n
        if not n:
            return "0"
        den = self.den
        rests = {}  # the u, q factors of each u, q monomial, built once
        parts = []
        for key in sorted(n, reverse=True):
            c = n[key]
            neg = c < 0
            if neg:
                c = -c
            g = gcd(c, den)
            # a unit magnitude is printed only on the constant monomial
            if g != den:
                factors = ["%d/%d" % (c // g, den // g)]
            elif c != den or not key:
                factors = [str(c // den)]
            else:
                factors = []
            if key > _REST_MASK:
                e = key >> _B_SHIFT
                factors.append("b" if e == 1 else "b^%d" % e)
            rest = key & _REST_MASK
            if rest:
                uq = rests.get(rest)
                if uq is None:
                    uq = rests[rest] = _factors(rest)
                factors.append(uq)
            body = "*".join(factors)
            if parts:
                parts.append((" - " if neg else " + ") + body)
            else:
                parts.append("-" + body if neg else body)
        num_s = "".join(parts)
        if not self.dp:
            return num_s
        if len(n) > 1 or num_s.startswith("-"):
            num_s = "(" + num_s + ")"
        return "%s/(1+b)^%d" % (num_s, self.dp)

    __repr__ = __str__


ZERO = Coeff.zero()
ONE = Coeff.one()
B = Coeff.var("b")
ONE_PLUS_B = Coeff.one_plus_b()
INV_1PB = Coeff.inv_one_plus_b()
U = [None] + [Coeff.var(v) for v in VARS if v[0] == "u"]
Q = [None] + [Coeff.var(v) for v in VARS if v[0] == "q"]
