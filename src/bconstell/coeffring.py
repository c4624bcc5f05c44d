"""Exact scalar arithmetic for the engine.

A :class:`Coeff` is a multivariate polynomial with rational coefficients in
the deformation parameter ``b`` and the model parameters ``u1, u2, u3, q1,
q2, q3``, divided by a power of ``(1+b)``.  This is the only denominator the
engine ever needs; there is deliberately no general division, so any
computation that would require another denominator fails at construction
time instead of producing an approximation.

Values are immutable and kept in canonical form: the numerator is not
divisible by ``(1+b)`` unless the denominator power is zero.

Representation.  ``num`` maps a packed monomial key to its coefficient and
``dp`` is the power of ``(1+b)`` in the denominator.  A key packs the seven
exponents into fixed fields of ``FIELD_BITS`` bits, ``b`` in the most
significant field and ``q3`` in the least (packed exponent vectors, after
Monagan & Pearce, ISSAC 2007).  The product of two monomials is then the sum
of their keys, and integer order on keys equals lexicographic order on the
exponent tuples ``(b, u1, ..., q3)``, the order in which ``str`` prints
terms.  Exponents stay below the top bit of their field, so adding two keys
never carries into a neighbouring field; a result that reaches that guard
bit raises OverflowError instead of wrapping.  A coefficient is a plain
``int`` whenever it is integral and a ``Fraction`` only otherwise; products
run on integers throughout, with any denominators lifted out first.

Sums of products.  ``sum_products`` returns the canonical sum of ``a * b * k``
over ``(Coeff, Coeff, rational)`` triples.  The products sharing a (1+b)
power are accumulated on integers into one dict at a common denominator;
every accumulated key passes the overflow guard before cancelled terms are
dropped; each power group is reduced to canonical form once, and the groups
are added in ascending power by ``Coeff.__add__``, the one place that
rescales by (1+b)^k.  ``sum_grouped`` runs it once per key of a dict of
triple lists.  ``WeylOp.apply``, ``WeylOp.compose`` and ``PPoly`` products and
t-convolutions (``PPoly.sum_products``) sum each output coefficient this way
instead of canonicalising every partial sum.
"""

import re
from fractions import Fraction
from math import comb, lcm

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


def _unpack(key):
    return tuple((key >> s) & _FIELD_MASK for s in _SHIFTS)


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
    if len(p) < len(q):
        p, q = q, p
    out = dict(p)
    for e, c in q.items():
        if e in out:
            s = out[e] + c
            if s:
                out[e] = s if s.__class__ is int or s.denominator != 1 else s.numerator
            else:
                del out[e]
        else:
            out[e] = c
    return out


def _lift(p):
    """(d, P) with P = d * p integral, d the least common denominator."""
    d = 1
    for c in p.values():
        if c.__class__ is not int:
            d = lcm(d, c.denominator)
    if d == 1:
        return 1, p
    return d, {e: c.numerator * (d // c.denominator) for e, c in p.items()}


def _divide(num, den):
    """``num / den`` termwise for an int-valued dict, as int where integral."""
    if den == 1:
        return num
    return {e: Fraction(c, den) if c % den else c // den for e, c in num.items()}


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
    den_p, p = _lift(p)
    den_q, q = _lift(q)
    if len(p) < len(q):
        p, q = q, p
    if len(q) == 1:
        (e2, c2), = q.items()
        out = {e1 + e2: c1 * c2 for e1, c1 in p.items()}
        _check_keys(out)
    else:
        acc = {}
        _mul_into(acc, p, q)
        out = _checked(acc)
    return _divide(out, den_p * den_q)


def _poly_scale(p, f):
    return _poly_mul(p, {0: f}) if f else {}


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


def _make(num, dp):
    """Coeff from an owned, normalised dict already in canonical form."""
    c = object.__new__(Coeff)
    c.num = num
    c.dp = dp if num else 0
    return c


def _reduce(lifted, dp):
    """Divide an int-valued numerator by (1+b) while it divides and dp > 0."""
    while dp > 0:
        quot = _div_one_plus_b(lifted)
        if quot is None:
            break
        lifted, dp = quot, dp - 1
    return lifted, dp


def _canon(num, dp):
    """Coeff from an owned, normalised dict, reduced to canonical form."""
    if dp <= 0 or not num:
        return _make(num, dp)
    den, lifted = _lift(num)
    reduced, rdp = _reduce(lifted, dp)
    return _make(num if rdp == dp else _divide(reduced, den), rdp)


def sum_products(triples):
    """The canonical Coeff sum of a * b * k over (Coeff, Coeff, rational) triples.

    Products sharing a (1+b) power accumulate on integers in one dict at a
    common denominator; each such group is checked for exponent overflow
    (before cancelled terms are dropped), reduced to canonical form once,
    and the groups are then added in ascending power.
    """
    if len(triples) == 1:
        (a, b, k), = triples
        p = a * b
        return p if k == 1 else p * k
    groups = {}
    for a, b, k in triples:
        if not (k and a.num and b.num):
            continue
        da, pa = _lift(a.num)
        db, pb = _lift(b.num)
        groups.setdefault(a.dp + b.dp, []).append(
            (pa, pb, k.numerator, da * db * k.denominator)
        )
    total = None
    for dp in sorted(groups):
        items = groups[dp]
        den = lcm(*[d for _, _, _, d in items])
        acc = {}
        for pa, pb, kn, d in items:
            _mul_into(acc, pa, pb, kn * (den // d))
        num = _checked(acc)
        if num:
            num, rdp = _reduce(num, dp)
            part = _make(_divide(num, den), rdp)
            total = part if total is None else total + part
    return _make({}, 0) if total is None else total


def sum_grouped(groups):
    """{key: sum_products(triples)} over {key: triples}, without the zero sums."""
    out = {}
    for key, triples in groups.items():
        c = sum_products(triples)
        if c:
            out[key] = c
    return out


def _rational(x):
    """x as an int when integral, else as a Fraction."""
    if x.__class__ is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Coeff:
    """Exact scalar: polynomial in b, u1..u3, q1..q3 over a power of (1+b)."""

    __slots__ = ("num", "dp")

    def __init__(self, num=None, dp=0):
        num = {e: _rational(c) for e, c in num.items() if c} if num else {}
        _check_keys(num)
        canon = _canon(num, dp)
        self.num = canon.num
        self.dp = canon.dp

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return _make({}, 0)

    @classmethod
    def one(cls):
        return _make({0: 1}, 0)

    @classmethod
    def from_rational(cls, x):
        x = _rational(x)
        return _make({0: x} if x else {}, 0)

    @classmethod
    def var(cls, name):
        return _make({1 << _VAR_SHIFT[name]: 1}, 0)

    @classmethod
    def inv_one_plus_b(cls, power=1):
        """1/(1+b)^power."""
        return _make({0: 1}, power)

    @classmethod
    def one_plus_b(cls):
        return cls.one() + cls.var("b")

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Coeff):
            return x
        if isinstance(x, (int, Fraction)):
            return Coeff.from_rational(x)
        return NotImplemented

    def __add__(self, other):
        other = Coeff._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.dp == b.dp:
            num = _poly_add(a.num, b.num)
            return _canon(num, a.dp) if a.dp else _make(num, 0)
        if a.dp < b.dp:
            a, b = b, a
        # a's numerator is not divisible by (1+b) and the rescaled b's is,
        # so the sum is not either: it is already canonical.
        return _make(
            _poly_add(a.num, _poly_mul(b.num, _one_plus_b_pow(a.dp - b.dp))), a.dp
        )

    __radd__ = __add__

    def __neg__(self):
        return _make({e: -c for e, c in self.num.items()}, self.dp)

    def __sub__(self, other):
        other = Coeff._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not Coeff:
            if isinstance(other, (int, Fraction)):
                return _make(_poly_scale(self.num, _rational(other)), self.dp)
            if not isinstance(other, Coeff):
                return NotImplemented
        num = _poly_mul(self.num, other.num)
        dp = self.dp + other.dp
        # (1+b) is prime, so a product of numerators not divisible by it is
        # not divisible either; only a dp = 0 factor with several terms can
        # bring (1+b) factors that cancel against the other's denominator.
        if self.dp and other.dp or not dp:
            return _make(num, dp)
        plain = self.num if not self.dp else other.num
        return _make(num, dp) if len(plain) == 1 else _canon(num, dp)

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
        return bool(self.num)

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        other = Coeff._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.dp == other.dp and self.num == other.num

    def __hash__(self):
        return hash((self.dp, frozenset(self.num.items())))

    # -- evaluation --------------------------------------------------------

    def eval(self, assignment):
        """Evaluate at rationals; variables the value does not use may be left out.

        A missing variable that the value uses raises KeyError naming it.
        """
        vals = {v: Fraction(x) for v, x in assignment.items()}
        if self.dp and vals["b"] == -1:
            raise ZeroDivisionError("evaluation at b = -1 with a (1+b) denominator")
        total = Fraction(0)
        for key, c in self.num.items():
            t = c
            for v, e in zip(VARS, _unpack(key)):
                if e:
                    t *= vals[v] ** e
            total += t
        if self.dp:
            total /= (1 + vals["b"]) ** self.dp
        return total

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
            num = _poly_scale(num, 1 / scale ** dp)
            dp = 0
        return Coeff(num, dp)

    def max_degree(self):
        """Total numerator degree, -1 for zero."""
        if not self.num:
            return -1
        return max(sum(_unpack(key)) for key in self.num)

    # -- serialization -----------------------------------------------------

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        for key in sorted(self.num, reverse=True):
            c = self.num[key]
            neg = c < 0
            mag = str(-c if neg else c)
            # a unit magnitude is printed only on the constant monomial
            factors = [mag] if mag != "1" or not key else []
            for v, shift in _VAR_SHIFT.items():
                e = (key >> shift) & _FIELD_MASK
                if e:
                    factors.append(v if e == 1 else "%s^%d" % (v, e))
            body = "*".join(factors)
            if parts:
                parts.append((" - " if neg else " + ") + body)
            else:
                parts.append("-" + body if neg else body)
        num_s = "".join(parts)
        if not self.dp:
            return num_s
        if len(self.num) > 1 or num_s.startswith("-"):
            num_s = "(" + num_s + ")"
        return "%s/(1+b)^%d" % (num_s, self.dp)

    __repr__ = __str__

    _DENOM_RE = re.compile(r"^(.*?)/\(1\+b\)\^(\d+)$")
    _MONO_RE = re.compile(r"^(%s)(?:\^(\d+))?$" % "|".join(VARS))

    @classmethod
    def parse(cls, s):
        """Parse the textual form produced by str(); round-trips exactly."""
        s = s.strip().replace(" ", "")
        m = cls._DENOM_RE.match(s)
        dp = 0
        if m:
            s, dp = m.group(1), int(m.group(2))
            if s.startswith("(") and s.endswith(")"):
                s = s[1:-1]
        num = {}
        for term in re.findall(r"[+-]?[^+-]+", s):
            coeff = Fraction(1)
            if term.startswith("-"):
                coeff, term = -coeff, term[1:]
            elif term.startswith("+"):
                term = term[1:]
            exps = dict.fromkeys(VARS, 0)
            for factor in term.split("*"):
                mono = cls._MONO_RE.match(factor)
                if mono:
                    exps[mono.group(1)] += int(mono.group(2) or 1)
                else:
                    coeff *= Fraction(factor)
            add_term(num, _pack(exps.values()), coeff)
        return cls(num, dp)


ZERO = Coeff.zero()
ONE = Coeff.one()
B = Coeff.var("b")
ONE_PLUS_B = Coeff.one_plus_b()
INV_1PB = Coeff.inv_one_plus_b()
U = [None] + [Coeff.var(v) for v in VARS if v[0] == "u"]
Q = [None] + [Coeff.var(v) for v in VARS if v[0] == "q"]
