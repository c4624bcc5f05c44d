"""Normal-ordered differential operators on PPoly.

A WeylOp is a finite Coeff-linear combination of terms p^alpha (p*)^beta,
where p_i* denotes i * d/dp_i, stored with all multiplications to the left
of all derivatives.  The defining contraction is [p_i*, p_j] = i delta_ij.

Truncation contract: an operator with working_degree D acts exactly on every
polynomial of degree <= D.  ``live_terms`` drops the terms whose derivative
part exceeds degree D, which act as zero within the contract.  Composition
propagates the tightest working degree that keeps the result exact: composing
O1 after O2 yields min(D2, D1 - jump(O2)) where jump(O2) is the largest degree
raise O2 can produce.  A DegreeBudgetError means the requested computation
cannot be certified at any degree.

p_i, p_i*, monomial multiplications, scalars and the identity are exact on
every polynomial: they sit at working degree ``EXACT`` (infinity), and
``truncated(d)`` is the one way to cut one down.  A product with an exact
left factor sits at its right operand's degree.

``compose`` is the one contraction kernel and ``compose_degree`` the one
budget rule: ``apply`` composes onto f as a multiplication operator at
working degree 0, where only the fully contracted terms survive and a
polynomial above the working degree exhausts the budget.

Inside ``compose`` a monomial is one int with ``FIELD_BITS`` bits per index
(p_i's exponent in the field at (i - 1) * FIELD_BITS) and a bitmask of its
indices.  Each operator packs its terms once, on its first composition, and
keeps them in its ``_packed`` slot (``_packed_terms``).  A term pair whose
left annihilator and right creator masks do not meet shares no index, and
its key is two int additions; a contraction subtracts one packed gamma from
both sides.  Exponents stay at most ``MAX_EXP``, below each field's top bit,
so adding two packed monomials never carries into a neighbouring field; a
larger exponent raises OverflowError when its operator is packed.  The keys
are read back into (index, exponent) tuples before ``sum_grouped``, each
once per call, so every operator outside ``compose`` holds tuple monomials.

A zero operator keeps its working degree: it is zero on every polynomial
of degree <= D and unknown above, and this is the one zero that sums,
products and comparisons read, a t power of a TGradedOp included.
``WeylOp.sum`` (and ``WeylOp.sums`` per key) merges each addend of any
iterable into one dict as it arrives, at the least working degree among
them, zero addends included, as a left fold of ``+`` gives.
"""

from itertools import product
from math import comb, factorial

from .coeffring import Coeff, add_terms, sum_grouped
from .ppoly import EMPTY, PPoly, pm_degree, pm_normal, pm_sort_key, pm_str


EXACT = float("inf")

# compose's packed monomials (see the module docstring)
FIELD_BITS = 16
MAX_EXP = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


class DegreeBudgetError(Exception):
    """Raised when an operation exceeds its truncation contract."""


def live_terms(terms, d):
    """The entries of {(create, annihilate): value} whose terms act at degree d."""
    return {key: v for key, v in terms.items() if pm_degree(key[1]) <= d}


def _term_order(item):
    """Sort key of a ((create, annihilate), value) item: annihilator first."""
    (cr, an), _ = item
    return (pm_sort_key(an), pm_sort_key(cr))


def _merge(terms, d, op):
    """Merge op into the partial sum (terms, d), d None before the first addend.

    Returns the new partial sum; only terms live at its degree are kept, as in
    a fold.
    """
    od = op.working_degree
    if d is not None and od > d:
        add_terms(terms, live_terms(op.terms, d))
        return terms, d
    if d is not None and od < d:
        terms = live_terms(terms, od)
    add_terms(terms, op.terms)
    return terms, od


def _pack_mono(m):
    """(key, mask) of the monomial m: its packed exponents and its index bits."""
    key = mask = 0
    for i, e in m:
        if e > MAX_EXP:
            raise OverflowError(
                "exponent %d of p_%d exceeds the packed field limit %d of compose"
                % (e, i, MAX_EXP)
            )
        key |= e << (i - 1) * FIELD_BITS
        mask |= 1 << (i - 1)
    return key, mask


def _unpack_mono(key):
    """The monomial of a packed key, as a sorted (index, exponent) tuple."""
    m = []
    i = 1
    while key:
        e = key & _FIELD_MASK
        if e:
            m.append((i, e))
        key >>= FIELD_BITS
        i += 1
    return tuple(m)


def _pack_terms(terms):
    """[(create, annihilate, create mask, annihilate mask, deg annihilate, c)].

    One entry per term of {(create, annihilate): c}, both monomials packed.
    """
    packed = []
    for (cr, an), c in terms.items():
        crk, crm = _pack_mono(cr)
        ank, anm = _pack_mono(an)
        packed.append((crk, ank, crm, anm, pm_degree(an), c))
    return packed


def _packed_terms(op):
    """_pack_terms(op.terms), packed once per operator."""
    packed = op._packed
    if packed is None:
        packed = op._packed = _pack_terms(op.terms)
    return packed


def compose_degree(left_degree, right):
    """Working degree of L . right for an L at left_degree, as compose gives it.

    Raises DegreeBudgetError when no degree is left.
    """
    new_d = min(right.working_degree, left_degree - right.max_jump())
    if new_d < 0:
        raise DegreeBudgetError(
            "composition budget exhausted (degrees %s and %s, jump %d)"
            % (left_degree, right.working_degree, right.max_jump())
        )
    return new_d


class WeylOp:
    """Truncated normal-ordered operator: sum of c * p^alpha (p*)^beta.

    ``terms`` is never written after construction: sums merge into dicts of
    their own.  The cached packing of ``_packed_terms`` relies on that.
    """

    __slots__ = ("terms", "working_degree", "_jump", "_packed")

    def __init__(self, terms=None, working_degree=0):
        if working_degree < 0:
            raise DegreeBudgetError("working degree must be non-negative")
        self.working_degree = working_degree
        live = live_terms(terms or {}, working_degree)
        self.terms = {key: c for key, c in live.items() if c}
        self._jump = None
        self._packed = None

    @classmethod
    def _live(cls, terms, working_degree):
        """Operator on terms already live at working_degree and non-zero."""
        op = object.__new__(cls)
        op.terms = terms
        op.working_degree = working_degree
        op._jump = None
        op._packed = None
        return op

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, working_degree):
        return cls({}, working_degree)

    @classmethod
    def scalar(cls, c):
        """c * Id, exact."""
        return cls.identity().scale(c)

    @classmethod
    def identity(cls):
        return cls({(EMPTY, EMPTY): Coeff.one()}, EXACT)

    @classmethod
    def creation(cls, mono, coeff=None):
        """Multiplication by the monomial p^mono, exact; zero if any index <= 0."""
        mono = pm_normal(mono)
        if mono is None:
            return cls.zero(EXACT)
        return cls({(mono, EMPTY): Coeff.one() if coeff is None else coeff}, EXACT)

    @classmethod
    def p(cls, i, coeff=None):
        """p_i, exact; zero for i <= 0."""
        return cls.creation(((i, 1),), coeff)

    @classmethod
    def p_star(cls, i, coeff=None):
        """p_i* = i d/dp_i, exact; zero for i <= 0."""
        if i <= 0:
            return cls.zero(EXACT)
        return cls({(EMPTY, ((i, 1),)): Coeff.one() if coeff is None else coeff}, EXACT)

    # -- structure ---------------------------------------------------------

    def max_jump(self):
        """Largest degree increase any stored term can produce (>= 0)."""
        if self._jump is None:
            self._jump = max(
                (pm_degree(cr) - pm_degree(an) for cr, an in self.terms), default=0
            )
            self._jump = max(self._jump, 0)
        return self._jump

    def homogeneous_degree(self):
        """Common creation-minus-derivative degree, or None if mixed/zero."""
        degs = {pm_degree(cr) - pm_degree(an) for cr, an in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_zero(self):
        return not self.terms

    def truncated(self, d):
        if d > self.working_degree:
            raise DegreeBudgetError(
                "cannot extend working degree %s to %s" % (self.working_degree, d)
            )
        return WeylOp(self.terms, d)

    def map_coeff(self, fn):
        return WeylOp({k: fn(c) for k, c in self.terms.items()}, self.working_degree)

    # -- linear operations -------------------------------------------------

    @classmethod
    def sum(cls, ops):
        """The sum of ops at their least working degree; ops must not be empty."""
        terms, d = {}, None
        for op in ops:
            terms, d = _merge(terms, d, op)
        if d is None:
            raise ValueError("an empty sum has no working degree")
        return cls._live(terms, d)

    @classmethod
    def sums(cls, pairs):
        """{key: the sum of the ops paired with key} over (key, op) pairs."""
        parts = {}
        for key, op in pairs:
            parts[key] = _merge(*(parts.get(key) or ({}, None)), op)
        return {key: cls._live(terms, d) for key, (terms, d) in parts.items()}

    def __add__(self, other):
        if not isinstance(other, WeylOp):
            return NotImplemented
        return WeylOp.sum((self, other))

    def __neg__(self):
        return WeylOp._live({k: -c for k, c in self.terms.items()}, self.working_degree)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Coeff.coerce(c)
        if c is NotImplemented:
            raise TypeError("an operator scales by a Coeff, int or Fraction")
        if not c:
            return WeylOp.zero(self.working_degree)
        # the scalars form an integral domain, so no product v * c is zero
        terms = {k: v * c for k, v in self.terms.items()}
        return WeylOp._live(terms, self.working_degree)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    # -- action and composition ---------------------------------------------

    def apply(self, f):
        """Image of the polynomial f; requires degree(f) <= working_degree.

        f acts as a multiplication operator at working degree 0, so the
        composition keeps exactly the fully contracted terms and raises
        when f's degree exceeds the budget.
        """
        mult = WeylOp._live({(m, EMPTY): c for m, c in f.terms.items()}, 0)
        return PPoly({cr: c for (cr, _), c in self.compose(mult).terms.items()})

    def compose(self, other):
        """Normal-ordered product self . other (self acts second)."""
        if not isinstance(other, WeylOp):
            raise TypeError("compose expects a WeylOp")
        new_d = compose_degree(self.working_degree, other)
        # A contraction gamma (gamma_i p_i* of the left meeting gamma_i p_i of
        # the right) leaves deg(an1) + deg(an2) - sum_i i * gamma_i
        # derivatives.  Terms left above new_d are dropped by the truncation
        # contract, so they are skipped before any coefficient or monomial is
        # built: a whole term pair when even full contraction stays above.
        # A pair whose index masks do not meet has the one contraction
        # gamma = 0, which keeps every factor: its key is two additions.
        rights = _packed_terms(other)
        out = {}
        for cr1, an1, _, an1m, an1_deg, c1 in _packed_terms(self):
            for cr2, an2, cr2m, _, an2_deg, c2 in rights:
                an_deg = an1_deg + an2_deg
                common = an1m & cr2m
                if not common:
                    if an_deg <= new_d:
                        out.setdefault((cr1 + cr2, an1 + an2), []).append((c1, c2, 1))
                    continue
                # (index, field shift, p_i* power of an1, p_i power of cr2),
                # by increasing index
                fields = []
                floor = an_deg
                while common:
                    low = common & -common
                    common ^= low
                    i = low.bit_length()
                    s = (i - 1) * FIELD_BITS
                    a, c = (an1 >> s) & _FIELD_MASK, (cr2 >> s) & _FIELD_MASK
                    fields.append((i, s, a, c))
                    floor -= i * min(a, c)
                if floor > new_d:
                    continue
                for gammas in product(*[range(min(a, c) + 1) for _, _, a, c in fields]):
                    left = an_deg
                    for (i, _, _, _), g in zip(fields, gammas):
                        left -= i * g
                    if left > new_d:
                        continue
                    factor = 1
                    gm = 0
                    for (i, s, a, c), g in zip(fields, gammas):
                        if g:
                            factor *= comb(a, g) * comb(c, g) * factorial(g) * i ** g
                            gm |= g << s
                    key = (cr1 + cr2 - gm, an1 - gm + an2)
                    out.setdefault(key, []).append((c1, c2, factor))
        # every key passed the new_d checks above and no zero sum is kept;
        # each distinct packed monomial is read back once
        monos = {k: _unpack_mono(k) for k in {k for pair in out for k in pair}}
        grouped = {(monos[cr], monos[an]): triples for (cr, an), triples in out.items()}
        return WeylOp._live(sum_grouped(grouped), new_d)

    def commutator(self, other):
        """[self, other]; [A, A] is zero at A . A's degree, nothing composed."""
        if other is self:
            return WeylOp.zero(compose_degree(self.working_degree, self))
        return self.compose(other) - other.compose(self)

    # -- comparison ----------------------------------------------------------

    def equal_up_to(self, other, d):
        """Exact equality as operators on all polynomials of degree <= d."""
        if d > min(self.working_degree, other.working_degree):
            raise DegreeBudgetError(
                "comparison degree %s exceeds working degrees (%s, %s)"
                % (d, self.working_degree, other.working_degree)
            )
        return live_terms(self.terms, d) == live_terms(other.terms, d)

    def diff_up_to(self, other, d):
        """Sorted mismatching terms of self - other at degree <= d."""
        live = live_terms((self - other).terms, d)
        return [(cr, an, c) for (cr, an), c in sorted(live.items(), key=_term_order)]

    def first_mismatch(self, other, d):
        """The first term of diff_up_to, human-readable, or None when equal."""
        diff = self.diff_up_to(other, d)
        if not diff:
            return None
        cr, an, c = diff[0]
        return "coeff %s on create=%s annihilate=%s" % (c, cr, an)

    # -- serialization -------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_term_order)

    def to_json_obj(self):
        return {
            "working_degree": self.working_degree,
            "homogeneous_degree": self.homogeneous_degree(),
            "terms": [
                {
                    "create": [[i, e] for i, e in cr],
                    "annihilate": [[i, e] for i, e in an],
                    "coeff": str(c),
                }
                for (cr, an), c in self.sorted_terms()
            ],
        }

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for (cr, an), c in self.sorted_terms():
            body = "*".join(f for f in (pm_str(cr), pm_str(an, "*")) if f) or "1"
            cs = str(c)
            chunks.append(body if cs == "1" else "(%s)*%s" % (cs, body))
        return " + ".join(chunks)

    __repr__ = __str__
