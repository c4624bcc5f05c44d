"""Normal-ordered differential operators on PPoly.

A WeylOp is a finite Coeff-linear combination of terms p^alpha (p*)^beta,
where p_i* denotes i * d/dp_i, stored with all multiplications to the left
of all derivatives.  The defining contraction is [p_i*, p_j] = i delta_ij.

Truncation contract: an operator with working_degree D acts exactly on every
polynomial of degree <= D.  Terms whose derivative part exceeds degree D are
dropped (they act as zero within the contract).  Composition propagates the
tightest working degree that keeps the result exact: composing O1 after O2
yields min(D2, D1 - jump(O2)) where jump(O2) is the largest degree raise O2
can produce.  A DegreeBudgetError means the requested computation cannot be
certified at any degree.

p_i, p_i*, monomial multiplications, scalars and the identity are exact on
every polynomial: they sit at working degree ``EXACT`` (infinity), and
``truncated(d)`` is the one way to cut one down.  A product with an exact
left factor sits at its right operand's degree.

``compose`` is the one contraction kernel and ``compose_degree`` the one
budget rule: ``apply`` composes onto f as a multiplication operator at
working degree 0, where only the fully contracted terms survive and a
polynomial above the working degree exhausts the budget.

A zero operator keeps its working degree: it is zero on every polynomial
of degree <= D and unknown above, and this is the one zero that sums,
products and comparisons read, a t power of a TGradedOp included.
``WeylOp.sum`` (and ``WeylOp.sums`` per key) merges each addend of any
iterable into one dict as it arrives, at the least working degree among
them, zero addends included, as a left fold of ``+`` gives.
"""

from fractions import Fraction
from itertools import product
from math import comb, factorial

from .coeffring import Coeff, add_terms, sum_grouped
from .ppoly import EMPTY, PPoly, pm_degree, pm_mul, pm_sort_key


EXACT = float("inf")


class DegreeBudgetError(Exception):
    """Raised when an operation exceeds its truncation contract."""


def _pm_sub(a, b):
    if not b:
        return a
    d = dict(a)
    for i, e in b:
        r = d[i] - e
        if r:
            d[i] = r
        else:
            del d[i]
    return tuple(sorted(d.items()))


def _merge(terms, d, op):
    """Merge op into the partial sum (terms, d), d None before the first addend.

    Returns the new degree; only terms live at it are kept, as in a fold.
    """
    od = op.working_degree
    if d is not None and od > d:
        add_terms(terms, {k: c for k, c in op.terms.items() if pm_degree(k[1]) <= d})
        return d
    if d is not None and od < d:
        for key in [key for key in terms if pm_degree(key[1]) > od]:
            del terms[key]
    add_terms(terms, op.terms)
    return od


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
    """Truncated normal-ordered operator: sum of c * p^alpha (p*)^beta."""

    __slots__ = ("terms", "working_degree", "_jump")

    def __init__(self, terms=None, working_degree=0):
        if working_degree < 0:
            raise DegreeBudgetError("working degree must be non-negative")
        self.working_degree = working_degree
        self.terms = {
            key: c
            for key, c in (terms or {}).items()
            if c and pm_degree(key[1]) <= working_degree
        }
        self._jump = None

    @classmethod
    def _live(cls, terms, working_degree):
        """Operator on terms already live at working_degree and non-zero."""
        op = object.__new__(cls)
        op.terms = terms
        op.working_degree = working_degree
        op._jump = None
        return op

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, working_degree):
        return cls({}, working_degree)

    @classmethod
    def scalar(cls, c):
        """c * Id, exact."""
        if isinstance(c, (int, Fraction)):
            c = Coeff.from_rational(c)
        return cls({(EMPTY, EMPTY): c}, EXACT)

    @classmethod
    def identity(cls):
        return cls.scalar(Coeff.one())

    @classmethod
    def creation(cls, mono, coeff=None):
        """Multiplication by the monomial p^mono, exact; zero if any index <= 0."""
        merged = {}
        for i, e in mono:
            if e:
                if i <= 0:
                    return cls.zero(EXACT)
                merged[i] = merged.get(i, 0) + e
        mono = tuple(sorted(merged.items()))
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
    def sum(cls, ops, working_degree=None):
        """The sum of ops at their least working degree, capped by working_degree."""
        terms, d = {}, working_degree
        for op in ops:
            d = _merge(terms, d, op)
        if d is None:
            raise ValueError("an empty sum needs a working degree")
        return cls._live(terms, d)

    @classmethod
    def sums(cls, pairs):
        """{key: the sum of the ops paired with key} over (key, op) pairs."""
        parts = {}
        for key, op in pairs:
            part = parts.get(key)
            if part is None:
                part = parts[key] = [{}, None]
            part[1] = _merge(part[0], part[1], op)
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
        if isinstance(c, (int, Fraction)):
            c = Coeff.from_rational(c)
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
        rights = [
            (cr2, an2, dict(cr2), pm_degree(an2), c2)
            for (cr2, an2), c2 in other.terms.items()
        ]
        out = {}
        for (cr1, an1), c1 in self.terms.items():
            an1d = dict(an1)
            an1_deg = pm_degree(an1)
            for cr2, an2, cr2d, an2_deg, c2 in rights:
                an_deg = an1_deg + an2_deg
                common = [i for i in an1d if i in cr2d]
                tops = [min(an1d[i], cr2d[i]) for i in common]
                floor = an_deg
                for i, g in zip(common, tops):
                    floor -= i * g
                if floor > new_d:
                    continue
                for gammas in product(*[range(g + 1) for g in tops]):
                    left = an_deg
                    for i, g in zip(common, gammas):
                        left -= i * g
                    if left > new_d:
                        continue
                    factor = 1
                    for i, g in zip(common, gammas):
                        if g:
                            factor *= (
                                comb(an1d[i], g) * comb(cr2d[i], g) * factorial(g) * i ** g
                            )
                    gm = tuple(
                        (i, g) for i, g in sorted(zip(common, gammas)) if g
                    )
                    an = pm_mul(_pm_sub(an1, gm), an2)
                    cr = pm_mul(cr1, _pm_sub(cr2, gm))
                    out.setdefault((cr, an), []).append((c1, c2, factor))
        # every key passed the new_d checks above and no zero sum is kept
        return WeylOp._live(sum_grouped(out), new_d)

    def commutator(self, other):
        """[self, other]; [A, A] is zero at A . A's degree, nothing composed."""
        if other is self:
            return WeylOp.zero(compose_degree(self.working_degree, self))
        return self.compose(other) - other.compose(self)

    # -- comparison ----------------------------------------------------------

    def _trunc_terms(self, d):
        return {k: c for k, c in self.terms.items() if pm_degree(k[1]) <= d}

    def equal_up_to(self, other, d):
        """Exact equality as operators on all polynomials of degree <= d."""
        if d > min(self.working_degree, other.working_degree):
            raise DegreeBudgetError(
                "comparison degree %s exceeds working degrees (%s, %s)"
                % (d, self.working_degree, other.working_degree)
            )
        return self._trunc_terms(d) == other._trunc_terms(d)

    def diff_up_to(self, other, d):
        """Sorted mismatching terms of self - other at degree <= d."""
        diff = self - other
        out = []
        for (cr, an), c in diff._trunc_terms(d).items():
            out.append((cr, an, c))
        out.sort(key=lambda t: (pm_sort_key(t[1]), pm_sort_key(t[0])))
        return out

    def first_mismatch(self, other, d):
        """The first term of diff_up_to, human-readable, or None when equal."""
        diff = self.diff_up_to(other, d)
        if not diff:
            return None
        cr, an, c = diff[0]
        return "coeff %s on create=%s annihilate=%s" % (c, cr, an)

    # -- serialization -------------------------------------------------------

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kc: (pm_sort_key(kc[0][1]), pm_sort_key(kc[0][0])),
        )

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
            fac = ["p%d" % i if e == 1 else "p%d^%d" % (i, e) for i, e in cr]
            fac += ["p%d*" % i if e == 1 else "p%d*^%d" % (i, e) for i, e in an]
            body = "*".join(fac) if fac else "1"
            cs = str(c)
            chunks.append(body if cs == "1" else "(%s)*%s" % (cs, body))
        return " + ".join(chunks)

    __repr__ = __str__
