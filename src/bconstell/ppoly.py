"""Sparse polynomials in p_1, p_2, ... with Coeff scalars.

The variable p_i carries degree i, so the degree of a monomial is the
weighted sum over its exponents.  Monomials are stored as sorted tuples of
(index, exponent) pairs with no zero exponents; p_0 and negative indices do
not exist, constructors for them yield the zero polynomial.
``PPoly.sum`` merges each addend of any iterable into one dict as it arrives.
"""

from fractions import Fraction

from .coeffring import Coeff, add_term, add_terms, sum_grouped


def pm_mul(a, b):
    d = dict(a)
    for i, e in b:
        d[i] = d.get(i, 0) + e
    return tuple(sorted(d.items()))


def pm_degree(m):
    return sum(i * e for i, e in m)


def pm_sort_key(m):
    """Graded-lex key: degree first, then the exponent list."""
    return (pm_degree(m), m)


EMPTY = ()


class PPoly:
    """Finitely supported Coeff-linear combination of p-monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({EMPTY: Coeff.one()})

    @classmethod
    def gen(cls, i, e=1, coeff=None):
        """c * p_i^e, zero when i <= 0."""
        if i <= 0 or e <= 0:
            return cls.zero()
        return cls({((i, e),): Coeff.one() if coeff is None else coeff})

    @classmethod
    def monomial(cls, mono, coeff=None):
        merged = {}
        for i, e in mono:
            if e:
                if i <= 0:
                    return cls.zero()
                merged[i] = merged.get(i, 0) + e
        return cls(
            {tuple(sorted(merged.items())): Coeff.one() if coeff is None else coeff}
        )

    @staticmethod
    def _coerce_scalar(x):
        if isinstance(x, Coeff):
            return x
        if isinstance(x, (int, Fraction)):
            return Coeff.from_rational(x)
        return None

    @staticmethod
    def sum(polys):
        """The sum of the polynomials in polys."""
        p = PPoly.__new__(PPoly)
        p.terms = {}
        for f in polys:
            add_terms(p.terms, f.terms)
        return p

    def __add__(self, other):
        if not isinstance(other, PPoly):
            return NotImplemented
        return PPoly.sum((self, other))

    def __neg__(self):
        p = PPoly.__new__(PPoly)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        scal = PPoly._coerce_scalar(other)
        if scal is not None:
            if not scal:
                return PPoly.zero()
            p = PPoly.__new__(PPoly)
            p.terms = {m: c * scal for m, c in self.terms.items()}
            return p
        if not isinstance(other, PPoly):
            return NotImplemented
        return PPoly.sum_products([(self, other, 1)])

    __rmul__ = __mul__

    @staticmethod
    def sum_products(triples):
        """Sum of f * g * k over (PPoly, PPoly, rational) triples.

        The coefficient products are grouped by output monomial and each
        group is summed by one call of the scalar kernel.
        """
        sums = {}
        for f, g, k in triples:
            gitems = g.terms.items()
            for m1, c1 in f.terms.items():
                for m2, c2 in gitems:
                    sums.setdefault(pm_mul(m1, m2), []).append((c1, c2, k))
        return PPoly(sum_grouped(sums))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, PPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((m, c) for m, c in self.terms.items()))

    def degree(self):
        """Maximal monomial degree, 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(pm_degree(m) for m in self.terms)

    def is_homogeneous(self, d):
        return all(pm_degree(m) == d for m in self.terms)

    def degree_slice(self, d):
        return PPoly({m: c for m, c in self.terms.items() if pm_degree(m) == d})

    def dp(self, i):
        """Partial derivative with respect to p_i."""
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(i, 0)
            if not e:
                continue
            if e == 1:
                del d[i]
            else:
                d[i] = e - 1
            key = tuple(sorted(d.items()))
            add_term(out, key, c * e)
        return PPoly(out)

    def map_coeff(self, fn):
        return PPoly({m: fn(c) for m, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: pm_sort_key(mc[0]))

    def to_json_obj(self):
        return [
            {"monomial": [[i, e] for i, e in m], "coeff": str(c)}
            for m, c in self.sorted_terms()
        ]

    @classmethod
    def from_json_obj(cls, obj):
        return cls(
            {
                tuple((int(i), int(e)) for i, e in item["monomial"]): Coeff.parse(item["coeff"])
                for item in obj
            }
        )

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            mono = "*".join("p%d" % i if e == 1 else "p%d^%d" % (i, e) for i, e in m)
            cs = str(c)
            if mono:
                chunks.append(mono if cs == "1" else "(%s)*%s" % (cs, mono))
            else:
                chunks.append(cs)
        return " + ".join(chunks)

    __repr__ = __str__
