"""Sparse polynomials in p_1, p_2, ... with Coeff scalars.

The variable p_i carries degree i, so the degree of a monomial is the
weighted sum over its exponents.  Monomials are stored as sorted tuples of
(index, exponent) pairs with no zero exponents; p_0 and negative indices do
not exist, constructors for them yield the zero polynomial.
``PPoly.sum`` merges each addend of any iterable into one dict as it arrives.
"""

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


def pm_normal(pairs):
    """The monomial of prod p_i^e over (i, e) pairs; None when an index is <= 0.

    Repeated indices merge and zero exponents drop out.
    """
    merged = {}
    for i, e in pairs:
        if e:
            if i <= 0:
                return None
            merged[i] = merged.get(i, 0) + e
    return tuple(sorted(merged.items()))


def pm_sub(a, b):
    """The monomial a / b; b must divide a."""
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


def pm_str(m, mark=""):
    """m as p1*p2^3, with mark after each index (p2*^3 for mark "*")."""
    return "*".join(
        "p%d%s" % (i, mark) if e == 1 else "p%d%s^%d" % (i, mark, e) for i, e in m
    )


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
        """c * p^mono, zero when an index is <= 0."""
        mono = pm_normal(mono)
        if mono is None:
            return cls.zero()
        return cls({mono: Coeff.one() if coeff is None else coeff})

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
        scal = Coeff.coerce(other)
        if scal is not NotImplemented:
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

    def dp(self, i):
        """Partial derivative with respect to p_i."""
        out = {}
        for m, c in self.terms.items():
            e = dict(m).get(i)
            if e:
                add_term(out, pm_sub(m, ((i, 1),)), c * e)
        return PPoly(out)

    def map_coeff(self, fn):
        return PPoly({m: fn(c) for m, c in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda mc: pm_sort_key(mc[0]))

    def first_term(self):
        """The first of sorted_terms as a one-term PPoly; zero for zero."""
        if not self.terms:
            return PPoly()
        m = min(self.terms, key=pm_sort_key)
        return PPoly({m: self.terms[m]})

    def to_json_obj(self):
        return [
            {"monomial": [[i, e] for i, e in m], "coeff": str(c)}
            for m, c in self.sorted_terms()
        ]

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for m, c in self.sorted_terms():
            mono = pm_str(m)
            cs = str(c)
            if mono:
                chunks.append(mono if cs == "1" else "(%s)*%s" % (cs, mono))
            else:
                chunks.append(cs)
        return " + ".join(chunks)

    __repr__ = __str__
