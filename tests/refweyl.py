"""Reference operator loops, kept for tests only.

``compose`` is the original normal-ordering loop behind ``WeylOp.compose``:
every term pair multiplies its coefficients and enumerates every
contraction gamma, and only then drops the terms whose derivative part lies
above the result's working degree.  The pruned kernel in ``bconstell.weyl``
must give the same terms and the same working degree.

``commutator`` is ``compose - compose`` for two ``WeylOp``: the package
takes commutators of t-graded operators only (``TGradedOp.commutator``).

``apply`` and ``ppoly_mul`` are the stepwise accumulate loops that
``WeylOp.apply`` and ``PPoly.__mul__`` ran before they summed each output
coefficient with ``coeffring.sum_products``: every product is formed with
``Coeff.__mul__`` and added into the running sum with ``Coeff.__add__``.
"""

from itertools import product
from math import comb, factorial

from bconstell.coeffring import add_term
from bconstell.ppoly import PPoly, pm_degree, pm_mul
from bconstell.weyl import DegreeBudgetError, WeylOp


def _pm_sub(a, b):
    d = dict(a)
    for i, e in b:
        r = d[i] - e
        if r:
            d[i] = r
        else:
            del d[i]
    return tuple(sorted(d.items()))


def _working_degree(left, right):
    new_d = min(right.working_degree, left.working_degree - right.max_jump())
    if new_d < 0:
        raise DegreeBudgetError(
            "composition budget exhausted (degrees %s and %s, jump %d)"
            % (left.working_degree, right.working_degree, right.max_jump())
        )
    return new_d


def _contractions(left, right):
    """(create, annihilate, c1, c2, factor) of every term pair and contraction."""
    for (cr1, an1), c1 in left.terms.items():
        an1d = dict(an1)
        for (cr2, an2), c2 in right.terms.items():
            cr2d = dict(cr2)
            common = [i for i in an1d if i in cr2d]
            ranges = [range(min(an1d[i], cr2d[i]) + 1) for i in common]
            for gammas in product(*ranges):
                factor = 1
                for i, g in zip(common, gammas):
                    if g:
                        factor *= (
                            comb(an1d[i], g) * comb(cr2d[i], g) * factorial(g) * i ** g
                        )
                gm = tuple((i, g) for i, g in sorted(zip(common, gammas)) if g)
                an = pm_mul(_pm_sub(an1, gm), an2)
                cr = pm_mul(cr1, _pm_sub(cr2, gm))
                yield cr, an, c1, c2, factor


def compose(left, right):
    """Normal-ordered product left . right (left acts second)."""
    new_d = _working_degree(left, right)
    out = {}
    for cr, an, c1, c2, factor in _contractions(left, right):
        if pm_degree(an) > new_d:
            continue
        add_term(out, (cr, an), c1 * c2 * factor)
    return WeylOp(out, new_d)


def live_contractions(left, right):
    """How many contractions leave no more derivatives than the working degree."""
    new_d = _working_degree(left, right)
    return sum(1 for _, an, _, _, _ in _contractions(left, right) if pm_degree(an) <= new_d)


def apply(op, f):
    """Image of the polynomial f under op, one Coeff product and sum per term."""
    out = {}
    for (cr, an), c in op.terms.items():
        for mono, mc in f.terms.items():
            md = dict(mono)
            factor = 1
            ok = True
            for i, e in an:
                have = md.get(i, 0)
                if have < e:
                    ok = False
                    break
                for k in range(e):
                    factor *= i * (have - k)
                if have == e:
                    del md[i]
                else:
                    md[i] = have - e
            if not ok:
                continue
            key = pm_mul(tuple(sorted(md.items())), cr)
            add_term(out, key, c * mc * factor)
    return PPoly(out)


def ppoly_mul(f, g):
    """f * g, one Coeff product and sum per pair of terms."""
    out = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = pm_mul(m1, m2)
            add_term(out, m, c1 * c2)
    return PPoly(out)


def commutator(a, b):
    """[a, b] = a . b - b . a of two WeylOps, both products composed."""
    return a.compose(b) - b.compose(a)
