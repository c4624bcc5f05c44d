"""Reference composition kernel, kept for tests only.

This is the original normal-ordering loop behind ``WeylOp.compose``: every
term pair multiplies its coefficients and enumerates every contraction
gamma, and only then drops the terms whose derivative part lies above the
result's working degree.  The pruned kernel in ``bconstell.weyl`` must give
the same terms and the same working degree.
"""

from itertools import product
from math import comb, factorial

from bconstell.coeffring import add_term
from bconstell.ppoly import pm_degree, pm_mul
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


def compose(left, right):
    """Normal-ordered product left . right (left acts second)."""
    new_d = min(right.working_degree, left.working_degree - right.max_jump())
    if new_d < 0:
        raise DegreeBudgetError(
            "composition budget exhausted (degrees %d and %d, jump %d)"
            % (left.working_degree, right.working_degree, right.max_jump())
        )
    out = {}
    for (cr1, an1), c1 in left.terms.items():
        an1d = dict(an1)
        for (cr2, an2), c2 in right.terms.items():
            cr2d = dict(cr2)
            common = [i for i in an1d if i in cr2d]
            base = c1 * c2
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
                if pm_degree(an) > new_d:
                    continue
                cr = pm_mul(cr1, _pm_sub(cr2, gm))
                add_term(out, (cr, an), base * factor)
    return WeylOp(out, new_d)
