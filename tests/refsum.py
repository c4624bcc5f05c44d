"""Reference additions, kept for tests only.

``weyl_add``, ``ppoly_add``, ``tgraded_add`` and ``tau_add`` are the stepwise
``+`` loops that ran before ``WeylOp``, ``PPoly``, ``TGradedOp`` and
``TauSeries`` summed their addends in place: every ``+`` copies its left
operand and adds the right operand's terms into the copy.  ``fold`` is the
left fold of such an addition, the accumulator loop the n-ary sums replace;
each sum must give the same terms and the same working degree.
"""

from bconstell.coeffring import add_term
from bconstell.constraints import TGradedOp
from bconstell.ppoly import PPoly
from bconstell.tau import TauSeries
from bconstell.weyl import WeylOp


def weyl_add(a, b):
    d = min(a.working_degree, b.working_degree)
    out = dict(a.terms)
    for k, c in b.terms.items():
        add_term(out, k, c)
    return WeylOp(out, d)


def ppoly_add(f, g):
    out = dict(f.terms)
    for m, c in g.terms.items():
        add_term(out, m, c)
    return PPoly(out)


def tgraded_add(a, b):
    out = dict(a.pieces)
    for m, op in b.pieces.items():
        out[m] = weyl_add(out[m], op) if m in out else op
    return TGradedOp(out)


def tau_add(a, b):
    return TauSeries(a.model, [ppoly_add(f, g) for f, g in zip(a.coeffs, b.coeffs)])


def fold(add, items, start=None):
    """start + items[0] + items[1] + ..., from items[0] when start is None."""
    items = list(items)
    acc = start
    if acc is None:
        acc, items = items[0], items[1:]
    for item in items:
        acc = add(acc, item)
    return acc
