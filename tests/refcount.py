"""Counting oracle at b = 0, kept for tests only.

At b = 0 the tau series counts orientable objects, so each coefficient is
a weighted count of tuples of permutations of {0, ..., n-1}, with no
symmetric functions and no Weyl algebra.  It fixes the normalisation, the
u/q bookkeeping, the p-index convention and the content convention the
engine and the Jack oracle must share:

- r = 1 (k colours): [t^n] tau = (1/n!) sum over (s_1, ..., s_k) in S_n^k
  of prod_c u_c^kappa(s_c) p_lam(s_1 ... s_k);
- biple-r (k = 1): [t^n] tau = (1/n!) sum over (s, v) in S_n^2, every
  cycle of v of length <= r, of u_1^kappa(s) prod_{cycles C of v} q_|C|
  p_lam(s v).

kappa counts cycles and lam is the cycle type.  The counts run on plain
ints and Fractions; a Coeff is built only by to_ppoly, for the final
comparison with the engine's series at b = 0.
"""

from fractions import Fraction
from itertools import permutations, product
from math import factorial

from bconstell.coeffring import Coeff
from bconstell.ppoly import PPoly
from refring import coeff_power


def cycle_type(perm):
    """The cycle lengths of a permutation tuple of range(n), decreasing."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _product(perms):
    """The composite s_1 s_2 ... s_k, acting right to left."""
    out = tuple(range(len(perms[0])))
    for perm in reversed(perms):
        out = tuple(perm[i] for i in out)
    return out


def count_coeff(model, n):
    """[t^n] tau at b = 0 as {(lam, u exponents, q exponents): Fraction}."""
    perms = list(permutations(range(n)))
    counts = {}

    def add(lam, us, qs):
        key = (lam, us, qs)
        counts[key] = counts.get(key, 0) + 1

    if model.r == 1:
        for sigmas in product(perms, repeat=model.k):
            us = tuple(len(cycle_type(s)) for s in sigmas)
            add(cycle_type(_product(sigmas)), us, ())
    else:
        for nu in perms:
            nu_type = cycle_type(nu)
            if nu_type and nu_type[0] > model.r:
                continue
            qs = tuple(nu_type.count(j) for j in range(1, model.r + 1))
            for sigma in perms:
                add(cycle_type(_product((sigma, nu))), (len(cycle_type(sigma)),), qs)
    return {key: Fraction(c, factorial(n)) for key, c in counts.items()}


def to_ppoly(counts):
    """The counted coefficient as a PPoly over Coeff."""
    terms = {}
    for (lam, us, qs), c in counts.items():
        coeff = Coeff.from_rational(c)
        for name, exps in (("u", us), ("q", qs)):
            for j, e in enumerate(exps, start=1):
                coeff = coeff * coeff_power(Coeff.var("%s%d" % (name, j)), e)
        mono = tuple((part, lam.count(part)) for part in sorted(set(lam)))
        terms[mono] = terms.get(mono, Coeff.zero()) + coeff
    return PPoly(terms)


def tau_coeff(model, n):
    """[t^n] tau at b = 0, counted, as a PPoly."""
    return to_ppoly(count_coeff(model, n))
