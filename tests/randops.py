"""Deterministic random generators shared by the engine soundness tests."""

from fractions import Fraction

from bconstell.coeffring import Coeff, B, ONE_PLUS_B, U
from bconstell.ppoly import PPoly
from bconstell.weyl import WeylOp

COEFF_POOL = [
    Coeff.one(),
    -Coeff.one(),
    Coeff.from_rational(2),
    Coeff.from_rational(Fraction(1, 2)),
    B,
    U[1],
    ONE_PLUS_B,
    B * U[2] - 1,
    Coeff.inv_one_plus_b(),
]


def random_mono(rng, max_index=4, max_total=4):
    mono = {}
    budget = max_total
    for _ in range(rng.randrange(0, 3)):
        i = rng.randrange(1, max_index + 1)
        if i > budget:
            continue
        mono[i] = mono.get(i, 0) + 1
        budget -= i
    return tuple(sorted(mono.items()))


def random_op(rng, working_degree, max_terms=3, pool=COEFF_POOL):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        cr = random_mono(rng)
        an = random_mono(rng)
        terms[(cr, an)] = rng.choice(pool)
    return WeylOp(terms, working_degree)


def random_homogeneous_op(rng, working_degree, degree):
    """An operator whose every term raises degree by exactly `degree`."""
    terms = {}
    for _ in range(rng.randrange(1, 3)):
        an = random_mono(rng)
        need = degree + sum(i * e for i, e in an)
        if need < 0:
            continue
        cr = dict(an)
        cr = {}
        rest = need
        while rest > 0:
            i = rng.randrange(1, min(4, rest) + 1)
            cr[i] = cr.get(i, 0) + 1
            rest -= i
        terms[(tuple(sorted(cr.items())), an)] = rng.choice(COEFF_POOL)
    return WeylOp(terms, working_degree)


def random_ppoly(rng, max_degree, max_terms=3, pool=COEFF_POOL):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        mono = random_mono(rng, max_index=max_degree or 1, max_total=max_degree)
        terms[mono] = rng.choice(pool)
    return PPoly(terms)


def random_wide_mono(rng, indices, exps):
    """A monomial on up to three of indices, each exponent drawn from exps."""
    return tuple(sorted((i, rng.choice(exps)) for i in rng.sample(indices, rng.randrange(0, 4))))


def random_wide_op(rng, working_degree, indices, create_exps, annihilate_exps, max_terms=3):
    """An operator on the given indices, with its exponents drawn per side."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        cr = random_wide_mono(rng, indices, create_exps)
        an = random_wide_mono(rng, indices, annihilate_exps)
        terms[(cr, an)] = rng.choice(COEFF_POOL)
    return WeylOp(terms, working_degree)
