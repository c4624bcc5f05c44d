"""A tau series with one coefficient moved, for the tests of failing checks."""

from bconstell.ppoly import PPoly
from bconstell.tau import TauSeries, tau_evolve


def perturbed_tau(model, order, n=3, mono=((1, 3),)):
    """tau_evolve(model, order) with 1 added to the coefficient of p^mono in [t^n]."""
    coeffs = list(tau_evolve(model, order).coeffs)
    coeffs[n] = coeffs[n] + PPoly.monomial(mono)
    return TauSeries(coeffs)
