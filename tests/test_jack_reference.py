"""The fraction-free oracle against the field-based reference in refjack."""

import pytest

import refjack
from bconstell.constraints import BIP, BIPLE3, THREECONST
from bconstell.jack import jack, jack_norm, partitions, tau_jack

MODELS = [BIP, THREECONST, BIPLE3]


def test_tables_match_reference_up_to_five():
    for n in range(1, 6):
        for lam in partitions(n):
            ref = refjack.jack(lam)
            assert jack(lam) == ref, lam
            assert jack_norm(lam) == refjack.inner(ref, ref), lam


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_series_matches_reference_through_t4(model):
    assert tau_jack(model, 4).coeffs == refjack.tau_coeffs(model, 4)


@pytest.mark.parametrize("convention", ["standard", "transpose"])
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_both_conventions_match_reference_at_t2(model, convention):
    assert tau_jack(model, 2, convention).coeffs == refjack.tau_coeffs(
        model, 2, convention
    )
