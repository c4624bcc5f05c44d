"""Byte-exact stdout of the CLI, pinned before the sweeps began reusing products.

Each file under ``tests/golden/`` is the stdout the engine printed for one
argv; the sweeps, the oracle comparison and the README examples that run in
a few seconds must reproduce it byte for byte with exit code 0.
"""

from pathlib import Path

import pytest

from bconstell.cli import main

GOLDEN = Path(__file__).parent / "golden"

SMALL = ["--imax", "4", "--deg", "6"]
PROP = ["--imax", "3", "--deg", "6"]

CASES = {
    "verify_bip": ["verify", "--model", "bip", *SMALL, "--json"],
    "verify_threeconst": ["verify", "--model", "threeconst", *SMALL, "--json"],
    "verify_biple3": ["verify", "--model", "biple3", *SMALL, "--json"],
    "verify_biple3_text": ["verify", "--model", "biple3", *SMALL],
    "verify_biple3_beval": ["verify", "--model", "biple3", *SMALL, "--b-eval", "1/2",
                            "--json"],
    "verify_threeconst_beval0": ["verify", "--model", "threeconst", *SMALL,
                                 "--b-eval", "0", "--json"],
    **{
        "prop_%s_%s" % (prop, model): [
            "verify", "--model", model, *PROP, "--prop", prop, "--json"
        ]
        for prop in ("dstruct", "mixed", "pstar")
        for model in ("bip", "threeconst", "biple3")
    },
    "readme_verify_bip": ["verify", "--model", "bip", "--imax", "8", "--deg", "12"],
    "readme_tau_bip_oracle": ["tau", "--model", "bip", "--order", "4", "--oracle"],
    "readme_dump_A": ["dump", "--op", "A", "--i", "2", "--s", "1", "--deg", "6"],
    "readme_jack": ["jack", "--lambda", "2,1"],
    "jack_json": ["jack", "--lambda", "2,1", "--json"],
    "tau_bip_order1_oracle": ["tau", "--model", "bip", "--order", "1", "--oracle",
                              "--json"],
    "oracle_bip": ["oracle", "--model", "bip", "--order", "3"],
    "dump_D": ["dump", "--op", "D", "--s", "3", "--i", "4", "--j", "2", "--l", "3",
               "--deg", "6"],
    "dump_Dtilde": ["dump", "--op", "Dtilde", "--m", "3", "--i", "4", "--j", "2",
                    "--l", "2", "--deg", "6"],
    "dump_L_biple3": ["dump", "--op", "L", "--model", "biple3", "--i", "3", "--deg", "6"],
    "dump_L_threeconst": ["dump", "--op", "L", "--model", "threeconst", "--i", "2",
                          "--deg", "6"],
    "tau_threeconst_checks": ["tau", "--model", "threeconst", "--order", "4",
                              "--check-constraints", "3", "--fixed-point", "3", "--json"],
    **{
        "tau_%s_checks_text" % model: [
            "tau", "--model", model, "--order", "4", "--check-constraints", "3",
            "--fixed-point", "3",
        ]
        for model in ("bip", "biple3")
    },
    "dump_J_i3_deg2": ["dump", "--op", "J", "--i", "3", "--deg", "2"],
    "dump_J_im2_deg4": ["dump", "--op", "J", "--i", "-2", "--deg", "4"],
    "dump_J_i0_deg3": ["dump", "--op", "J", "--i", "0", "--deg", "3"],
    # the p_3* term of D^(3)_{51,2} is dropped at --deg 1 and kept at --deg 3
    "dump_D_s3_deg1": ["dump", "--op", "D", "--s", "3", "--i", "5", "--j", "1", "--l",
                       "2", "--deg", "1"],
    "dump_D_s3_deg3": ["dump", "--op", "D", "--s", "3", "--i", "5", "--j", "1", "--l",
                       "2", "--deg", "3"],
    "dump_Dtilde_m3_deg1": ["dump", "--op", "Dtilde", "--m", "3", "--i", "5", "--j",
                            "1", "--l", "1", "--deg", "1"],
    "dump_M_k1": ["dump", "--op", "M", "--k", "1", "--m", "3", "--i", "2", "--deg", "6"],
    "dump_M_k2": ["dump", "--op", "M", "--k", "2", "--m", "1", "--i", "2", "--deg", "6"],
}


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / (name + ".out")).read_text()
