import json
import re
import subprocess
import sys
import time

import pytest

from bconstell.cli import EXIT_BROKEN_PIPE, main
from bconstell.constraints import THREECONST
from perturb import perturbed_tau


def run_cli(*argv, timeout=120):
    proc = subprocess.run(
        [sys.executable, "-m", "bconstell.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_verify_pass_exit_zero(capsys):
    code = main(["verify", "--model", "bip", "--imax", "2", "--deg", "5", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["ok"] is True
    assert out["schema"] == 1
    assert {p["status"] for p in out["pairs"]} == {"pass"}
    assert out["params"]["model"] == "bip"


def test_verify_usage_errors():
    code, _, _ = run_cli("verify", "--model", "bip", "--imax", "0", "--deg", "4")
    assert code == 2
    code, _, _ = run_cli("verify", "--model", "nosuch", "--imax", "2", "--deg", "4")
    assert code == 2
    code, _, _ = run_cli("verify", "--model", "bip")
    assert code == 2


def test_verify_prop_flag(capsys):
    code = main(
        ["verify", "--model", "bip", "--imax", "2", "--deg", "4", "--prop", "pstar",
         "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["ok"]
    assert out["params"]["relation"] == "pstar"


@pytest.mark.parametrize("extra", [[], ["--prop", "dstruct"]], ids=["sweep", "dstruct"])
def test_verify_progress_lines_carry_elapsed_time(capsys, extra):
    code = main(["verify", "--model", "bip", "--imax", "2", "--deg", "4", "--json", *extra])
    captured = capsys.readouterr()
    assert code == 0
    assert "elapsed_s" not in captured.out
    pairs = json.loads(captured.out)["pairs"]
    done = [json.loads(line[len("done "):]) for line in captured.err.splitlines()
            if line.startswith("done ")]
    assert len(done) == len(pairs)
    for entry, pair in zip(done, pairs):
        assert entry.pop("elapsed_s") >= 0
        assert entry == pair


def test_tau_order_zero(capsys):
    code = main(["tau", "--model", "biple3", "--order", "0"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "[t^0] 1"


def test_tau_with_checks(capsys):
    code = main(
        ["tau", "--model", "bip", "--order", "3", "--check-constraints", "3",
         "--fixed-point", "2", "--json"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["ok"]
    assert out["denom_pow"] == [0, 1, 2, 3]
    assert len(out["coeffs"]) == 4


def test_tau_oracle_flag(capsys):
    code = main(["tau", "--model", "bip", "--order", "2", "--oracle", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["ok"]
    oracle = [c for c in out["checks"] if "oracle" in c][0]
    assert oracle["convention"] == "standard"


def test_dump_examples(capsys):
    code = main(["dump", "--op", "A", "--i", "2", "--s", "1", "--deg", "6"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["terms"] == [
        {"annihilate": [[1, 1]], "coeff": "1", "create": []}
    ]

    code = main(["dump", "--op", "J", "--i", "-3", "--deg", "6"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["terms"] == [{"annihilate": [], "coeff": "1", "create": [[3, 1]]}]

    code = main(["dump", "--op", "L", "--model", "bip", "--i", "1", "--deg", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    t1 = out["pieces"]["1"]["terms"]
    consts = [t for t in t1 if not t["create"] and not t["annihilate"]]
    assert consts == [{"annihilate": [], "coeff": "u1*u2/(1+b)^1", "create": []}]


def test_dump_invalid_indices_exit_two():
    code, _, _ = run_cli("dump", "--op", "A", "--i", "0", "--s", "1", "--deg", "6")
    assert code == 2
    code, _, _ = run_cli("dump", "--op", "M", "--i", "1", "--deg", "6")
    assert code == 2
    # a level past the materialized m = 3 is refused before any round is built
    code, _, err = run_cli("dump", "--op", "M", "--k", "2", "--m", "1500", "--i", "1",
                           "--deg", "0")
    assert code == 2
    assert "up to m = 3" in err
    # the structure operators need positive indices, as A, M and L do
    for op, level in (("D", "--s"), ("Dtilde", "--m")):
        for i, j, l in ((0, 1, 1), (1, -2, 1), (1, 1, 0)):
            code, _, err = run_cli("dump", "--op", op, level, "3", "--i", str(i),
                                   "--j", str(j), "--l", str(l), "--deg", "3")
            assert code == 2
            assert "--i, --j, --l >= 1" in err


def test_jack_cli(capsys):
    code = main(["jack", "--lambda", "2,1", "--dump"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["partition"] == [2, 1]
    ones = [c for c in out["coefficients"] if c["p_basis"] == [1, 1, 1]][0]
    assert ones["coeff"] == "1"


def test_oracle_cli(capsys):
    code = main(["oracle", "--model", "threeconst", "--order", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["ok"]
    assert out["params"]["convention"] == "standard"


def test_oracle_cli_mismatch_exits_one(capsys, monkeypatch):
    import bconstell.cli as cli_mod

    def fake_compare(model, order, convention=None):
        return {
            "params": {"model": model.name, "order": order, "convention": "standard"},
            "ok": False,
            "first_mismatch": {"order": 1, "monomial": [[1, 1]],
                               "engine_minus_oracle": "b"},
        }

    monkeypatch.setattr(cli_mod, "compare_with_engine", fake_compare)
    code = main(["oracle", "--model", "bip", "--order", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["first_mismatch"]["engine_minus_oracle"] == "b"


def test_stdout_deterministic():
    first = run_cli("verify", "--model", "bip", "--imax", "2", "--deg", "4", "--json")
    second = run_cli("verify", "--model", "bip", "--imax", "2", "--deg", "4", "--json")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    td1 = run_cli("tau", "--model", "biple3", "--order", "2", "--json")
    td2 = run_cli("tau", "--model", "biple3", "--order", "2", "--json")
    assert td1[1] == td2[1]


@pytest.mark.parametrize("model", ["bip", "threeconst", "biple3"])
@pytest.mark.parametrize("value", ["1/2", "0", "abc", "-1", "1e99999999"])
def test_verify_b_eval_is_a_usage_error(model, value):
    # verify compares symbolically in b and takes no point to substitute;
    # argparse refuses the option before the value is read
    code, out, err = run_cli(
        "verify", "--model", model, "--imax", "1", "--deg", "2", "--b-eval", value,
        timeout=30,
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "unrecognized arguments" in err and "--b-eval" in err


@pytest.mark.parametrize("argv", [
    ["jack", "--lambda", "13"],
    ["jack", "--lambda", "7,6"],
    ["oracle", "--model", "bip", "--order", "13"],
    ["tau", "--model", "bip", "--order", "13", "--oracle"],
])
def test_beyond_jack_bound_exits_two(argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and "oracle bound 12" in err


@pytest.mark.parametrize("lam", ["3,,2", "2,1,", ",2"])
def test_jack_empty_part_exits_two(lam):
    code, out, err = run_cli("jack", "--lambda", lam)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "--lambda expects a comma-separated partition" in err


def test_tau_oracle_bound_checked_before_engine(monkeypatch, capsys):
    import bconstell.cli as cli_mod

    def engine_must_not_run(model, order):
        raise AssertionError("the engine ran before the oracle bound was checked")

    monkeypatch.setattr(cli_mod, "tau_evolve", engine_must_not_run)
    with pytest.raises(SystemExit) as exc:
        main(["tau", "--model", "biple3", "--order", "13", "--oracle"])
    assert exc.value.code == 2
    assert "oracle bound 12" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "bconstell", "jack", "--lambda", "2,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "p_[3]: -alpha\np_[2, 1]: alpha - 1\np_[1, 1, 1]: 1\n"


def test_tau_oracle_evolves_the_series_once(monkeypatch, capsys):
    import bconstell.cli as cli_mod
    import bconstell.tau as tau_mod

    real = tau_mod.tau_evolve
    calls = []

    def counting(model, order):
        calls.append((model.name, order))
        return real(model, order)

    monkeypatch.setattr(tau_mod, "tau_evolve", counting)
    monkeypatch.setattr(cli_mod, "tau_evolve", counting)
    code = main(["tau", "--model", "bip", "--order", "3", "--oracle", "--json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["ok"]
    assert calls == [("bip", 3)]


def test_oracle_subcommand_evolves_once(monkeypatch, capsys):
    import bconstell.tau as tau_mod

    real = tau_mod.tau_evolve
    calls = []

    def counting(model, order):
        calls.append(order)
        return real(model, order)

    monkeypatch.setattr(tau_mod, "tau_evolve", counting)
    assert main(["oracle", "--model", "bip", "--order", "3"]) == 0
    assert calls == [3]
    capsys.readouterr()
    # below order 2 the one evolution runs through t^2, which calibration needs
    calls.clear()
    assert main(["oracle", "--model", "bip", "--order", "1"]) == 0
    assert calls == [2]


def test_jack_echoes_the_sorted_partition(capsys):
    assert main(["jack", "--lambda", "1,2", "--json"]) == 0
    unsorted = json.loads(capsys.readouterr().out)
    assert main(["jack", "--lambda", "2,1", "--json"]) == 0
    ordered = json.loads(capsys.readouterr().out)
    assert unsorted["partition"] == [2, 1]
    assert unsorted == ordered


@pytest.mark.parametrize("prop", [None, "dstruct", "mixed", "pstar"])
@pytest.mark.parametrize("model", ["bip", "threeconst", "biple3"])
def test_verify_imax_beyond_the_built_family(model, prop):
    # indices past the support bound are the zero operator at the build degree
    argv = ["verify", "--model", model, "--imax", "6", "--deg", "1", "--json"]
    code, out, err = run_cli(*argv, *(["--prop", prop] if prop else []))
    assert code == 0, err
    assert "Traceback" not in err
    report = json.loads(out)
    assert report["ok"]
    assert len(report["pairs"]) % 36 == 0


@pytest.mark.parametrize("model", ["bip", "threeconst", "biple3"])
def test_final_commutator_imax_beyond_the_built_family(model):
    from bconstell.constraints import MODELS, verify_simplified

    report = verify_simplified(MODELS[model], "dstruct", [3], 7, 1)
    assert report["ok"]
    assert [(p["i"], p["j"]) for p in report["pairs"]] == [
        (i, j) for i in range(1, 8) for j in range(1, 8)
    ]


@pytest.mark.parametrize("flag", ["--check-constraints", "--fixed-point"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_tau_check_imax_below_one_is_a_usage_error(flag, value):
    code, out, err = run_cli("tau", "--model", "bip", "--order", "2", flag, value)
    assert code == 2
    assert out == ""
    assert "%s must be at least 1" % flag in err


def test_tau_text_mode_builds_no_json_form(monkeypatch, capsys):
    from bconstell.ppoly import PPoly

    def refuse(self):
        raise AssertionError("text-mode tau built the JSON form of a coefficient")

    monkeypatch.setattr(PPoly, "to_json_obj", refuse)
    code = main(["tau", "--model", "bip", "--order", "3", "--fixed-point", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("[t^0] 1\n[t^1] ")
    assert out.endswith("overall: pass\n")


@pytest.mark.parametrize("level", ["1500", "1000000000"])
def test_dump_deep_level_fills_without_recursion(level):
    # levels far past Python's recursion limit; at --deg 0 level 1 is already
    # empty, and the fill stops there rather than building every level
    argv = ["dump", "--op", "A", "--i", "1", "--s", level, "--deg", "0"]
    code, out, err = run_cli(*argv, timeout=30)
    assert code == 0, err
    assert "Traceback" not in err
    obj = json.loads(out)
    assert obj["op"] == "A" and obj["terms"] == []
    assert float(re.search(r"elapsed: ([0-9.]+)s", err).group(1)) < 1.0


def test_dump_scalar_ring_overflow_is_a_usage_error(monkeypatch, capsys):
    import bconstell.cli as cli_mod
    from bconstell.coeffring import B

    def overflowing(i, s, working_degree):
        # a b exponent past the ring's packed field, as a very deep level reaches
        return B ** 2048

    monkeypatch.setattr(cli_mod, "build_A", overflowing)
    with pytest.raises(SystemExit) as exc:
        main(["dump", "--op", "A", "--i", "2", "--s", "2100", "--deg", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "exponent exceeds the packed field limit" in captured.err
    assert "Traceback" not in captured.err


def test_dump_level_past_the_limit_exits_two_at_once():
    # A_2(s) carries b^(s-1), so a level past MAX_EXP + 1 is refused before
    # any level is built
    start = time.perf_counter()
    code, out, err = run_cli("dump", "--op", "A", "--i", "2", "--s", "2100", "--deg", "1")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == ""
    assert "level limit 2048" in err and "Traceback" not in err
    # at --deg 0 every deep level is zero and is still dumped
    code, out, err = run_cli("dump", "--op", "A", "--i", "2", "--s", "2100", "--deg", "0")
    assert code == 0, err
    assert json.loads(out)["terms"] == []
    code, out, _ = run_cli("dump", "--help")
    assert "at most 2048" in out


def test_dump_overflow_below_the_level_limit_is_a_usage_error(monkeypatch, capsys):
    import bconstell.cli as cli_mod
    from bconstell.coeffring import B

    def overflowing(i, s, working_degree):
        return B ** 2048

    monkeypatch.setattr(cli_mod, "build_A", overflowing)
    with pytest.raises(SystemExit) as exc:
        main(["dump", "--op", "A", "--i", "2", "--s", "5", "--deg", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "exponent exceeds the packed field limit" in captured.err
    assert "level limit" not in captured.err


NO_SYMPY_PROBE = """
import contextlib, io, sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from bconstell.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["verify", "--model", "threeconst", "--imax", "2", "--deg", "4", "--json"]),
        main(["tau", "--model", "biple3", "--order", "2", "--check-constraints", "2",
              "--fixed-point", "2", "--oracle"]),
        main(["dump", "--op", "A", "--i", "2", "--s", "1", "--deg", "3"]),
        main(["oracle", "--model", "bip", "--order", "2"]),
    ]
print(codes)
print(main(["jack", "--lambda", "2,1"]))
"""


def test_the_package_runs_without_sympy():
    # sympy is a test dependency only: every command runs with it unimportable
    proc = subprocess.run(
        [sys.executable, "-c", NO_SYMPY_PROBE], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "[0, 0, 0, 0]\n"
        "p_[3]: -alpha\n"
        "p_[2, 1]: alpha - 1\n"
        "p_[1, 1, 1]: 1\n"
        "0\n"
    )


def test_closed_stdout_pipe_exits_without_traceback():
    # the series through t^6 is far larger than a pipe's buffer, so the CLI
    # is still writing when its reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "bconstell", "tau", "--model", "threeconst", "--order", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert "Traceback" not in err and "Error" not in err


def test_tau_failing_checks_name_their_first_failure(monkeypatch, capsys):
    import bconstell.cli as cli_mod

    # 1 added to the coefficient of p1^3 in [t^3] tau
    series = perturbed_tau(THREECONST, 4)
    monkeypatch.setattr(cli_mod, "tau_evolve", lambda model, order: series)
    argv = ["tau", "--model", "threeconst", "--order", "4", "--check-constraints", "3",
            "--fixed-point", "3", "--oracle"]
    assert main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "overall: FAIL"
    lines = [json.loads(x[len("check "):]) for x in out if x.startswith("check ")]
    assert main(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == lines
    constraints, fixed_point, oracle = lines
    assert constraints == {
        "constraints": False, "imax": 3, "denominator_flags": [],
        "first_failure": {"i": 1, "n": 3, "first_nonzero": "(-3)*p1^2"},
    }
    assert fixed_point == {
        "fixed_point": False, "imax": 3,
        "first_failure": {"i": 1, "n": 3, "first_mismatch": "(3*b + 3)*p1^2"},
    }
    assert oracle == {
        "oracle": False, "convention": "standard",
        "first_mismatch": {"order": 3, "monomial": [[1, 3]], "engine_minus_oracle": "1"},
    }


def test_dump_has_no_json_flag():
    # dump always prints JSON; the flag that did nothing is gone
    code, _, err = run_cli("dump", "--op", "J", "--i", "1", "--deg", "2", "--json")
    assert code == 2
    assert "unrecognized arguments: --json" in err
