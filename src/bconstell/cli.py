"""Command-line front end.

Commands: verify (commutator sweeps), tau (series generation and checks),
dump (operator JSON), jack (deformed polynomial dump), oracle (series
cross-check).  Exit codes: 0 pass, 1 check failure, 2 usage error, 3 stdout
closed before the output was written.  Stdout is deterministic for fixed
flags; wall time goes to stderr.
"""

import argparse
import json
import os
import sys
import time

from .coeffring import MAX_EXP
from .constraints import (
    MODELS,
    RELATIONS,
    build_D,
    build_Dtilde,
    build_L,
    structure_family,
    verify_simplified,
    verify_commutators,
)
from .currents import build_A, build_M, current
from .jack import JACK_BOUND, alpha_str, compare_with_engine, jack
from .tau import check_constraints, check_rooted_fixed_point, tau_evolve

SCHEMA = 1
# A_i(s) at --deg >= 1 carries b^(s-1), whose exponent the scalar ring holds
# only up to MAX_EXP; at --deg 0 every deep level is zero
A_LEVEL_LIMIT = MAX_EXP + 1
# exit code when the reader of stdout goes away (e.g. `| head`)
EXIT_BROKEN_PIPE = 3


def _print_json(obj):
    """Print obj, stamped with the schema, as one line of sorted JSON."""
    print(json.dumps({**obj, "schema": SCHEMA}, sort_keys=True))


def _emit(report, as_json):
    """Print a verify report: one JSON line, or one line per pair."""
    if as_json:
        _print_json(report)
        return
    params = report["params"]
    head = " ".join("%s=%s" % (k, v) for k, v in sorted(params.items()) if v is not None)
    print("# %s" % head)
    for item in report["pairs"]:
        keys = [k for k in ("level", "level2", "i", "j") if k in item]
        label = " ".join("%s=%s" % (k, item[k]) for k in keys)
        extra = ""
        if item.get("first_mismatch"):
            extra = "  first mismatch: %s" % item["first_mismatch"]
        if item.get("explicit_form"):
            extra += "  [grouped display deviates]"
        print("%-24s %s%s" % (label, item["status"], extra))
    print("overall: %s" % ("pass" if report["ok"] else "FAIL"))


def _oracle_order(parser, flag, n):
    if n > JACK_BOUND:
        parser.error("%s %d exceeds the oracle bound %d" % (flag, n, JACK_BOUND))


def _check_line(name, report):
    """A tau check line: the verdict under name, the params the command line
    does not show, the report's other fields and its first failing item."""
    line = {name: report["ok"]}
    line.update((k, v) for k, v in report["params"].items() if k not in ("model", "order"))
    line.update((k, v) for k, v in report.items() if k not in ("params", "ok", "items"))
    first = next((x for x in report.get("items", ()) if x["status"] != "pass"), None)
    if first:
        line["first_failure"] = {k: v for k, v in first.items() if k != "status"}
    return line


def _model(parser, name):
    if name not in MODELS:
        parser.error("unknown model %r (choose from %s)" % (name, sorted(MODELS)))
    return MODELS[name]


def cmd_verify(parser, args):
    model = _model(parser, args.model)
    if args.imax < 1:
        parser.error("--imax must be at least 1")
    if args.deg < 1:
        parser.error("--deg must be at least 1")
    last = time.perf_counter()

    def stream(entry):
        # partial progress on stderr, with the seconds since the previous
        # entry (the first one includes building the operators); stdout
        # stays deterministic
        nonlocal last
        now = time.perf_counter()
        timed = dict(entry, elapsed_s=round(now - last, 6))
        last = now
        print("done %s" % json.dumps(timed, sort_keys=True), file=sys.stderr)

    if args.prop:
        levels = structure_family(model)[0].levels
        report = verify_simplified(
            model, args.prop, levels, args.imax, args.deg, progress=stream
        )
    else:
        report = verify_commutators(model, args.imax, args.deg, progress=stream)
    _emit(report, args.json)
    return 0 if report["ok"] else 1


def cmd_tau(parser, args):
    model = _model(parser, args.model)
    if args.order < 0:
        parser.error("--order must be non-negative")
    for flag, imax in (("--check-constraints", args.check_constraints),
                       ("--fixed-point", args.fixed_point)):
        if imax is not None and imax < 1:
            parser.error("%s must be at least 1" % flag)
    if args.oracle:
        _oracle_order(parser, "--order", args.order)
    series = tau_evolve(model, args.order)
    reports = {}
    if args.check_constraints:
        reports["constraints"] = check_constraints(model, series, args.check_constraints)
    if args.fixed_point:
        reports["fixed_point"] = check_rooted_fixed_point(model, series, args.fixed_point)
    if args.oracle:
        reports["oracle"] = compare_with_engine(model, args.order, engine=series)
    checks = [_check_line(name, rep) for name, rep in reports.items()]
    ok = all(rep["ok"] for rep in reports.values())
    if args.json:
        _print_json({
            "params": {"model": model.name, "order": args.order},
            "order": series.order,
            "coeffs": [c.to_json_obj() for c in series.coeffs],
            "denom_pow": series.denom_pow_profile(),
            "checks": checks,
            "ok": ok,
        })
    else:
        for n, c in enumerate(series.coeffs):
            print("[t^%d] %s" % (n, c))
        for chk in checks:
            print("check %s" % json.dumps(chk, sort_keys=True))
        if checks:
            print("overall: %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_dump(parser, args):
    deg = args.deg
    if deg < 0:
        parser.error("--deg must be non-negative")
    op = args.op
    try:
        if op == "J":
            out = current(args.i).truncated(deg)
        elif op == "A":
            if args.i < 1 or args.s is None or args.s < 0:
                raise ValueError("A needs --i >= 1 and --s >= 0")
            if deg >= 1 and args.s > A_LEVEL_LIMIT:
                raise ValueError(
                    "--s %d exceeds the level limit %d of A at --deg >= 1: A_i(s) "
                    "carries b^(s-1), and that exponent exceeds the packed field "
                    "limit %d of the scalar ring" % (args.s, A_LEVEL_LIMIT, MAX_EXP)
                )
            out = build_A(args.i, args.s, deg)
        elif op == "M":
            if args.k is None or args.m is None:
                raise ValueError("M needs --k and --m")
            out = build_M(args.k, args.m, args.i, deg)
        elif op == "L":
            model = _model(parser, args.model or "")
            if args.i < 1:
                raise ValueError("L needs --i >= 1")
            out = build_L(model, args.i, deg)
        elif op in ("D", "Dtilde"):
            flag, level, build = (
                ("s", args.s, build_D) if op == "D" else ("m", args.m, build_Dtilde)
            )
            if None in (level, args.j, args.l) or min(args.i, args.j, args.l) < 1:
                raise ValueError("%s needs --%s and --i, --j, --l >= 1" % (op, flag))
            out = build(level, args.i, args.j, args.l, deg)
    except (ValueError, OverflowError) as exc:
        parser.error(str(exc))
    obj = out.to_json_obj()
    if op == "L":
        obj = {"model": args.model, "i": args.i, "pieces": obj}
    _print_json(dict(obj, op=op))
    return 0


def cmd_jack(parser, args):
    try:
        # "" is the empty partition; an empty part elsewhere is malformed
        lam = tuple(int(x) for x in args.lam.split(",")) if args.lam else ()
    except ValueError:
        parser.error("--lambda expects a comma-separated partition, e.g. 2,1")
    if any(x < 1 for x in lam):
        parser.error("partition parts must be positive")
    _oracle_order(parser, "--lambda of size", sum(lam))
    vec = jack(lam)
    parts = sorted(vec, reverse=True)
    obj = {
        "partition": sorted(lam, reverse=True),
        "coefficients": [
            {"p_basis": list(mu), "coeff": alpha_str(vec[mu])} for mu in parts
        ],
    }
    if args.json:
        _print_json(obj)
    else:
        for item in obj["coefficients"]:
            print("p_%s: %s" % (item["p_basis"], item["coeff"]))
    return 0


def cmd_oracle(parser, args):
    model = _model(parser, args.model)
    if args.order < 0:
        parser.error("--order must be non-negative")
    _oracle_order(parser, "--order", args.order)
    report = compare_with_engine(model, args.order)
    _print_json(report)
    return 0 if report["ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bconstell",
        description="Exact constraint algebra and tau series for b-weighted "
        "constellation models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify commutator identities")
    v.add_argument("--model", required=True)
    v.add_argument("--imax", type=int, required=True)
    v.add_argument("--deg", type=int, required=True)
    v.add_argument("--prop", choices=RELATIONS)
    v.add_argument("--json", action="store_true")

    t = sub.add_parser("tau", help="integrate the series and run checks")
    t.add_argument("--model", required=True)
    t.add_argument("--order", type=int, required=True)
    t.add_argument("--check-constraints", type=int, metavar="IMAX")
    t.add_argument("--fixed-point", type=int, metavar="IMAX")
    t.add_argument("--oracle", action="store_true")
    t.add_argument("--json", action="store_true")

    d = sub.add_parser("dump", help="dump one operator as JSON")
    d.add_argument("--op", required=True, choices=("J", "A", "M", "L", "D", "Dtilde"))
    d.add_argument("--i", type=int, required=True)
    d.add_argument("--j", type=int)
    d.add_argument("--l", type=int)
    d.add_argument(
        "--s", type=int,
        help="level of A (at most %d when --deg >= 1) or of D" % A_LEVEL_LIMIT,
    )
    d.add_argument("--m", type=int)
    d.add_argument("--k", type=int)
    d.add_argument("--model")
    d.add_argument("--deg", type=int, required=True)

    j = sub.add_parser("jack", help="dump a deformed polynomial")
    j.add_argument("--lambda", dest="lam", required=True)
    j.add_argument("--json", "--dump", action="store_true")

    o = sub.add_parser("oracle", help="compare the series against the oracle")
    o.add_argument("--model", required=True)
    o.add_argument("--order", type=int, required=True)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    handlers = {
        "verify": cmd_verify,
        "tau": cmd_tau,
        "dump": cmd_dump,
        "jack": cmd_jack,
        "oracle": cmd_oracle,
    }
    try:
        code = handlers[args.command](parser, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; point stdout at devnull so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    print("elapsed: %.2fs" % (time.monotonic() - start), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
