"""Command-line front end.

Commands: verify (commutator sweeps), tau (series generation and checks),
dump (operator JSON), jack (deformed polynomial dump), oracle (series
cross-check).  Exit codes: 0 pass, 1 check failure, 2 usage error.  Stdout
is deterministic for fixed flags; wall time goes to stderr.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from .coeffring import MAX_EXP
from .constraints import (
    MODELS,
    build_D,
    build_Dtilde,
    build_L,
    structure_family,
    verify_simplified,
    verify_commutators,
)
from .currents import build_A, build_M, current
from .jack import JACK_BOUND, compare_with_engine, jack
from .tau import check_constraints, check_rooted_fixed_point, tau_evolve

SCHEMA = 1
# A_i(s) at --deg >= 1 carries b^(s-1), whose exponent the scalar ring holds
# only up to MAX_EXP; at --deg 0 every deep level is zero
A_LEVEL_LIMIT = MAX_EXP + 1


def _emit(report, as_json):
    report = dict(report)
    report["schema"] = SCHEMA
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    params = report.get("params", {})
    head = " ".join("%s=%s" % (k, v) for k, v in sorted(params.items()) if v is not None)
    print("# %s" % head)
    for item in report.get("pairs", report.get("items", [])):
        keys = [k for k in ("level", "level2", "i", "j", "n") if k in item]
        label = " ".join("%s=%s" % (k, item[k]) for k in keys)
        extra = ""
        if item.get("first_mismatch"):
            extra = "  first mismatch: %s" % item["first_mismatch"]
        if item.get("explicit_form"):
            extra += "  [grouped display deviates]"
        print("%-24s %s%s" % (label, item["status"], extra))
    for flag in report.get("denominator_flags", []):
        print("denominator flag: %s" % flag)
    print("overall: %s" % ("pass" if report["ok"] else "FAIL"))


def _oracle_order(parser, flag, n):
    if n > JACK_BOUND:
        parser.error("%s %d exceeds the oracle bound %d" % (flag, n, JACK_BOUND))


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
    b_eval = None
    if args.b_eval is not None:
        try:
            b_eval = Fraction(args.b_eval)
        except (ValueError, ZeroDivisionError):
            parser.error("--b-eval expects a rational number such as 1 or -1/2")
        if b_eval == -1:
            parser.error("--b-eval -1 is not allowed: 1/(1+b) is undefined at b = -1")

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
        if b_eval is not None:
            parser.error("--b-eval applies to the commutator sweep only")
        levels = structure_family(model).levels
        report = verify_simplified(
            model, args.prop, levels, args.imax, args.deg, progress=stream
        )
    else:
        report = verify_commutators(
            model, args.imax, args.deg, b_eval=b_eval, progress=stream
        )
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
    ok = True
    checks = []
    if args.check_constraints:
        rep = check_constraints(series, args.check_constraints)
        ok = ok and rep["ok"]
        checks.append({"constraints": rep["ok"], "imax": args.check_constraints,
                       "denominator_flags": rep["denominator_flags"]})
    if args.fixed_point:
        rep = check_rooted_fixed_point(model, series, args.fixed_point)
        ok = ok and rep["ok"]
        checks.append({"fixed_point": rep["ok"], "imax": args.fixed_point})
    if args.oracle:
        rep = compare_with_engine(model, args.order, engine=series)
        ok = ok and rep["ok"]
        checks.append({"oracle": rep["ok"],
                       "convention": rep["params"]["convention"],
                       "first_mismatch": rep["first_mismatch"]})
    if args.json:
        print(json.dumps({
            "params": {"model": model.name, "order": args.order},
            "order": series.order,
            "coeffs": [c.to_json_obj() for c in series.coeffs],
            "denom_pow": series.denom_pow_profile(),
            "checks": checks,
            "ok": ok,
            "schema": SCHEMA,
        }, sort_keys=True))
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
            print(json.dumps(
                {"schema": SCHEMA, "op": "L", "model": model.name, "i": args.i,
                 "pieces": build_L(model, args.i, deg).to_json_obj()},
                sort_keys=True))
            return 0
        elif op in ("D", "Dtilde"):
            flag, level, build = (
                ("s", args.s, build_D) if op == "D" else ("m", args.m, build_Dtilde)
            )
            if None in (level, args.j, args.l) or min(args.i, args.j, args.l) < 1:
                raise ValueError("%s needs --%s and --i, --j, --l >= 1" % (op, flag))
            out = build(level, args.i, args.j, args.l, deg)
        else:
            raise ValueError("unknown op %r" % (op,))
    except (ValueError, OverflowError) as exc:
        parser.error(str(exc))
    obj = out.to_json_obj()
    obj["schema"] = SCHEMA
    obj["op"] = op
    print(json.dumps(obj, sort_keys=True))
    return 0


def cmd_jack(parser, args):
    try:
        lam = tuple(int(x) for x in args.lam.split(",") if x)
    except ValueError:
        parser.error("--lambda expects a comma-separated partition, e.g. 2,1")
    if any(x < 1 for x in lam):
        parser.error("partition parts must be positive")
    _oracle_order(parser, "--lambda of size", sum(lam))
    vec = jack(lam)
    parts = sorted(vec, reverse=True)
    obj = {
        "schema": SCHEMA,
        "partition": sorted(lam, reverse=True),
        "coefficients": [
            {"p_basis": list(mu), "coeff": str(vec[mu])} for mu in parts
        ],
    }
    if args.dump or args.json:
        print(json.dumps(obj, sort_keys=True))
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
    report["schema"] = SCHEMA
    print(json.dumps(report, sort_keys=True))
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
    v.add_argument("--prop", choices=("dstruct", "mixed", "pstar"))
    v.add_argument("--b-eval", dest="b_eval")
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
    d.add_argument("--json", action="store_true")

    j = sub.add_parser("jack", help="dump a deformed polynomial")
    j.add_argument("--lambda", dest="lam", required=True)
    j.add_argument("--dump", action="store_true")
    j.add_argument("--json", action="store_true")

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
    code = handlers[args.command](parser, args)
    print("elapsed: %.2fs" % (time.monotonic() - start), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
