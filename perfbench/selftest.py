"""Self-test of the benchmark's span wiring on tiny inputs.

    python3 perfbench/selftest.py

For each workload it runs the workload's ``tiny`` argv once untraced and
once traced, and checks two things: every per-layer metric listed in the
workload's ``nonzero`` reads non-zero in the traced child, and the traced
stdout equals the untraced stdout byte for byte.  Exits 0 when all hold.
"""

import sys
import tempfile
import time

import spans
from run import HERE, Runner
from workloads import WORKLOADS


def main():
    problems = []
    with tempfile.TemporaryDirectory(prefix=".run-", dir=str(HERE)) as workdir:
        runner = Runner(workdir, time.monotonic() + 170.0)
        for name, workload in WORKLOADS.items():
            plain = runner.spawn("timed", workload["tiny"])
            traced = runner.spawn("traced", workload["tiny"])
            for sample in (plain, traced):
                if sample["code"] != 0 or sample.get("raised"):
                    problems.append("%s %s: exit %d\n%s" % (
                        name, sample["mode"], sample["code"], sample["stderr"]))
            if plain["stdout"] != traced["stdout"]:
                problems.append("%s: traced stdout differs from untraced stdout" % name)
            if traced.get("trace"):
                values = spans.layer_metrics(traced["trace"], len(traced["stdout"]))
                zero = [k for k in workload["nonzero"] if not values[k]]
                if zero:
                    problems.append("%s: zero per-layer metrics: %s" % (name, ", ".join(zero)))
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("FAIL" if problems else "pass"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
