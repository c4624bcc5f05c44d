"""bconstell benchmark: release-size CLI workloads timed end to end.

    python3 perfbench/run.py --workload {sweep|series|oracle|all} \\
        --seed N --seconds S --trace {0|1}

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Load shape: a closed loop with one client.  Every run of
a workload is a fresh single-threaded child process (``child.py``) calling
``bconstell.cli.main`` with the workload's fixed argv, one child at a time,
so every ``lru_cache`` starts cold as it does for a CLI user.  Children are
started until the next one would end after S seconds, but at least two per
workload (one untraced and one traced with ``--trace 1``).  The seed only
permutes the order in which children of different workloads and kinds are
interleaved; the inputs are the fixed release sizes in ``workloads.py``.

Each child's stdout must match the seed engine's output byte for byte (by
sha256) with exit code 0 and no traceback; any other child counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
  wall_s       median time from just after import to ``main`` returning
  cpu_s        median user + system CPU of the child (``os.wait4``)
  setup_s      median time from spawning a fresh interpreter until
               ``bconstell.cli`` is imported, over import-only children run
               before each timed child and the timed children themselves
  peak_rss_mb  median peak resident set of the child (``os.wait4``)
``--trace 1`` runs untraced and traced children and reports the per-layer
metrics of BENCHMARK.json from the traced ones (see ``spans.py``), plus
``trace_overhead_frac``; a traced ``sweep`` also prints the sweep's phase
split.  ``--workload all`` runs every workload interleaved and prefixes each
metric with its workload name.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0  # a child still running this long after the start is killed
PROBES_PER_CHILD = 6  # import-only children before each timed child
LOAD_SHAPE = "closed loop, 1 client, one single-threaded child process at a time"


class Runner:
    """Starts benchmark children one at a time and collects their samples."""

    def __init__(self, workdir, deadline):
        self.workdir = Path(workdir)
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.timed_out = False

    def spawn(self, mode, argv=()):
        """Run one child to completion; return its sample as a dict."""
        self.count += 1
        base = self.workdir / ("c%d" % self.count)
        result_file = base.with_suffix(".json")
        out_file = base.with_suffix(".out")
        err_file = base.with_suffix(".err")
        with open(out_file, "wb") as out, open(err_file, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(result_file), mode, *argv],
                stdout=out, stderr=err, env=self.env, cwd=str(ROOT),
            )
            status, usage = self._reap(proc)
        reaped = time.monotonic()
        sample = {
            "mode": mode,
            "code": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "wall_s": reaped - spawned,
            "stdout": out_file.read_bytes(),
            "stderr": err_file.read_text(errors="replace"),
        }
        if result_file.exists():
            res = json.loads(result_file.read_text())
            sample["setup_s"] = res["ready"] - spawned
            if "start" in res:
                sample["wall_s"] = res["end"] - res["start"]
            sample["raised"] = res.get("raised")
            sample["trace"] = res.get("trace")
        for path in (result_file, out_file, err_file):
            if path.exists():
                path.unlink()
        return sample

    def _reap(self, proc):
        """Wait for the child without reaping any other; kill it at the deadline."""
        delay = 0.001
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > self.deadline:
                    self.timed_out = True
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(delay)
                delay = min(delay * 2, 0.05)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return status, usage


def check(sample, workload):
    """Reason the child failed the output gate, or None when it passed."""
    if sample["code"] != 0:
        return "exit code %d" % sample["code"]
    if sample.get("raised") or "Traceback (most recent call last)" in sample["stderr"]:
        return "raised"
    if "setup_s" not in sample:
        return "no result file"
    digest = hashlib.sha256(sample["stdout"]).hexdigest()
    if digest != workload["sha256"]:
        return "stdout sha256 %s (%d bytes) != expected %s (%d bytes)" % (
            digest, len(sample["stdout"]), workload["sha256"], workload["stdout_bytes"])
    return None


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name, values, unit):
    line = "  %-30s %12.6g %-6s median of %d" % (name, statistics.median(values), unit, len(values))
    line += " (min %.6g, max %.6g)" % (min(values), max(values))
    tl = tail(values)
    if tl:
        line += ", p%.0f %.6g" % tl
    return line


def git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_record(args):
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
        "load_shape": LOAD_SHAPE,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(timed, setups):
    """End-to-end metrics of one workload from its timed children."""
    return {
        "wall_s": statistics.median(s["wall_s"] for s in timed),
        "cpu_s": statistics.median(s["cpu_s"] for s in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
    }


def per_layer(name, timed, traced):
    """Per-layer metrics of one workload from its traced children."""
    per_child = [
        spans.layer_metrics(s["trace"], len(s["stdout"])) for s in traced if s.get("trace")
    ]
    if not per_child or not timed:
        return None
    out = {k: statistics.median(m[k] for m in per_child) for k in per_child[0]}
    out["trace_overhead_frac"] = (
        statistics.median(s["wall_s"] for s in traced)
        / statistics.median(s["wall_s"] for s in timed) - 1.0
    )
    missing = [k for k in WORKLOADS[name]["nonzero"] if not out[k]]
    if missing:
        print("warning: %s: expected non-zero: %s" % (name, ", ".join(missing)), file=sys.stderr)
    split = spans.phase_split(traced[0]["trace"])
    if split:
        total = sum(t for _, t in split)
        print("  sweep phase split (traced, inclusive): " + " | ".join(
            "%s %.3f s (%.0f%%)" % (label, t, 100.0 * t / total) for label, t in split))
    return out


def collect(args, names, kinds, runner, started):
    """Run children until the time budget is spent.

    Returns the samples per (workload, kind) and the set-up samples per
    workload.  With --trace 0 each timed child is preceded by import-only
    probes, whose set-up times join the timed children's.
    """
    rng = random.Random(args.seed)
    min_rounds = 1 if args.trace else 2
    samples = {(w, k): [] for w in names for k in kinds}
    setups = {w: [] for w in names}
    last = {}  # (workload, kind) -> seconds the latest such job took
    rounds = 0
    while not runner.timed_out:
        jobs = [(w, k) for w in names for k in kinds]
        rng.shuffle(jobs)
        if rounds >= min_rounds:
            if time.monotonic() - started + sum(last[j] for j in jobs) > args.seconds:
                break
        for w, k in jobs:
            if runner.timed_out:
                break
            t0 = time.monotonic()
            if k == "timed" and not args.trace:
                probes = [runner.spawn("import") for _ in range(PROBES_PER_CHILD)]
                setups[w] += [p["setup_s"] for p in probes if "setup_s" in p]
            sample = runner.spawn(k, WORKLOADS[w]["argv"])
            last[(w, k)] = time.monotonic() - t0
            sample["failure"] = check(sample, WORKLOADS[w])
            if sample["failure"]:
                print("failed: %s %s: %s\n%s" % (
                    w, k, sample["failure"], sample["stderr"][-2000:]), file=sys.stderr)
            if k == "timed" and "setup_s" in sample:
                setups[w].append(sample["setup_s"])
            samples[(w, k)].append(sample)
        rounds += 1
    return samples, setups


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "bconstell" / "cli.py").is_file() or not spec_file.is_file():
        print("error: no bconstell sources at %s" % SRC, file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    kinds = ["timed", "traced"] if args.trace else ["timed"]

    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix=".run-", dir=str(HERE)) as workdir:
        runner = Runner(workdir, started + RUN_LIMIT_S)
        warm = runner.spawn("import")  # also compiles bytecode before timing
        if warm["code"] != 0 or "setup_s" not in warm:
            print("error: cannot import bconstell.cli:\n%s" % warm["stderr"], file=sys.stderr)
            return 2
        samples, setups = collect(args, names, kinds, runner, started)

    print("run_record " + json.dumps(run_record(args), sort_keys=True))
    metrics = {}
    for w in names:
        print("workload %s: bconstell %s" % (w, " ".join(WORKLOADS[w]["argv"])))
        timed = samples[(w, "timed")]
        if args.trace:
            values = per_layer(w, timed, samples[(w, "traced")])
        elif timed:
            values = end_to_end(timed, setups[w])
            print(describe("wall_s", [s["wall_s"] for s in timed], "s"))
            print(describe("cpu_s", [s["cpu_s"] for s in timed], "s"))
            print(describe("setup_s", setups[w], "s"))
            print(describe("peak_rss_mb", [s["peak_rss_mb"] for s in timed], "MB"))
        else:
            values = None
        children = [s for k in kinds for s in samples[(w, k)]]
        bad = sum(1 for s in children if s["failure"])
        print("  %-30s %12.6g        %d of %d children" % (
            "failed_frac", bad / max(len(children), 1), bad, len(children)))
        if values is None:
            continue
        prefix = w + "." if args.workload == "all" else ""
        for k, unit in units.items():
            if args.trace:
                print("  %-34s %14.6g %s" % (k, values[k], unit))
            metrics[prefix + k] = {"value": values[k], "unit": unit}

    children = [s for group in samples.values() for s in group]
    failed = sum(1 for s in children if s["failure"])
    print(json.dumps({
        "correct": failed == 0 and not runner.timed_out and bool(metrics),
        "attempted": len(children),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
