"""Every span and cache the traced benchmark wraps still exists in bconstell.

The bench's own self-test runs too: every workload's tiny argv gives the same
stdout traced and untraced, and each layer the workload lists reads non-zero.

``perfbench/spans.py`` names its targets by module and attribute path and
raises on a missing one, so a rename in ``src/`` would break only the traced
bench.  This reads that file without importing it (nothing is written next
to it) and resolves every target the way its tracer does.
"""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_PY = ROOT / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    source = SPANS_PY.read_text()
    exec(compile(source, str(SPANS_PY), "exec"), module.__dict__)
    return module


def test_every_span_target_resolves():
    spans = load_spans()
    assert spans.SPANS
    for name, (modname, path) in spans.SPANS.items():
        owner = importlib.import_module("bconstell." + modname)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert callable(vars(owner).get(attr)), name


def test_every_cache_target_resolves():
    spans = load_spans()
    for metric, (modname, attr) in spans.CACHES.items():
        mod = importlib.import_module("bconstell." + modname)
        if attr is None:
            found = [v for v in vars(mod).values() if hasattr(v, "cache_info")]
        else:
            found = [getattr(mod, attr)]
        assert found and all(hasattr(fn, "cache_info") for fn in found), metric


def test_bench_selftest_passes():
    before = sorted(os.listdir(SPANS_PY.parent))
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("selftest: pass\n")
    assert sorted(os.listdir(SPANS_PY.parent)) == before
