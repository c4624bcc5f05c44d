"""Outside-in span tracing of bconstell's layers for the benchmark's traced runs.

A traced child installs a ``Tracer`` before it calls ``bconstell.cli.main``.
The tracer replaces each boundary callable listed in ``SPANS`` by a wrapper
that records calls, inclusive time and self time (inclusive time minus the
time of the spans nested inside it).  The wrapper is bound in every namespace
of the ``bconstell`` package that binds the original (``cli`` imports
``verify_commutators``, ``tau`` imports ``build_L``, ...), and a target that no
longer exists raises instead of being skipped, so a span cannot go missing
silently.  Functions imported inside function bodies read the module
attribute at call time and therefore see the wrapper too.

Nothing in ``src/`` is edited; the cost of the wrappers is the tracing
overhead that the traced run reports as ``trace_overhead_frac``.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict

# span name -> (module of bconstell, attribute path in that module).  Every
# entry point the workloads use into a layer is a span, so that layer's time
# is not counted as its caller's self time; nested calls inside one layer
# need no span of their own.
SPANS = {
    "coeffring.mul": ("coeffring", "Coeff.__mul__"),
    "coeffring.add": ("coeffring", "Coeff.__add__"),
    "ppoly.mul": ("ppoly", "PPoly.__mul__"),
    "ppoly.add": ("ppoly", "PPoly.__add__"),
    "ppoly.dp": ("ppoly", "PPoly.dp"),
    "weyl.compose": ("weyl", "WeylOp.compose"),
    "weyl.apply": ("weyl", "WeylOp.apply"),
    "currents.current": ("currents", "current"),
    "currents.lambda_y": ("currents", "YVector.lambda_y"),
    "currents.build_A": ("currents", "build_A"),
    "currents.build_M": ("currents", "build_M"),
    "currents.esym": ("currents", "esym"),
    "constraints.build_L": ("constraints", "build_L"),
    "constraints.sweep": ("constraints", "verify_commutators"),
    "constraints.lhs": ("constraints", "TGradedOp.commutator"),
    "constraints.structure_rhs": ("constraints", "structure_rhs"),
    "constraints.grouped_rhs": ("constraints", "explicit_rhs"),
    "constraints.compare": ("constraints", "TGradedOp.equal_up_to"),
    "tau.evolve": ("tau", "tau_evolve"),
    "tau.check_constraints": ("tau", "check_constraints"),
    "tau.fixed_point": ("tau", "check_rooted_fixed_point"),
    "jack.compare": ("jack", "compare_with_engine"),
    "jack.inner": ("jack", "_inner_field"),
    "cli.main": ("cli", "main"),
}

# lru caches whose hit ratios are reported: (module, attribute or None for
# every cache the module defines at top level)
CACHES = {
    "currents.cache_hit_ratio": ("currents", None),
    "jack.table_cache_hit_ratio": ("jack", "_jack_table"),
}


class Tracer:
    """Span statistics and counters for one traced process."""

    def __init__(self):
        self.spans = {}  # name -> [calls, inclusive_s, self_s]
        self.counters = defaultdict(int)
        self._stack = [0.0]  # nested-span time accumulated per open span
        self._products = set()  # (id(a), id(b)) of commutator products seen

    def wrap(self, name, fn, hook=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - nested
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- counters taken at the span boundaries -------------------------------

    def _coeff_mul(self, args, result):
        a, b = args
        self.counters["coeffring.mul.term_pairs"] += len(a.num) * (
            len(b.num) if hasattr(b, "num") else 1
        )

    def _coeff_add(self, args, result):
        a, b = args
        c = self.counters
        if hasattr(b, "num"):
            c["coeffring.add.terms_in"] += len(a.num) + len(b.num)
            if a.dp != b.dp:
                c["coeffring.add.rescale_calls"] += 1
        else:
            c["coeffring.add.terms_in"] += len(a.num) + 1

    def _ppoly_mul(self, args, result):
        a, b = args
        self.counters["ppoly.mul.term_pairs"] += len(a.terms) * (
            len(b.terms) if hasattr(b, "terms") else 1
        )

    def _compose(self, args, result):
        a, b = args
        self.counters["weyl.compose.term_pairs"] += len(a.terms) * len(b.terms)
        self.counters["weyl.compose.terms_out"] += len(result.terms)

    def _apply(self, args, result):
        op, f = args
        self.counters["weyl.apply.term_pairs"] += len(op.terms) * len(f.terms)

    def _commutator(self, args, result):
        a, b = args
        for key in ((id(a), id(b)), (id(b), id(a))):
            self.counters["constraints.lhs.products"] += 1
            if key in self._products:
                self.counters["constraints.lhs.repeats"] += 1
            else:
                self._products.add(key)

    def _inner(self, args, result):
        f, g = args
        if f is g:
            self.counters["jack.norm.calls"] += 1

    def hooks(self):
        return {
            "coeffring.mul": self._coeff_mul,
            "coeffring.add": self._coeff_add,
            "ppoly.mul": self._ppoly_mul,
            "weyl.compose": self._compose,
            "weyl.apply": self._apply,
            "constraints.lhs": self._commutator,
            "jack.inner": self._inner,
        }

    # -- installation and report --------------------------------------------

    def install(self):
        """Wrap every SPANS target in every bconstell namespace binding it."""
        for modname, _ in SPANS.values():
            importlib.import_module("bconstell." + modname)
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "bconstell" or name.startswith("bconstell.")
        ]
        hooks = self.hooks()
        for name, (modname, path) in SPANS.items():
            owner = sys.modules["bconstell." + modname]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original, hooks.get(name))
            # a class binds aliases such as __rmul__ = __mul__ in its own
            # dict; a function is bound by the modules that import it
            namespaces = [owner] if classes else modules
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

    def report(self):
        """Plain-data snapshot of spans, counters and cache statistics."""
        caches = {}
        for metric, (modname, attr) in CACHES.items():
            mod = sys.modules["bconstell." + modname]
            if attr is None:
                found = [v for v in vars(mod).values() if hasattr(v, "cache_info")]
            else:
                found = [getattr(mod, attr)]
            hits = misses = 0
            for fn in found:
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses
            caches[metric] = [hits, misses]
        return {"spans": self.spans, "counters": dict(self.counters), "caches": caches}


def _self_under(spans, layer):
    return sum(
        stat[2] for name, stat in spans.items()
        if name == layer or name.startswith(layer + ".")
    )


def layer_metrics(report, stdout_bytes):
    """The per-layer metrics of one traced child, by BENCHMARK.json name."""
    spans = report["spans"]
    counters = report["counters"]
    zero = [0, 0.0, 0.0]

    def calls(name):
        return spans.get(name, zero)[0]

    def count(name):
        return counters.get(name, 0)

    def self_s(name):
        return spans.get(name, zero)[2]

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(metric):
        hits, misses = report["caches"][metric]
        return ratio(hits, hits + misses)

    return {
        "coeffring.mul.calls": calls("coeffring.mul"),
        "coeffring.mul.term_pairs": count("coeffring.mul.term_pairs"),
        "coeffring.mul.self_s": self_s("coeffring.mul"),
        "coeffring.add.calls": calls("coeffring.add"),
        "coeffring.add.terms_in": count("coeffring.add.terms_in"),
        "coeffring.add.rescale_calls": count("coeffring.add.rescale_calls"),
        "coeffring.add.self_s": self_s("coeffring.add"),
        "ppoly.mul.calls": calls("ppoly.mul"),
        "ppoly.mul.term_pairs": count("ppoly.mul.term_pairs"),
        "ppoly.self_s": _self_under(spans, "ppoly"),
        "weyl.compose.calls": calls("weyl.compose"),
        "weyl.compose.term_pairs": count("weyl.compose.term_pairs"),
        "weyl.compose.terms_out": count("weyl.compose.terms_out"),
        "weyl.compose.self_s": self_s("weyl.compose"),
        "weyl.apply.calls": calls("weyl.apply"),
        "weyl.apply.term_pairs": count("weyl.apply.term_pairs"),
        "weyl.apply.self_s": self_s("weyl.apply"),
        "currents.lambda_y.calls": calls("currents.lambda_y"),
        "currents.self_s": _self_under(spans, "currents"),
        "currents.cache_hit_ratio": hit_ratio("currents.cache_hit_ratio"),
        "constraints.build_L.self_s": self_s("constraints.build_L"),
        "constraints.lhs.self_s": self_s("constraints.lhs"),
        "constraints.structure_rhs.self_s": self_s("constraints.structure_rhs"),
        "constraints.grouped_rhs.self_s": self_s("constraints.grouped_rhs"),
        "constraints.compare.self_s": self_s("constraints.compare"),
        "constraints.lhs.repeat_ratio": ratio(
            count("constraints.lhs.repeats"), count("constraints.lhs.products")
        ),
        "tau.evolve.calls": calls("tau.evolve"),
        "tau.evolve.self_s": self_s("tau.evolve"),
        "tau.check_constraints.self_s": self_s("tau.check_constraints"),
        "tau.fixed_point.self_s": self_s("tau.fixed_point"),
        "jack.self_s": _self_under(spans, "jack"),
        "jack.inner.calls": calls("jack.inner"),
        "jack.norm.calls": count("jack.norm.calls"),
        "jack.table_cache_hit_ratio": hit_ratio("jack.table_cache_hit_ratio"),
        "cli.self_s": _self_under(spans, "cli"),
        "cli.stdout_bytes": stdout_bytes,
    }


# (label, span) of the commutator sweep's phases, as in ROADMAP's hot-spot map
PHASES = [
    ("L family", "constraints.build_L"),
    ("LHS", "constraints.lhs"),
    ("structure RHS", "constraints.structure_rhs"),
    ("grouped RHS", "constraints.grouped_rhs"),
    ("compare", "constraints.compare"),
]


def phase_split(report):
    """Inclusive traced seconds per sweep phase, or None if no sweep ran."""
    spans = report["spans"]
    if not spans.get("constraints.sweep", [0])[0]:
        return None
    return [(label, spans.get(name, [0, 0.0, 0.0])[1]) for label, name in PHASES]
