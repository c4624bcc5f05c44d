"""The benchmark's workloads: fixed release-size CLI invocations of bconstell.

Each workload is one argv for ``bconstell.cli.main``.  The program's work is
a deterministic function of the model and the size, so the inputs are fixed;
the benchmark seed only permutes the order in which runs are interleaved.

``sha256`` and ``stdout_bytes`` pin the stdout the seed engine printed for
that argv, and every run must reproduce it byte for byte with exit code 0.
``tiny`` is a small argv of the same shape, used by ``selftest.py`` to check
the span wiring quickly; ``nonzero`` lists the per-layer metrics whose layer
runs on that shape, so each of them must read non-zero in a traced run.
"""

COMMON = [
    "coeffring.mul.calls",
    "coeffring.mul.term_pairs",
    "coeffring.mul.self_s",
    "coeffring.add.calls",
    "coeffring.add.terms_in",
    "coeffring.add.self_s",
    "weyl.compose.calls",
    "weyl.compose.term_pairs",
    "weyl.compose.terms_out",
    "weyl.compose.self_s",
    "currents.lambda_y.calls",
    "currents.self_s",
    "cli.self_s",
    "cli.stdout_bytes",
]
PPOLY = ["ppoly.mul.calls", "ppoly.mul.term_pairs", "ppoly.self_s"]
APPLY = ["weyl.apply.calls", "weyl.apply.term_pairs", "weyl.apply.self_s"]

WORKLOADS = {
    # Many small operations: ~259k Coeff products of ~5 monomial pairs, ~1.7k
    # compositions, and L_i.L_j rebuilt for (j, i).  Compose, the sweep phases
    # and the small-operand scalar ring show here.
    "sweep": {
        "argv": ["verify", "--model", "threeconst", "--imax", "6", "--deg", "10", "--json"],
        "sha256": "83a23bd46ff2e51c642c302b57f4917802602d4d34d10339395ea2cfb037670d",
        "stdout_bytes": 1409,
        "tiny": ["verify", "--model", "threeconst", "--imax", "2", "--deg", "4", "--json"],
        "nonzero": COMMON + [
            "coeffring.add.rescale_calls",
            "currents.cache_hit_ratio",
            "constraints.build_L.self_s",
            "constraints.lhs.self_s",
            "constraints.structure_rhs.self_s",
            "constraints.grouped_rhs.self_s",
            "constraints.compare.self_s",
            "constraints.lhs.repeat_ratio",
        ],
    },
    # Few large operations: ~4k Coeff products of ~263 pairs with fractional
    # and (1+b)-denominator operands, WeylOp.apply on the series, PPoly in the
    # fixed point, 288 KB of stdout.  The same scalar ring under large operands.
    "series": {
        "argv": ["tau", "--model", "threeconst", "--order", "6",
                 "--check-constraints", "5", "--fixed-point", "3"],
        "sha256": "2066746c675351cf24b9ae5047dd22d24d27a9dbdb19060b49ce064147ac282a",
        "stdout_bytes": 287814,
        "tiny": ["tau", "--model", "threeconst", "--order", "2",
                 "--check-constraints", "2", "--fixed-point", "2"],
        "nonzero": COMMON + PPOLY + APPLY + [
            "coeffring.add.rescale_calls",
            "constraints.build_L.self_s",
            "tau.evolve.calls",
            "tau.evolve.self_s",
            "tau.check_constraints.self_s",
            "tau.fixed_point.self_s",
        ],
    },
    # ~98% of the time in the Jack oracle on sympy's fraction field; bypasses
    # the constraint sweeps, so engine-side changes should leave it unchanged.
    "oracle": {
        "argv": ["tau", "--model", "biple3", "--order", "6", "--oracle"],
        "sha256": "de50122357b1964c18ffc165329ae1dc0a85980bc23a9ae35af69b37071be542",
        "stdout_bytes": 17134,
        "tiny": ["tau", "--model", "biple3", "--order", "2", "--oracle"],
        "nonzero": COMMON + PPOLY + APPLY + [
            "tau.evolve.calls",
            "tau.evolve.self_s",
            "jack.self_s",
            "jack.inner.calls",
            "jack.norm.calls",
            "jack.table_cache_hit_ratio",
        ],
    },
}
