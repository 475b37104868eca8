"""What the benchmark measures: workloads, end-to-end metrics with their
regression bounds, and per-layer metrics with the end-to-end metric and
workload each one should move.  BENCHMARK.json at the root of the repo is
this table; `python3 perfbench/spec.py > BENCHMARK.json` regenerates it.
"""

from __future__ import annotations

import json

RUN_SECONDS = 20

# name, why; the ops of workload <name> are in ops_<name>.py
WORKLOADS = (
    ("enum", "brute-force z_brute/count_configs/y_injective on #P-hard INT, RAT and POLY "
             "instances, half low-treewidth and half dense; only the evaluator and rings work"),
    ("tractable", "classify plus z_fast on large, many-component and looped graphs; "
                  "the evaluator never runs, so this is the control for evaluator changes"),
    ("identities", "identity checks made of tens of thousands of tiny evaluations: "
                   "connection matrices, Moebius inversion, reductions, Tutte, verify suites"),
    ("cli", "the partfun command end to end, one child process at a time, with "
            "one malformed input in ten; interpreter start and import dominate"),
)

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("ops_per_s", "op/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# name, unit, better, what it should move
PER_LAYER = (
    ("rings.exact_rank.calls", "count", "lower", "ops_per_s on identities"),
    ("rings.exact_rank.self_s", "s", "lower", "ops_per_s on identities (rank of connection matrices)"),
    ("rings.vandermonde_solve.self_s", "s", "lower", "ops_per_s on identities"),
    ("rings.poly_ops.calls", "count", "lower", "op_p90_ms on enum and tractable; POLY ops are the tail"),
    ("graph.components.calls", "count", "lower", "op_p90_ms on tractable"),
    ("graph.components.self_s", "s", "lower", "op_p90_ms on tractable (many-component graphs)"),
    ("graph.bipartition.self_s", "s", "lower", "ops_per_s on tractable"),
    ("graph.glue.calls", "count", "lower", "ops_per_s on identities"),
    ("graph.glue.self_s", "s", "lower", "ops_per_s on identities"),
    ("graph.quotient.calls", "count", "lower", "ops_per_s on identities"),
    ("graph.quotient.self_s", "s", "lower", "ops_per_s on identities"),
    ("graph.thicken_stretch.self_s", "s", "lower", "ops_per_s on identities"),
    ("evaluator.z_brute.calls", "count", "lower", "ops_per_s on identities"),
    ("evaluator.z_brute.self_s", "s", "lower", "ops_per_s and op_p90_ms on enum"),
    ("evaluator.configs.int", "count", "lower", "ops_per_s on enum ; input size, from the inputs"),
    ("evaluator.configs.rat", "count", "lower", "ops_per_s on enum ; input size, from the inputs"),
    ("evaluator.configs.poly", "count", "lower", "ops_per_s on enum ; input size, from the inputs"),
    ("evaluator.configs_per_s.int", "configs/s", "higher", "ops_per_s on enum"),
    ("evaluator.configs_per_s.rat", "configs/s", "higher", "ops_per_s on enum"),
    ("evaluator.configs_per_s.poly", "configs/s", "higher", "op_p90_ms on enum"),
    ("evaluator.z_brute.small_call_us", "us", "lower", "ops_per_s on identities (small calls)"),
    ("evaluator.count_configs.self_s", "s", "lower", "ops_per_s on enum"),
    ("evaluator.z_edge_model.self_s", "s", "lower", "ops_per_s on identities"),
    ("evaluator.potential_weights.self_s", "s", "lower", "ops_per_s on identities"),
    ("evaluator.budget_exceeded", "count", "lower", "ok_ratio on every workload"),
    ("fastpath.classify.calls", "count", "lower", "ops_per_s on tractable"),
    ("fastpath.classify.self_s", "s", "lower", "ops_per_s and op_p50_ms on tractable"),
    ("fastpath.z_fast.calls", "count", "lower", "ops_per_s on tractable"),
    ("fastpath.z_fast.self_s", "s", "lower", "ops_per_s and op_p50_ms on tractable"),
    ("fastpath.z_fast.edges_per_s", "edges/s", "higher", "ops_per_s on tractable"),
    ("moebius.y_injective.brute_s", "s", "lower", "ops_per_s on enum (brute mode)"),
    ("moebius.y_injective.inversion_s", "s", "lower", "ops_per_s on identities"),
    ("moebius.mobius.self_s", "s", "lower", "ops_per_s on identities"),
    ("moebius.zeta_check.self_s", "s", "lower", "ops_per_s on identities"),
    ("connection.enumerate_klabeled.self_s", "s", "lower", "ops_per_s on identities"),
    ("connection.connection_matrix.self_s", "s", "lower", "op_p90_ms and ops_per_s on identities"),
    ("connection.entries", "count", "lower", "op_p90_ms on identities ; input size"),
    ("connection.evals_per_entry", "ratio", "lower", "op_p90_ms and ops_per_s on identities"),
    ("connection.is_psd.self_s", "s", "lower", "op_p90_ms on identities"),
    ("connection.non_psd_witness.self_s", "s", "lower", "ops_per_s on identities"),
    ("connection.non_psd_witness.submatrices", "count", "lower", "ops_per_s on identities"),
    ("models.oracles.self_s", "s", "lower", "ops_per_s on identities; op_p50_ms on cli"),
    ("models.tutte_contraction_deletion.self_s", "s", "lower", "ops_per_s on identities"),
    ("models.ising_polynomial.self_s", "s", "lower", "ops_per_s on identities"),
    ("reductions.recover_counts.self_s", "s", "lower", "ops_per_s on identities"),
    ("reductions.twin_resolvent.self_s", "s", "lower", "ops_per_s on identities"),
    ("reductions.matrix_powers.self_s", "s", "lower", "ops_per_s on identities"),
    ("corpus.canonical_form.calls", "count", "lower", "ops_per_s on identities; setup_s"),
    ("corpus.canonical_form.self_s", "s", "lower", "ops_per_s on identities; setup_s"),
    ("formats.parse.self_s", "s", "lower", "op_p50_ms on cli"),
    ("formats.bytes_parsed", "bytes", "lower", "op_p50_ms on cli ; input size"),
    ("verify.suite.moebius_s", "s", "lower", "ops_per_s on identities"),
    ("verify.suite.tutte_s", "s", "lower", "ops_per_s on identities"),
    ("verify.suite.flows_s", "s", "lower", "ops_per_s on identities"),
    ("verify.suite.reductions_s", "s", "lower", "ops_per_s on identities"),
    ("verify.suite.connection_s", "s", "lower", "ops_per_s on identities"),
    ("verify.checks", "count", "higher", "ok_ratio on identities"),
    ("verify.checks_failed", "count", "lower", "ok_ratio on identities"),
    ("cli.interpreter_ms", "ms", "lower", "op_p50_ms on cli; bare python -c pass"),
    ("cli.import_ms", "ms", "lower", "op_p50_ms and setup_s on cli"),
    ("cli.verb.eval_ms", "ms", "lower", "op_p50_ms on cli"),
    ("cli.verb.classify_ms", "ms", "lower", "op_p50_ms on cli"),
    ("cli.verb.invariant_ms", "ms", "lower", "op_p50_ms on cli"),
    ("cli.verb.connection_ms", "ms", "lower", "op_p90_ms on cli"),
    ("cli.verb.verify_ms", "ms", "lower", "op_p50_ms on cli"),
    ("cli.stdout_bytes", "bytes", "lower", "op_p50_ms on cli"),
    ("cli.unexpected_exit", "count", "lower", "ok_ratio on cli"),
    ("trace.overhead_ratio", "ratio", "higher", "none; traced / untraced ops_per_s - 1"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
