"""Smoke test of the benchmark itself; run it from the root of a checkout:

    python3 perfbench/smoke.py

It checks that BENCHMARK.json matches spec.py; that every workload, run
briefly with tracing off and on, emits every metric BENCHMARK.json names
with its unit and a correct result; that a z_brute reached through
connection_matrix is counted in evaluator.z_brute.calls; that a wrong
expected value drives ok_ratio below 1; and that without src/ the
benchmark fails without printing a result.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import spec

SEED = 7


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def run_bench(workload, trace, cwd="."):
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_file():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        if json.load(fh) != spec.benchmark_json():
            fail("BENCHMARK.json differs from spec.benchmark_json()")


def check_workload(workload, trace):
    proc = run_bench(workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace {trace}: {result['failed']} of {result['attempted']} ops failed")
    table = spec.PER_LAYER if trace else spec.END_TO_END
    want = {name: unit for name, unit, *_ in table}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace {trace}: metric names or units differ: "
             f"{sorted(set(got.items()) ^ set(want.items()))}")
    print(f"ok {workload} trace {trace}: {result['attempted']} ops")


def check_spans_cross_modules():
    import partfun
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    basis = partfun.enumerate_klabeled(1, 2, 1)
    a = partfun.WeightMatrix(partfun.INT, [[1, 1], [1, 0]])
    tracer.active = True
    matrix = partfun.connection_matrix(a, basis)
    tracer.active = False
    metrics = tracer.metrics()
    pairs = matrix.size * (matrix.size + 1) // 2
    if metrics["evaluator.z_brute.calls"] != pairs or metrics["connection.evals_per_entry"] != 1.0:
        fail(f"z_brute under connection_matrix: {metrics['evaluator.z_brute.calls']} calls "
             f"for {pairs} entries")
    print(f"ok z_brute calls made inside connection are counted: {pairs}")


def check_tractable_skips_evaluator():
    import common
    import ops_tractable
    import run
    from tracer import Tracer

    wl = common.Workload(ops_tractable)
    tracer = Tracer()
    tracer.install([ops_tractable])
    for i in range(wl.round):
        run.execute(wl.op(SEED, i, {}), tracer, i)
    busy = [s.name for s in tracer.spans if s.layer == "evaluator"]
    if busy or not tracer.spans:
        fail(f"tractable ops ran the evaluator: {sorted(set(busy))}")
    print(f"ok tractable ops make {len(tracer.spans)} spans and none in the evaluator")


def check_wrong_answer_counts():
    from partfun import INT, WeightMatrix, z_brute

    import common
    import run

    a = WeightMatrix(INT, [[1, 1], [1, 0]])
    g = common.path(4)
    tally = run.Tally()
    for expected in (8, 9):  # Z of the independent-set matrix on P4 is 8
        op = common.Op("z_brute", lambda: z_brute(a, g), common.equals(lambda e=expected: e))
        tally.add(op, run.execute(op))
    ok_ratio = run.end_to_end(tally, 1.0, [1.0])["ok_ratio"]
    if ok_ratio != 0.5:
        fail(f"one wrong expected value in two ops gave ok_ratio {ok_ratio}")
    print("ok a wrong expected value lowers ok_ratio to 0.5")


def check_without_source():
    bare = os.path.join(".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(spec.WORKLOADS[0][0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without src/ the benchmark exited {proc.returncode} with output {proc.stdout!r}")
    print(f"ok without src/ the benchmark exits {proc.returncode} and prints no result")


def main():
    sys.path.insert(0, os.path.abspath("src"))
    check_file()
    for workload, _ in spec.WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_spans_cross_modules()
    check_tractable_skips_evaluator()
    check_wrong_answer_counts()
    check_without_source()
    print("smoke ok")


if __name__ == "__main__":
    main()
