"""partfun benchmark: run one workload for one seed, print one JSON line.

    python3 perfbench/run.py --workload enum --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from ./src.
All load comes from this one process and thread (plus, for `cli`, one
child at a time).  Every workload is a closed loop with one caller: an op
starts when the previous one has returned, and ops are drawn in whole
rounds in which every op template of the workload appears once, so the mix
is the same for every seed.  Only the op itself is timed; building its inputs and checking
its output against an independent reference happen between ops.

--trace 0 reports the end-to-end metrics: throughput, median and 90th
percentile latency (the sample count is `attempted`), the share of ops
whose output was right, set-up time (import of partfun, building the first
round and a warm-up, median of several set-ups) and the peak resident
memory of this process or of its largest child.
--trace 1 runs one round once untraced and once with spans around every
public partfun function, and reports the per-layer metrics.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the line before it holds the run record (environment, workload shares,
first failures), also written to .perfbench_out/ with the spans.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import sys
from collections import Counter, defaultdict
from statistics import median, quantiles
from time import perf_counter

import spec
from tracer import Tracer

WORKLOADS = [name for name, _ in spec.WORKLOADS]
# modules that import partfun and are imported afresh with it at each set-up
FRESH = ("common", "oracle") + tuple(f"ops_{name}" for name in WORKLOADS)
SETUPS = 5
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
WALL_CAP_S = 120.0
OUT = ".perfbench_out"


def fresh_workload(workload):
    """Import partfun and the workload's module ops_<workload>.py anew."""
    for name in list(sys.modules):
        if name == "partfun" or name.startswith("partfun.") or name in FRESH:
            del sys.modules[name]
    common = importlib.import_module("common")
    return common.Workload(importlib.import_module(f"ops_{workload}"))


def execute(op, tracer=None, index=0):
    """Run one op; returns (seconds, ok, error text).  Only fn is timed,
    and only fn is traced."""
    if tracer is not None:
        tracer.op = index
        tracer.active = True
    start = perf_counter()
    try:
        out = op.fn()
        elapsed = perf_counter() - start
    except Exception as exc:  # a failing op is counted, and the run goes on
        return perf_counter() - start, False, f"{op.kind}: {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.active = False
    try:
        ok = bool(op.check(out))
    except Exception as exc:
        return elapsed, False, f"{op.kind}: check raised {type(exc).__name__}: {exc}"
    return elapsed, ok, None if ok else f"{op.kind}: wrong output {str(out)[:200]}"


def set_up(workload, seed, ctx):
    """Import partfun and the workload afresh, build the first round and
    run the warm-up ops; returns (seconds, module, first round)."""
    start = perf_counter()
    wl = fresh_workload(workload)
    first = [wl.op(seed, i, ctx) for i in range(wl.round)]
    for op in wl.warmup(seed, ctx):
        execute(op)
    return perf_counter() - start, wl, first


class Tally:
    """Latencies, failures and input shares of the ops run."""

    def __init__(self):
        self.latencies = []
        self.failures = []
        self.failed = 0
        self.kinds = Counter()
        self.counts = Counter()
        self.sums = Counter()

    def add(self, op, result):
        elapsed, ok, error = result
        self.latencies.append(elapsed)
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(error)
        self.kinds[op.kind] += 1
        for key, value in op.tags.items():
            if isinstance(value, int) and not isinstance(value, bool):
                self.sums[key] += value
            else:
                self.counts[f"{key}={value}"] += 1

    def shares(self):
        """Share of ops per kind and per tag value; summed tags as shares of
        the total over tags with the same prefix (e.g. configs.int)."""
        n = len(self.latencies) or 1
        out = {f"kind={k}": v / n for k, v in sorted(self.kinds.items())}
        out.update({k: v / n for k, v in sorted(self.counts.items())})
        groups = defaultdict(int)
        for key, value in self.sums.items():
            groups[key.split(".")[0]] += value
        out.update({k: v / groups[k.split(".")[0]] for k, v in sorted(self.sums.items())
                    if groups[k.split(".")[0]]})
        return out


def timed_run(wl, seed, ctx, first, seconds, tally):
    """Closed loop until `seconds` of op time have passed, MIN_OPS ops have
    run and the round in progress is complete."""
    busy = 0.0
    i = 0
    wall = perf_counter()
    while (busy < seconds or i < MIN_OPS or i % wl.round) and perf_counter() - wall < WALL_CAP_S:
        op = first[i] if i < len(first) else wl.op(seed, i, ctx)
        result = execute(op)
        tally.add(op, result)
        busy += result[0]
        i += 1
    return busy


def end_to_end(tally, busy, setups):
    lat = tally.latencies
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {
        "ops_per_s": len(lat) / busy,
        "op_p50_ms": median(lat) * 1e3,
        "op_p90_ms": quantiles(lat, n=10, method="inclusive")[8] * 1e3,
        "ok_ratio": (len(lat) - tally.failed) / len(lat),
        "setup_s": median(setups),
        "peak_rss_mb": peak_kb / 1024,
    }


def traced_run(wl, seed, ctx, tally, record):
    """One round, each op once untraced and once traced, alternating which
    goes first so neither pass gets the other's warm-up; returns the
    per-layer metrics.  cli commands run through cli.run in process here."""
    ctx["in_process"] = True
    ops = [wl.op(seed, i, ctx) for i in range(wl.round)]
    tracer = Tracer()
    tracer.install([wl.module])
    untraced = []
    traced = 0.0
    for i, op in enumerate(ops):
        for with_spans in ((False, True) if i % 2 else (True, False)):
            result = execute(op, tracer if with_spans else None, i)
            tally.add(op, result)
            if with_spans:
                traced += result[0]
            else:
                untraced.append(result)
    metrics = {name: 0 for name, *_ in spec.PER_LAYER}
    metrics.update(tracer.metrics())
    metrics["trace.overhead_ratio"] = sum(r[0] for r in untraced) / traced - 1
    if hasattr(wl.module, "process_metrics"):
        metrics.update(wl.module.process_metrics(ctx, list(zip(ops, untraced)), tally))
    path = os.path.join(OUT, f"spans-{record['workload']}.jsonl")
    tracer.dump(path)
    record["spans"] = {"file": path, "count": len(tracer.spans)}
    return metrics


def commit():
    """HEAD of the checkout's git metadata, when it has any."""
    try:
        with open(".git/HEAD", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as fh:
            return next((line.split()[0] for line in fh if line.rstrip().endswith(" " + ref)), "unknown")
    except OSError:
        return "unknown"


def environment(seed):
    src_lines = 0
    for path in glob.glob("src/**/*.py", recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit(),
            "seed": seed, "src_lines": src_lines}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "partfun", "__init__.py")):
        print("run from the root of a partfun checkout: src/partfun is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ctx = {"workdir": workdir, "src": os.path.abspath("src")}
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              **environment(args.seed)}
    try:
        setups = []
        for _ in range(1 if args.trace else SETUPS):
            seconds, wl, first = set_up(args.workload, args.seed, ctx)
            setups.append(seconds)
        if not sys.modules["partfun"].__file__.startswith(ctx["src"]):
            raise RuntimeError(f"partfun was imported from {sys.modules['partfun'].__file__}")
        tally = Tally()
        if args.trace:
            metrics = traced_run(wl, args.seed, ctx, tally, record)
        else:
            busy = timed_run(wl, args.seed, ctx, first, args.seconds, tally)
            metrics = end_to_end(tally, busy, setups)
            record["busy_s"] = busy
        record.update(samples=len(tally.latencies), setups_s=setups, shares=tally.shares(),
                      failures=tally.failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(OUT, f"record-{args.workload}-{args.seed}-{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": spec.UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
