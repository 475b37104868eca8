"""Spans around calls into partfun's public functions, for the traced run.

install() replaces every public function of each partfun layer module in
every namespace that holds it: modules bind names with
`from .evaluator import z_brute`, so patching partfun.evaluator alone would
miss the calls made from connection, moebius, verify, reductions and cli.
Scalar Polynomial operations are counted, not timed.  Spans stay in memory
until dump(); metrics() folds them into the per-layer numbers.

A span's self time is its duration minus the time of the spans it caused in
other layers; time in a same-layer callee stays with the caller.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from collections import defaultdict
from statistics import median
from time import perf_counter

LAYERS = ("rings", "graph", "evaluator", "fastpath", "moebius", "connection", "models",
          "reductions", "corpus", "formats", "verify", "cli")
POLY_OPS = ("__add__", "__radd__", "__mul__", "__rmul__", "__pow__", "divmod")
ORACLES = ("independent_sets", "proper_colorings", "even_induced_subgraphs",
           "nowhere_zero_flows", "ordered_max_cuts", "potts_partition", "tutte_eval_brute")
SUITES = ("moebius", "tutte", "flows", "reductions", "connection")


class Span:
    __slots__ = ("index", "name", "layer", "parent", "op", "start", "end", "other", "note", "raised")

    def __init__(self, index, name, layer, parent, op):
        self.index = index
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = self.end = self.other = 0.0
        self.note = self.raised = None

    @property
    def self_s(self):
        return self.end - self.start - self.other

    def under(self, name):
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _configs(args, kwargs, out):
    a, g = args[0], args[1]
    pin = _arg(args, kwargs, 2, "pin")
    return a.ring.name, a.n ** (g.n - (len(pin) if pin is not None else 0))


# input- or output-derived facts kept on a span, computed after it ends
NOTES = {
    "evaluator.z_brute": _configs,
    "fastpath.z_fast": lambda args, kwargs, out: args[1].num_edges(),
    "moebius.y_injective": lambda args, kwargs, out: _arg(args, kwargs, 2, "mode", "brute"),
    "connection.connection_matrix": lambda args, kwargs, out: out.size * (out.size + 1) // 2,
    "verify.run_suite": lambda args, kwargs, out: (
        args[0], len(out), sum(r["status"] != "pass" for r in out)),
    "formats.parse_graph": lambda args, kwargs, out: len(args[0]),
    "formats.parse_matrix": lambda args, kwargs, out: len(args[0]),
    "formats.parse_diagonal": lambda args, kwargs, out: len(args[0]),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self.op = 0
        self.poly_ops = 0

    def install(self, namespaces=()):
        """Wrap the public functions of the loaded partfun modules, in those
        modules and in the given extra namespaces (the benchmark's own)."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"partfun.{layer}")
            for name, fn in vars(module).items():
                if (isinstance(fn, types.FunctionType) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrapped[fn] = self._wrap(layer, f"{layer}.{name}", fn)
        holders = [m for n, m in sys.modules.items() if n == "partfun" or n.startswith("partfun.")]
        for ns in holders + list(namespaces):
            for name, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(ns, name, wrapped[obj])
        poly = sys.modules["partfun.rings"].Polynomial
        for name in POLY_OPS:
            setattr(poly, name, self._count(getattr(poly, name)))

    def _count(self, fn):
        @functools.wraps(fn)
        def counted(*args):
            if self.active:
                self.poly_ops += 1
            return fn(*args)

        return counted

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self.stack
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = Span(len(spans), name, layer, parent, self.op)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.raised = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.other += span.end - span.start if parent.layer != layer else span.other
            if note is not None:
                span.note = note(args, kwargs, out)
            return out

        return traced

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = s.parent.index if s.parent is not None else -1
                fh.write(json.dumps([s.name, round(s.start - t0, 7), round(s.end - t0, 7), parent, s.op]))
                fh.write("\n")

    def metrics(self):
        """The per-layer metrics the spans and counters give."""
        by = defaultdict(list)
        for s in self.spans:
            by[s.name].append(s)

        def self_s(*names):
            return sum(s.self_s for n in names for s in by[n])

        def rate(amount, seconds):
            return amount / seconds if seconds > 0 else 0.0

        out = {"rings.poly_ops.calls": self.poly_ops}
        for name in ("rings.exact_rank", "graph.components", "graph.glue", "graph.quotient",
                     "evaluator.z_brute", "fastpath.classify", "fastpath.z_fast", "corpus.canonical_form"):
            out[f"{name}.calls"] = len(by[name])
        for name in ("rings.exact_rank", "rings.vandermonde_solve", "graph.components",
                     "graph.bipartition", "graph.glue", "graph.quotient", "evaluator.z_brute",
                     "evaluator.count_configs", "evaluator.z_edge_model", "evaluator.potential_weights",
                     "fastpath.classify", "fastpath.z_fast", "moebius.mobius", "moebius.zeta_check",
                     "connection.enumerate_klabeled", "connection.connection_matrix", "connection.is_psd",
                     "connection.non_psd_witness", "models.tutte_contraction_deletion",
                     "models.ising_polynomial", "reductions.recover_counts", "reductions.twin_resolvent",
                     "corpus.canonical_form"):
            out[f"{name}.self_s"] = self_s(name)
        out["graph.thicken_stretch.self_s"] = self_s("graph.thicken", "graph.stretch")
        out["models.oracles.self_s"] = self_s(*(f"models.{n}" for n in ORACLES))
        out["reductions.matrix_powers.self_s"] = self_s("reductions.matrix_thicken", "reductions.matrix_stretch")

        brute = by["evaluator.z_brute"]
        for ring in ("int", "rat", "poly"):
            mine = [s for s in brute if s.note is not None and s.note[0] == ring]
            configs = sum(s.note[1] for s in mine)
            out[f"evaluator.configs.{ring}"] = configs
            out[f"evaluator.configs_per_s.{ring}"] = rate(configs, sum(s.self_s for s in mine))
        small = [s.self_s * 1e6 for s in brute if s.note is not None and s.note[1] <= 64]
        out["evaluator.z_brute.small_call_us"] = median(small) if small else 0.0
        out["evaluator.budget_exceeded"] = sum(
            1 for s in self.spans if s.layer == "evaluator" and s.raised == "BudgetExceeded")

        fast = by["fastpath.z_fast"]
        out["fastpath.z_fast.edges_per_s"] = rate(
            sum(s.note for s in fast if s.note is not None), self_s("fastpath.z_fast"))

        y = by["moebius.y_injective"]
        for mode in ("brute", "inversion"):
            out[f"moebius.y_injective.{mode}_s"] = sum(s.end - s.start for s in y if s.note == mode)

        entries = sum(s.note for s in by["connection.connection_matrix"] if s.note is not None)
        evals = sum(1 for s in brute if s.under("connection.connection_matrix"))
        out["connection.entries"] = entries
        out["connection.evals_per_entry"] = evals / entries if entries else 0.0
        out["connection.non_psd_witness.submatrices"] = sum(
            1 for s in by["connection.is_psd"] if s.under("connection.non_psd_witness"))

        out["formats.parse.self_s"] = self_s("formats.parse_graph", "formats.parse_matrix",
                                             "formats.parse_diagonal")
        out["formats.bytes_parsed"] = sum(
            s.note for n in ("formats.parse_graph", "formats.parse_matrix", "formats.parse_diagonal")
            for s in by[n] if s.note is not None)

        suites = [s for s in by["verify.run_suite"] if s.note is not None]
        for suite in SUITES:
            out[f"verify.suite.{suite}_s"] = sum(s.end - s.start for s in suites if s.note[0] == suite)
        out["verify.checks"] = sum(s.note[1] for s in suites)
        out["verify.checks_failed"] = sum(s.note[2] for s in suites)
        return out
