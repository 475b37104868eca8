"""Identity suites behind the `verify` command.

Each suite runs a family of exact checks over built-in corpora and returns
one record per check: name, pass/fail status, and the first counterexample
when a check fails.  An exception inside a check also counts as a failure,
with the error as the witness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct

from . import corpus
from .connection import (
    connection_matrix,
    connection_matrix_for,
    enumerate_klabeled,
    is_psd,
    non_psd_witness,
    rank_bound_check,
)
from .errors import BadParameter
from .evaluator import (
    count_configs,
    perfect_matching_model,
    z_brute,
    z_edge_model,
)
from .graph import Multigraph, Pinning, stretch, thicken
from .models import (
    NamedModel,
    matrix_of,
    nowhere_zero_flows,
    tutte_contraction_deletion,
    tutte_eval_brute,
    verify_tutte_identity,
)
from .moebius import (
    enumerate_partitions,
    mobius,
    schrijver_condition,
    y_injective,
    zeta_check,
)
from .reductions import matrix_stretch, matrix_thicken, recover_counts, twin_resolvent

SUITE_NAMES = ("moebius", "tutte", "flows", "reductions", "connection")

_BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)


def _check(results, name, fn):
    try:
        witness = fn()
    except Exception as exc:
        results.append(
            {
                "name": name,
                "status": "fail",
                "counterexample": f"{type(exc).__name__}: {exc}",
            }
        )
        return
    results.append(
        {
            "name": name,
            "status": "pass" if witness is None else "fail",
            "counterexample": witness,
        }
    )


def _moebius_graphs(max_vertices):
    graphs = [g for g in corpus.simple_graphs_upto(min(max_vertices, 4)) if g.n >= 1]
    graphs.append(corpus.cycle_graph(2))
    graphs.append(Multigraph(1, [(0, 0)]))
    return graphs


def suite_moebius(max_vertices: int = 4):
    results = []
    kmax = min(max_vertices + 1, 6)

    def partition_counts():
        for k in range(kmax + 1):
            if len(enumerate_partitions(k)) != _BELL[k]:
                return f"k={k}: {len(enumerate_partitions(k))} partitions"
        return None

    _check(results, "partition-counts", partition_counts)

    def mu_recursion():
        for k in range(1, kmax + 1):
            table = mobius(k)
            parts = enumerate_partitions(k)
            singletons = max(len(p) for p in parts)
            for p in parts:
                total = 0
                for refinement in _refinements(p):
                    total += table[refinement]
                expected = 1 if len(p) == singletons else 0
                if total != expected:
                    return f"k={k}, P={p!r}: sum {total}"
        return None

    _check(results, "mu-recursion", mu_recursion)

    def falling_factorial():
        from .rings import POLY, X

        for k in range(1, kmax + 1):
            table = mobius(k)
            lhs = POLY.zero
            for p, mu in table.items():
                lhs = lhs + mu * X ** len(p)
            rhs = POLY.one
            for i in range(k):
                rhs = rhs * (X - i)
            if lhs != rhs:
                return f"k={k}: {lhs!r} != {rhs!r}"
        return None

    _check(results, "falling-factorial", falling_factorial)

    matrices = [
        a for name, a in corpus.int_matrix_corpus()
        if name in ("indep-set", "three-colorings", "even-degrees")
    ]
    graphs = _moebius_graphs(max_vertices)

    def y_two_ways():
        for a in matrices:
            for g in graphs:
                if g.n > max_vertices:
                    continue
                if y_injective(a, g, "brute") != y_injective(a, g, "inversion"):
                    return f"{a!r} on {g!r}"
        return None

    _check(results, "y-brute-vs-inversion", y_two_ways)

    def zeta():
        for a in matrices:
            for g in graphs:
                if g.n > max_vertices:
                    continue
                lhs, rhs = zeta_check(a, g)
                if lhs != rhs:
                    return f"{a!r} on {g!r}: {lhs} != {rhs}"
        return None

    _check(results, "zeta-identity", zeta)

    def vanishing():
        for a in matrices:
            for g in graphs:
                if not a.n < g.n <= max_vertices:
                    continue
                val = schrijver_condition(a, g)
                if val != a.ring.zero:
                    return f"{a!r} on {g!r}: {val}"
        return None

    _check(results, "vanishing-above-spin-count", vanishing)
    return results


def _refinements(p):
    """All partitions refining p, as blockwise products of sub-partitions."""
    from .graph import VertexPartition

    per_block = []
    for b in p.blocks:
        local = []
        for q in enumerate_partitions(len(b)):
            local.append([tuple(b[i] for i in blk) for blk in q.blocks])
        per_block.append(local)
    for combo in iproduct(*per_block):
        blocks = [blk for part in combo for blk in part]
        yield VertexPartition(p.n, blocks)


def suite_tutte(max_vertices: int = 4):
    results = []
    graphs = corpus.connected_multigraphs(min(max_vertices, 4), 4)
    points = [(2, 2), (3, 2), (2, 3)]

    def partition_identity():
        for g in graphs:
            for x, y in points:
                if not verify_tutte_identity(g, x, y):
                    return f"{g!r} at ({x},{y})"
        return None

    _check(results, "tutte-partition-identity", partition_identity)

    def contraction_deletion():
        for g in graphs:
            for x, y in points:
                lhs = tutte_eval_brute(g, x, y)
                rhs = tutte_contraction_deletion(g, x, y)
                if lhs != rhs:
                    return f"{g!r} at ({x},{y}): {lhs} != {rhs}"
        return None

    _check(results, "contraction-deletion", contraction_deletion)
    return results


def suite_flows(max_vertices: int = 4):
    results = []
    graphs = corpus.simple_graphs_upto(min(max_vertices, 5))

    def three_way():
        for k in (2, 3):
            a, d = matrix_of(NamedModel("flow", k=k))
            for g in graphs:
                direct = nowhere_zero_flows(g, k)
                scaled = Fraction(1, k) ** g.n * z_brute(a, g)
                weighted = z_brute(a, g, weights=d)
                if not (direct == scaled == weighted):
                    return f"k={k}, {g!r}: {direct} / {scaled} / {weighted}"
        return None

    _check(results, "flow-three-way", three_way)
    return results


def suite_reductions(max_vertices: int = 4):
    results = []
    graphs = corpus.connected_multigraphs(min(max_vertices, 3), 3)
    int_matrices = [a for _, a in corpus.int_matrix_corpus()]
    poly_matrices = [a for _, a in corpus.poly_matrix_corpus()]
    pinnings = [None, Pinning({0: 0})]

    def thickening():
        for a in int_matrices + poly_matrices:
            for g in graphs:
                for p in (2, 3):
                    for pin in pinnings:
                        lhs = z_brute(matrix_thicken(a, p), g, pin=pin)
                        rhs = z_brute(a, thicken(g, p), pin=pin)
                        if lhs != rhs:
                            return f"{a!r}, {g!r}, p={p}"
        return None

    _check(results, "thickening-identity", thickening)

    def stretching():
        for a in int_matrices + poly_matrices:
            for g in graphs:
                for p in (2, 3):
                    if p == 3 and g.num_edges() > 2:
                        # stretched graphs gain p-1 vertices per occurrence
                        continue
                    for pin in pinnings:
                        lhs = z_brute(matrix_stretch(a, p), g, pin=pin)
                        rhs = z_brute(a, stretch(g, p), pin=pin)
                        if lhs != rhs:
                            return f"{a!r}, {g!r}, p={p}"
        return None

    _check(results, "stretching-identity", stretching)

    def twins():
        for a in int_matrices:
            res = twin_resolvent(a)
            for g in graphs:
                if z_brute(a, g) != z_brute(
                    res.resolvent, g, weights=res.weights
                ):
                    return f"{a!r}, {g!r}"
                pin = Pinning({0: a.n - 1})
                lhs = z_brute(a, g, pin=pin)
                rhs = z_brute(
                    res.resolvent, g, pin=res.map_pinning(pin), weights=res.weights
                )
                if lhs != rhs:
                    return f"{a!r}, {g!r} pinned"
        return None

    _check(results, "twin-resolution", twins)

    def permutations_invariant():
        for a in int_matrices:
            pi = list(reversed(range(a.n)))
            for g in graphs:
                if z_brute(a.permuted(pi), g) != z_brute(a, g):
                    return f"{a!r}, {g!r}"
        return None

    _check(results, "permutation-invariance", permutations_invariant)

    def recovery():
        cases = [a for a in int_matrices[:4]] + poly_matrices[:2]
        for a in cases:
            for g in graphs[:6]:
                oracle = lambda phi, h: z_brute(a, h, pin=phi)
                counts = recover_counts(oracle, a, g)
                for w, c in counts.items():
                    if c != count_configs(a, g, w):
                        return f"{a!r}, {g!r}, weight {w!r}"
        return None

    _check(results, "recover-counts", recovery)
    return results


def suite_connection(max_vertices: int = 4):
    results = []
    matrices = [a for _, a in corpus.nonneg_int_corpus() if a.n <= 3]

    def psd_and_rank():
        for k in (0, 1):
            cap = 2 if k == 0 else min(max(max_vertices, 2), 3)
            basis = enumerate_klabeled(k, cap, 2)
            for a in matrices:
                m = connection_matrix_for(lambda g: z_brute(a, g), basis)
                if m.entries != connection_matrix(a, basis).entries:
                    return f"{a!r}, k={k}: Gram product is not the glued matrix"
                if not is_psd(m.entries):
                    return f"{a!r}, k={k}: not PSD"
                if not rank_bound_check(m, a.n, k):
                    return f"{a!r}, k={k}: rank bound"
        return None

    _check(results, "psd-and-rank-bound", psd_and_rank)

    def matching_witness():
        basis = enumerate_klabeled(1, 2, 1)
        model = perfect_matching_model(8)
        m = connection_matrix_for(lambda g: z_edge_model(model, g), basis)
        witness = non_psd_witness(m)
        if witness is None:
            return "no non-PSD principal submatrix found"
        return None

    _check(results, "matching-non-psd-witness", matching_witness)
    return results


_SUITES = {
    "moebius": suite_moebius,
    "tutte": suite_tutte,
    "flows": suite_flows,
    "reductions": suite_reductions,
    "connection": suite_connection,
}


def run_suite(name: str, max_vertices: int = 4):
    """Run one suite (or 'all'); returns a flat list of check records."""
    if max_vertices < 1:
        raise BadParameter("--max-vertices must be >= 1")
    if name == "all":
        results = []
        for suite in SUITE_NAMES:
            for record in _SUITES[suite](max_vertices):
                record = dict(record)
                record["name"] = f"{suite}/{record['name']}"
                results.append(record)
        return results
    if name not in _SUITES:
        raise BadParameter(f"unknown suite {name!r}, expected {SUITE_NAMES + ('all',)}")
    return _SUITES[name](max_vertices)
