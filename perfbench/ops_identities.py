"""identities: many small evaluations, as identity checks make them.

Each op is one identity check of the kind the verify suites and the
acceptance tests run.  Tens of thousands of evaluator calls of at most 3^6
configurations each make per-call overhead, gluing and quotients, canonical
forms, the Schur PSD test and exact rank dominate, which the enum workload
does not show.  Connection reports use a 3-vertex basis with at most 2 edge
occurrences (1 at k = 0): with 3 occurrences one report takes 1 to 19 s.
"""

from __future__ import annotations

from fractions import Fraction

from partfun import (
    INT,
    POLY,
    X,
    Pinning,
    WeightMatrix,
    connection_matrix_for,
    connection_report,
    count_configs,
    enumerate_klabeled,
    ising_polynomial,
    matrix_stretch,
    matrix_thicken,
    non_psd_witness,
    perfect_matching_model,
    potts_partition,
    recover_counts,
    run_suite,
    stretch,
    thicken,
    tutte_contraction_deletion,
    tutte_eval_brute,
    twin_resolvent,
    verify_tutte_identity,
    y_injective,
    z_brute,
    z_edge_model,
    zeta_check,
)
from partfun.corpus import canonical_form, int_matrix_corpus
from partfun.models import (
    even_induced_subgraphs,
    independent_sets,
    nowhere_zero_flows,
    ordered_max_cuts,
    proper_colorings,
)

import oracle
from common import Op, connection_check, equals, random_multigraph, relabeled

# (kind, size, matrix): the seed varies the graphs, while sizes and
# matrices stay fixed per template so that op costs hardly depend on it
TEMPLATES = (
    ("connection", (0, 1), "three-colorings"), ("connection", (1, 2), "indep-set"),
    ("connection", (1, 2), "two-blocks"), ("connection", (2, 2), "scaled-rank-one"),
    ("witness", None, None),
    ("y_injective", 3, "three-colorings"), ("y_injective", 4, "two-blocks"),
    ("y_injective", 5, "scaled-rank-one"),
    ("zeta", 4, "indep-set"), ("zeta", 4, "three-colorings"), ("zeta", 5, "even-subgraphs"),
    ("recover", 3, "weighted-indep-set"), ("recover", 3, "three-colorings"), ("recover", 4, "indep-set"),
    ("thicken", 4, "even-degrees"), ("thicken", 5, "indep-set"),
    ("stretch", 3, "even-subgraphs"), ("stretch", 4, "weighted-indep-set"),
    ("twins", 5, "two-blocks"), ("twins", 6, "twin-rows"),
    ("tutte", 4, None), ("tutte", 5, None), ("tutte", 5, None),
    ("ising", 6, None), ("ising", 7, None),
    ("invariant", 6, "independent-sets"), ("invariant", 6, "proper-colorings"),
    ("invariant", 7, "even-induced-subgraphs"), ("invariant", 6, "nowhere-zero-flows"),
    ("invariant", 6, "ordered-max-cuts"),
    ("canonical", 6, None), ("canonical", 6, None),
    ("suite", 3, "moebius"), ("suite", 3, "tutte"), ("suite", 3, "flows"),
    ("suite", 1, "reductions"), ("suite", 1, "connection"),
)
WARMUP = (TEMPLATES[1], TEMPLATES[5], TEMPLATES[20], TEMPLATES[30])

# check counts each suite reports at these sizes
SUITE_CHECKS = {"moebius": 6, "tutte": 2, "flows": 1, "reductions": 5, "connection": 2}
CORPUS = dict(int_matrix_corpus(), **{"twin-rows": WeightMatrix(INT, [[1, 2, 1], [2, 0, 2], [1, 2, 1]])})
TUTTE_POINTS = ((2, 2), (3, 2), (2, 3))
BATCH = 3
ISING = WeightMatrix(POLY, [[X, POLY.one], [POLY.one, X]])


def _graph(rng, n):
    return random_multigraph(rng, n, n + 1, loops=True)


def _witness():
    basis = enumerate_klabeled(1, 2, 1)
    model = perfect_matching_model(8)
    m = connection_matrix_for(lambda g: z_edge_model(model, g), basis)
    return non_psd_witness(m)


def _invariant(kind, g):
    """(package matrix value and package oracle, reference) for one invariant."""
    if kind == "independent-sets":
        a = CORPUS["indep-set"]
        return lambda: (z_brute(a, g), independent_sets(g)), lambda: oracle.z_of(a, g)
    if kind == "proper-colorings":
        a = CORPUS["three-colorings"]
        return lambda: (z_brute(a, g), proper_colorings(g, 3)), lambda: oracle.z_of(a, g)
    if kind == "even-induced-subgraphs":
        a = CORPUS["even-subgraphs"]
        half = Fraction(2) ** (g.n - 1)
        return (lambda: (Fraction(z_brute(a, g), 2) + half, even_induced_subgraphs(g)),
                lambda: Fraction(oracle.z_of(a, g), 2) + half)
    if kind == "nowhere-zero-flows":
        rows = [[Fraction(2) if i == j else Fraction(-1) for j in range(3)] for i in range(3)]
        a = WeightMatrix(INT, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        scale = Fraction(1, 3) ** g.n
        return (lambda: (scale * z_brute(a, g), nowhere_zero_flows(g, 3)),
                lambda: scale * oracle.partition_function(rows, 0, 1, g.n, g.edges))
    one = POLY.one
    a = WeightMatrix(POLY, [[one, X], [X, one]])

    def reference():
        z = oracle.z_of(a, g)
        return (z.degree, z.leading())

    def run():
        z = z_brute(a, g)
        return (z.degree, z.leading()), ordered_max_cuts(g)

    return run, reference


def build(template, rng, ctx, i):
    """One op.  Kinds other than the heavy connection, witness and suite
    ones check their identity on BATCH random graphs per op, which evens
    out op costs from seed to seed and keeps the median op among several
    kinds of similar cost."""
    if template[0] in ("connection", "witness", "suite"):
        return _single(template, rng)
    parts = [_single(template, rng) for _ in range(BATCH)]
    return Op(template[0], lambda: [p.fn() for p in parts],
              lambda outs: all(p.check(out) for p, out in zip(parts, outs)))


def _single(template, rng):
    kind, size, name = template
    a = CORPUS.get(name)
    if kind == "connection":
        k, edges = size
        return Op(kind, lambda: connection_report(a, enumerate_klabeled(k, 3, edges)),
                  connection_check(a, enumerate_klabeled(k, 3, edges)))
    if kind == "witness":
        # the smallest non-PSD principal submatrix the seed commit finds
        return Op(kind, _witness, equals(lambda: ((0, 4), [[0, 1], [1, 0]])))
    if kind == "suite":
        def check(results):
            return len(results) == SUITE_CHECKS[name] and all(r["status"] == "pass" for r in results)

        return Op(kind, lambda: run_suite(name, size), check)
    if kind == "canonical":
        g = random_multigraph(rng, size, size + 3, loops=True)
        h = relabeled(rng, g)
        return Op(kind, lambda: canonical_form(g) == canonical_form(h), equals(lambda: True))
    if kind == "invariant":
        g = random_multigraph(rng, size, size + 2, loops=False)
        g = type(g)(g.n, [(u, v) for u, v, _ in g.edges])  # simple, as the flow count needs
        run, reference = _invariant(name, g)
        return Op(kind, run, equals(lambda: (reference(),) * 2))
    g = _graph(rng, size)
    if kind == "tutte":
        x, y = rng.choice(TUTTE_POINTS)

        def run():
            return (verify_tutte_identity(g, x, y), tutte_contraction_deletion(g, x, y),
                    tutte_eval_brute(g, x, y))

        return Op(kind, run, equals(lambda: (True,) + (oracle.tutte_value(g, x, y),) * 2))
    if kind == "ising":
        v = Fraction(rng.randint(-2, 3), rng.randint(1, 3))
        return Op(kind, lambda: (ising_polynomial(g).eval(v + 1), potts_partition(g, 2, v)),
                  equals(lambda: (oracle.z_of(ISING, g).eval(v + 1),) * 2))
    if kind == "y_injective":
        return Op(kind, lambda: (y_injective(a, g, "inversion"), y_injective(a, g, "brute")),
                  equals(lambda: (oracle.injective_sum(a, g),) * 2))
    if kind == "zeta":
        return Op(kind, lambda: zeta_check(a, g), equals(lambda: (oracle.z_of(a, g),) * 2))
    if kind == "recover":
        pin = Pinning({0: rng.randrange(a.n)}) if rng.random() < 0.5 else None

        def run():
            counts = recover_counts(lambda phi, h: z_brute(a, h, pin=phi), a, g, pin)
            return all(count_configs(a, g, w, pin=pin) == c for w, c in counts.items()), counts

        def check(out):
            agree, counts = out
            return (agree and sum(counts.values()) == a.n ** (g.n - (pin is not None))
                    and sum(c * w for w, c in counts.items()) == oracle.z_of(a, g, pin))

        return Op(kind, run, check)
    if kind == "twins":
        def run():
            res = twin_resolvent(a)
            return z_brute(a, g), z_brute(res.resolvent, g, weights=res.weights)

        return Op(kind, run, equals(lambda: (oracle.z_of(a, g),) * 2))
    if kind == "thicken":
        p = rng.choice((2, 3))

        def run():
            return z_brute(matrix_thicken(a, p), g), z_brute(a, thicken(g, p))

        return Op(kind, run, equals(lambda: (oracle.z_of(a, thicken(g, p)),) * 2))

    # stretching adds a vertex per edge occurrence: the templates use two spins
    def run():
        return z_brute(matrix_stretch(a, 2), g), z_brute(a, stretch(g, 2))

    return Op(kind, run, equals(lambda: (oracle.z_of(a, stretch(g, 2)),) * 2))
