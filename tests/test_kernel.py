"""The enumeration kernel of every brute-force sum (z_brute, count_configs,
z_directed, z_hypergraph, z_edge_model and y_injective in brute mode) against
per-configuration references built from config_weight, direct products and
plain itertools loops.

Instances are small and seeded: every ring, loops, multiplicities, pinnings
(including all-pinned graphs and edges between pinned vertices), diagonal
vertex weights and the empty graph.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from partfun import evaluator
from partfun.errors import BadParameter, BudgetExceeded
from partfun.evaluator import (
    DiagonalWeights,
    EdgeModel,
    SymmetricTensor,
    WeightMatrix,
    config_weight,
    count_configs,
    perfect_matching_model,
    z_brute,
    z_directed,
    z_edge_model,
    z_hypergraph,
)
from partfun.graph import DirectedGraph, Hypergraph, Multigraph, Pinning
from partfun.moebius import y_injective
from partfun.rings import INT, POLY, RAT, Polynomial

RINGS = (INT, RAT, POLY)
TYPES = {"int": int, "rat": Fraction, "poly": Polynomial}


def _scalar(rng, ring):
    if ring is INT:
        return rng.choice((0, 0, 1, 2, -1, 3))
    if ring is RAT:
        return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4, 6)))
    if rng.random() < 0.2:
        return Polynomial()
    return Polynomial(Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 3)))


def _symmetric(rng, ring, m):
    rows = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = rows[j][i] = _scalar(rng, ring)
    return WeightMatrix(ring, rows)


def _graph(rng, n):
    # loops and repeated pairs included; repeats merge into multiplicities
    edges = [(rng.randrange(n), rng.randrange(n), rng.randint(1, 3)) for _ in range(rng.randint(0, 7))] if n else []
    return Multigraph(n, edges)


def _pinning(rng, n, m):
    k = rng.choice((0, 1, 2, n))
    if k == 0 or n == 0:
        return None
    return Pinning({v: rng.randrange(m) for v in rng.sample(range(n), min(k, n))})


def _configs(n, m, pin):
    pinned = pin.assignments if pin is not None else {}
    for sigma in itertools.product(range(m), repeat=n):
        if all(sigma[v] == s for v, s in pinned.items()):
            yield sigma


def _instances(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        ring = rng.choice(RINGS)
        m = rng.randint(1, 3)
        n = rng.randint(0, 5)
        yield rng, ring, _symmetric(rng, ring, m), _graph(rng, n)


def test_z_brute_equals_sum_of_config_weights():
    for rng, ring, a, g in _instances(2011, 300):
        pin = _pinning(rng, g.n, a.n)
        weights = None
        if rng.random() < 0.5:
            weights = DiagonalWeights(ring, [_scalar(rng, ring) for _ in range(a.n)])
        expect = sum((config_weight(a, g, s, pin, weights) for s in _configs(g.n, a.n, pin)), ring.zero)
        got = z_brute(a, g, pin=pin, weights=weights)
        assert got == expect, (a, g, pin, weights)
        assert type(got) is TYPES[ring.name]


def test_z_brute_mixed_ring_weights_keep_the_reference_type():
    # an INT or RAT matrix with weights from a larger ring: the sum is in the
    # larger ring once a vertex weight meets a configuration of nonzero edge
    # product, and stays in the matrix ring otherwise
    rng = random.Random(7)
    for _ in range(200):
        ring, wring = rng.choice(((INT, RAT), (INT, POLY), (RAT, POLY), (RAT, INT), (POLY, INT)))
        a = _symmetric(rng, ring, rng.randint(1, 3))
        g = _graph(rng, rng.randint(0, 4))
        pin = _pinning(rng, g.n, a.n)
        weights = DiagonalWeights(wring, [_scalar(rng, wring) for _ in range(a.n)])
        expect = sum((config_weight(a, g, s, pin, weights) for s in _configs(g.n, a.n, pin)), ring.zero)
        got = z_brute(a, g, pin=pin, weights=weights)
        assert got == expect and type(got) is type(expect), (a, g, pin, weights)


def test_z_brute_zero_matrix_keeps_the_matrix_ring():
    a = WeightMatrix(INT, [[0, 0], [0, 0]])
    weights = DiagonalWeights(RAT, [Fraction(1, 2), 3])
    k2 = Multigraph(2, [(0, 1)])
    assert type(z_brute(a, k2, weights=weights)) is int
    assert type(z_brute(WeightMatrix(INT, [[0, 1], [1, 0]]), k2, weights=weights)) is Fraction


def test_pinned_edges_and_all_pinned_graphs():
    a = WeightMatrix(RAT, [[Fraction(1, 2), 3], [3, Fraction(-2, 3)]])
    g = Multigraph(4, [(0, 1, 2), (1, 1), (1, 2), (2, 3, 3), (3, 3, 2)])
    weights = DiagonalWeights(RAT, [2, Fraction(1, 5)])
    for pin in ({0: 1, 1: 0}, {0: 0, 1: 1, 2: 1, 3: 0}, {1: 1, 3: 1}):
        pin = Pinning(pin)
        configs = list(_configs(g.n, a.n, pin))
        expect = sum(config_weight(a, g, s, pin, weights) for s in configs)
        assert z_brute(a, g, pin=pin, weights=weights) == expect
    # every vertex pinned: one configuration, no vertex weight
    sigma = (0, 1, 1, 0)
    assert z_brute(a, g, pin=Pinning(dict(enumerate(sigma))), weights=weights) == config_weight(a, g, sigma)


def test_empty_graph_is_the_empty_product():
    for ring in RINGS:
        a = WeightMatrix(ring, [[2, 3], [3, 5]])
        z = z_brute(a, Multigraph(0))
        assert z == 1 and type(z) is TYPES[ring.name]
        assert count_configs(a, Multigraph(0), 1) == 1
        assert count_configs(a, Multigraph(0), 0) == 0
        assert z_directed(a, DirectedGraph(0)) == 1
    a = WeightMatrix(RAT, [[2, 3], [3, 5]])
    weights = DiagonalWeights(RAT, [Fraction(1, 3), 4])
    assert z_brute(a, Multigraph(3), weights=weights) == (Fraction(1, 3) + 4) ** 3


def test_polynomial_degree_bound_covers_loops_and_vertex_weights():
    x = Polynomial((0, 1))
    a = WeightMatrix(POLY, [[x**2 - Fraction(1, 3), Polynomial()], [Polynomial(), -2 * x + Fraction(1, 2)]])
    g = Multigraph(3, [(0, 0, 3), (0, 1, 2), (1, 2)])
    weights = DiagonalWeights(POLY, [x**3, Fraction(-1, 7) * x])
    expect = sum(config_weight(a, g, s, None, weights) for s in _configs(3, 2, None))
    got = z_brute(a, g, weights=weights)
    assert got == expect
    assert got.degree == 2 * 3 + 2 * 2 + 2 + 3 * 3


def test_count_configs_matches_a_counter_of_edge_products():
    for rng, ring, a, g in _instances(1104, 300):
        pin = _pinning(rng, g.n, a.n)
        counts = Counter(config_weight(a, g, s, pin) for s in _configs(g.n, a.n, pin))
        seen = sorted(counts, key=repr)
        targets = [ring.zero, rng.choice(seen), ring.coerce(Fraction(1, 97)) if ring is not INT else 97]
        for w in targets:
            assert count_configs(a, g, w, pin=pin) == counts[w], (a, g, pin, w)


def test_count_configs_zero_prefix_counts_every_completion():
    a = WeightMatrix(INT, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    g = Multigraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    proper = 2**6 + 2
    assert count_configs(a, g, 1) == proper
    assert count_configs(a, g, 0) == 3**6 - proper
    assert count_configs(a, g, 0, pin=Pinning({0: 1, 1: 1})) == 3**4
    assert count_configs(a, g, 1, pin=Pinning({0: 1, 1: 1})) == 0


def _direct(a, g):
    total = a.ring.zero
    for sigma in itertools.product(range(a.n), repeat=g.n):
        w = a.ring.one
        for u, v, mult in g.edges:
            w = w * a.rows[sigma[u]][sigma[v]] ** mult
        total = total + w
    return total


def test_z_directed_equals_the_direct_sum():
    rng = random.Random(1815)
    for _ in range(200):
        ring = rng.choice(RINGS)
        m = rng.randint(1, 3)
        a = WeightMatrix(ring, [[_scalar(rng, ring) for _ in range(m)] for _ in range(m)])
        n = rng.randint(0, 5)
        arcs = [(rng.randrange(n), rng.randrange(n), rng.randint(1, 2)) for _ in range(rng.randint(0, 7))] if n else []
        g = DirectedGraph(n, arcs)
        got = z_directed(a, g)
        assert got == _direct(a, g), (a, g)
        assert type(got) is TYPES[ring.name]


def test_deep_enumeration_needs_no_recursion():
    path = Multigraph(3000, [(i, i + 1) for i in range(2999)])
    assert z_brute(WeightMatrix(INT, [[2]]), path) == 2**2999
    assert count_configs(WeightMatrix(INT, [[2]]), path, 2**2999) == 1


def test_budget_messages_do_not_build_the_count():
    a = WeightMatrix(INT, [[1, 1], [1, 0]])
    with pytest.raises(BudgetExceeded, match=r"^2\^1000000 configurations exceed the budget 100$"):
        z_brute(a, Multigraph(10**6), budget=100)
    with pytest.raises(BudgetExceeded, match=r"^2\^6 configurations exceed the budget 63$"):
        count_configs(a, Multigraph(7), 1, pin=Pinning({0: 0}), budget=63)
    assert count_configs(a, Multigraph(7), 1, pin=Pinning({0: 0}), budget=64) == 64
    with pytest.raises(BudgetExceeded, match=r"^2\^3 edge colorings exceed the budget 7$"):
        z_edge_model(perfect_matching_model(4), Multigraph(3, [(0, 1), (1, 2), (0, 2)]), budget=7)
    with pytest.raises(BudgetExceeded, match=r"^1\^5 configurations exceed the budget -3$"):
        z_directed(WeightMatrix(INT, [[1]]), DirectedGraph(5), budget=-3)


def test_non_integer_multiplicity_is_rejected():
    g = Multigraph(2, [(0, 1, 1.5)])
    for ring in RINGS:
        with pytest.raises(BadParameter):
            z_brute(WeightMatrix(ring, [[1, 2], [2, 3]]), g)


def _big_rational(rng):
    return Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 3, 7, 10**6 + 3)))


def test_lift_handles_large_negative_rational_coefficients():
    rng = random.Random(1882)
    for _ in range(60):
        ring = rng.choice((RAT, POLY))
        m = rng.randint(1, 3)
        if ring is RAT:
            scalar = lambda: _big_rational(rng)  # noqa: E731
        else:
            scalar = lambda: Polynomial(_big_rational(rng) for _ in range(rng.randint(0, 3)))  # noqa: E731
        rows = [[None] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                rows[i][j] = rows[j][i] = scalar()
        a = WeightMatrix(ring, rows)
        g = _graph(rng, rng.randint(0, 4))
        pin = _pinning(rng, g.n, m)
        weights = DiagonalWeights(ring, [scalar() for _ in range(m)])
        expect = sum((config_weight(a, g, s, pin, weights) for s in _configs(g.n, m, pin)), ring.zero)
        got = z_brute(a, g, pin=pin, weights=weights)
        assert got == expect and type(got) is TYPES[ring.name], (a, g, pin, weights)


def test_all_zero_polynomial_matrix():
    zero = WeightMatrix(POLY, [[0, 0], [0, 0]])
    x = Polynomial((0, 1))
    g = Multigraph(3, [(0, 1), (1, 2, 2)])
    assert z_brute(zero, g) == Polynomial()
    assert z_brute(zero, g, pin=Pinning({1: 0}), weights=DiagonalWeights(POLY, [x, 3])) == Polynomial()
    assert z_brute(zero, Multigraph(3)) == Polynomial((8,))
    assert z_directed(zero, DirectedGraph(2, [(0, 1)])) == Polynomial()
    assert count_configs(zero, g, 0) == 8
    assert count_configs(zero, g, 1) == 0
    assert count_configs(zero, Multigraph(2), 1) == 4


def test_count_configs_targets_beyond_the_lift():
    x = Polynomial((0, 1))
    # the largest l1 norm is 2 and one edge is compared, so products are
    # told apart at the integer point 2 * 2 + 1 = 5
    a = WeightMatrix(POLY, [[2 * x, 1], [1, -2 * x]])
    k2 = Multigraph(2, [(0, 1)])
    assert count_configs(a, k2, 2 * x) == 1
    assert count_configs(a, k2, -2 * x) == 1
    assert count_configs(a, k2, 1) == 2
    for w in (10, -10, 3 * x, 5 * x - 10, x**2 - 5 * x + 10, 2 * x + 5, 6):
        assert count_configs(a, k2, w) == 0, w
    # INT: a target past m**0 * L**|E| equals no product
    b = WeightMatrix(INT, [[3, -1], [-1, 0]])
    p3 = Multigraph(3, [(0, 1), (1, 2)])
    counts = Counter(config_weight(b, p3, s) for s in _configs(3, 2, None))
    for w in (9, 10, -9, -10, 0, 3, -3, 1):
        assert count_configs(b, p3, w) == counts[w], w


def test_count_configs_targets_with_other_denominators():
    a = WeightMatrix(RAT, [[Fraction(1, 2), Fraction(-1, 3)], [Fraction(-1, 3), 0]])
    g = Multigraph(3, [(0, 1), (1, 2), (2, 2)])
    counts = Counter(config_weight(a, g, s) for s in _configs(3, 2, None))
    assert counts[0] and counts[Fraction(1, 8)]
    for w in (0, Fraction(1, 8), Fraction(-1, 12), Fraction(1, 7), Fraction(1, 16), Fraction(1, 5)):
        assert count_configs(a, g, w) == counts[w], w
    x = Polynomial((0, 1))
    b = WeightMatrix(POLY, [[Fraction(1, 2) * x, 0], [0, Fraction(1, 3)]])
    counts = Counter(config_weight(b, g, s) for s in _configs(3, 2, None))
    for w in (Polynomial(), x**3 * Fraction(1, 8), x**3 * Fraction(1, 7), x**3 * Fraction(1, 16),
              Fraction(1, 27), x * Fraction(1, 27)):
        assert count_configs(b, g, w) == counts[w], w
    assert count_configs(b, g, 0, pin=Pinning({0: 0, 1: 1})) == 2


def _hypergraph_loop(t, h):
    total = t.ring.zero
    for sigma in itertools.product(range(t.n), repeat=h.n):
        w = t.ring.one
        for he in h.hyperedges:
            w = w * t.table[tuple(sigma[v] for v in he)]
        total = total + w
    return total


def _symmetric_tensor(rng, ring, m, arity):
    values = {}
    table = {}
    for idx in itertools.product(range(m), repeat=arity):
        key = tuple(sorted(idx))
        if key not in values:
            values[key] = _scalar(rng, ring)
        table[idx] = values[key]
    return SymmetricTensor(ring, m, arity, table)


def test_z_hypergraph_equals_the_product_loop():
    rng = random.Random(3301)
    for _ in range(150):
        ring = rng.choice(RINGS)
        arity = rng.choice((2, 3))
        m = rng.randint(1, 3)
        n = rng.randint(0, 5)
        possible = list(itertools.combinations(range(n), arity))
        h = Hypergraph(n, arity, rng.sample(possible, rng.randint(0, min(len(possible), 5))))
        t = _symmetric_tensor(rng, ring, m, arity)
        got = z_hypergraph(t, h)
        assert got == _hypergraph_loop(t, h), (t.table, h)
        assert type(got) is TYPES[ring.name]


def _edge_model_loop(f, g):
    occurrences = list(g.edge_occurrences())
    incident = [[] for _ in range(g.n)]
    for idx, (u, v) in enumerate(occurrences):
        incident[u].append(idx)
        incident[v].append(idx)
    total = f.ring.zero
    for tau in itertools.product(range(f.n), repeat=len(occurrences)):
        w = f.ring.one
        for v in range(g.n):
            counts = [0] * f.n
            for idx in incident[v]:
                counts[tau[idx]] += 1
            w = w * f.table[tuple(counts)]
        total = total + w
    return total


def test_z_edge_model_equals_the_coloring_loop():
    # random tables; graphs with loops, multi-edges and isolated vertices
    rng = random.Random(4402)
    for _ in range(150):
        ring = rng.choice(RINGS)
        colors = rng.randint(1, 3)
        n = rng.randint(0, 5)
        edges = [(rng.randrange(n), rng.randrange(n), rng.randint(1, 2)) for _ in range(rng.randint(0, 4))] if n else []
        g = Multigraph(n, edges)
        if g.num_edges() > 6:
            continue
        f = EdgeModel(ring, colors, max(g.degrees(), default=0) + rng.randint(0, 1), lambda _: _scalar(rng, ring))
        got = z_edge_model(f, g)
        assert got == _edge_model_loop(f, g), (f.table, g)
        assert type(got) is TYPES[ring.name]


def test_z_edge_model_loops_count_twice():
    # one vertex with one loop: the loop's color is counted twice
    f = EdgeModel(INT, 2, 2, lambda comp: {(2, 0): 3, (0, 2): 5}.get(comp, 7))
    assert z_edge_model(f, Multigraph(1, [(0, 0)])) == 8
    # an isolated vertex contributes F(0, 0)
    assert z_edge_model(f, Multigraph(2, [(0, 0)])) == 56


def _injective_loop(a, g):
    total = a.ring.zero
    for tau in itertools.permutations(range(a.n), g.n):
        total = total + config_weight(a, g, tau)
    return total


def test_y_injective_brute_equals_the_permutation_sum():
    # more vertices than spins and the empty graph included
    for rng, ring, a, g in _instances(5503, 300):
        got = y_injective(a, g, mode="brute")
        assert got == _injective_loop(a, g), (a, g)
        assert type(got) is TYPES[ring.name]
    for ring in RINGS:
        a = _symmetric(random.Random(1), ring, 3)
        assert y_injective(a, Multigraph(0)) == ring.one
        assert y_injective(a, Multigraph(4, [(0, 1)])) == ring.zero
    # with more vertices than spins no injective prefix is walked
    assert y_injective(WeightMatrix(INT, [[1] * 9] * 9), Multigraph(10)) == 0


def test_int_sums_are_never_lifted(monkeypatch):
    def fail(values):
        raise AssertionError("INT scalars were lifted")

    monkeypatch.setattr(evaluator, "_integer_form", fail)
    a = WeightMatrix(INT, [[1, 2], [2, 3]])
    tri = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    assert count_configs(a, tri, 4) == 3
    assert z_brute(a, tri, weights=DiagonalWeights(INT, [1, 2])) == 1 + 3 * 4 * 2 + 3 * 12 * 4 + 27 * 8
    assert z_directed(a, DirectedGraph(2, [(1, 0)])) == 8
    assert y_injective(a, Multigraph(2, [(0, 1)])) == 4
    assert z_hypergraph(SymmetricTensor.from_matrix(a), Hypergraph(2, 2, [(0, 1)])) == 8
    assert z_edge_model(perfect_matching_model(2), tri) == 0


def test_deep_factor_tables_need_no_recursion():
    # one color or one spin leaves one configuration, however many axes the tables have
    f = EdgeModel(INT, 1, 2000, lambda comp: comp[0] + 1)
    assert z_edge_model(f, Multigraph(2, [(0, 1, 2000)])) == 2001**2
    assert z_edge_model(f, Multigraph(1, [(0, 0, 1000)])) == 2001
    for ring, value in ((RAT, Fraction(3, 2)), (POLY, Polynomial((Fraction(1, 2), 3)))):
        t = SymmetricTensor(ring, 1, 2000, {(0,) * 2000: value})
        assert z_hypergraph(t, Hypergraph(2000, 2000, [range(2000)])) == value


def test_edge_model_vertex_tables_are_built_with_their_loops(monkeypatch):
    # a loop's variable adds 2 to its color count inside the vertex table, so
    # no table is re-read on its diagonal
    def fail(*args):
        raise AssertionError("an edge-model table was restricted")

    monkeypatch.setattr(evaluator, "_restrict", fail)
    rng = random.Random(6604)
    for ring in RINGS:
        g = Multigraph(3, [(0, 1), (0, 0, 2), (1, 2), (2, 2)])
        f = EdgeModel(ring, 2, max(g.degrees()), lambda _: _scalar(rng, ring))
        assert z_edge_model(f, g) == _edge_model_loop(f, g)
