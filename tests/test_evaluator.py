from fractions import Fraction

import pytest

from partfun.errors import (
    ArityMismatch,
    AsymmetricTensor,
    BadParameter,
    BudgetExceeded,
    DimensionMismatch,
    NotSymmetric,
)
from partfun.evaluator import (
    DiagonalWeights,
    EdgeModel,
    SymmetricTensor,
    WeightMatrix,
    config_weight,
    count_configs,
    current_budget,
    perfect_matching_model,
    potential_weights,
    scalar_key,
    z_brute,
    z_directed,
    z_edge_model,
    z_hypergraph,
)
from partfun.graph import DirectedGraph, Hypergraph, Multigraph, Pinning
from partfun.rings import INT, POLY, RAT, X

I = WeightMatrix(INT, [[1, 1], [1, 0]])
P3 = Multigraph(3, [(0, 1), (1, 2)])
K2 = Multigraph(2, [(0, 1)])
K3 = Multigraph(3, [(0, 1), (0, 2), (1, 2)])


def test_matrix_validation():
    with pytest.raises(DimensionMismatch):
        WeightMatrix(INT, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        WeightMatrix(INT, [])
    asym = WeightMatrix(INT, [[0, 1], [2, 0]])
    assert not asym.is_symmetric()
    with pytest.raises(NotSymmetric):
        asym.require_symmetric()


def test_symmetry_is_decided_once_per_matrix():
    sym = WeightMatrix(RAT, [[1, Fraction(1, 2)], [Fraction(1, 2), 0]])
    asym = WeightMatrix(INT, [[0, 1], [2, 0]])
    assert sym.symmetric and not asym.symmetric
    # the flag is read, not recomputed: z_brute never compares entries
    calls = []

    class Spy(int):
        def __eq__(self, other):
            calls.append(other)
            return int(self) == other

        __hash__ = int.__hash__

    spied = WeightMatrix(INT, [[1, Spy(2)], [Spy(2), 0]])
    calls.clear()
    assert z_brute(spied, Multigraph(2, [(0, 1)])) == 5
    assert spied.is_symmetric() and calls == []
    with pytest.raises(NotSymmetric):
        z_brute(asym, Multigraph(1))


def test_matrix_helpers():
    a = WeightMatrix(INT, [[1, 2], [3, 4]])
    assert a.transpose().rows == ((1, 3), (2, 4))
    assert a.permuted([1, 0]).rows == ((4, 3), (2, 1))
    assert a.matmul(a).rows == ((7, 10), (15, 22))
    assert a.cast(RAT).ring is RAT
    t = a.tensor(a)
    assert t.n == 4
    assert t[0][0] == 1 and t[3][3] == 16
    assert t[1][2] == a[0][1] * a[1][0]


def test_independent_set_partition_values():
    assert z_brute(I, P3) == 5
    assert z_brute(I, K2) == 3
    assert z_brute(I, Multigraph(0)) == 1
    assert z_brute(I, Multigraph(2)) == 4


def test_pinning_excludes_vertex_weight():
    d = DiagonalWeights(INT, [10, 100])
    # both free: sum over 4 configs of d(u) d(v) A[u][v]
    assert z_brute(I, K2, weights=d) == 100 + 1000 + 1000
    # pin vertex 0 to spin 0: only vertex 1 contributes weight
    pin = Pinning({0: 0})
    assert z_brute(I, K2, pin=pin, weights=d) == 10 + 100
    assert z_brute(I, K2, pin=Pinning({0: 0, 1: 1})) == 1


def test_pinning_out_of_range():
    with pytest.raises(DimensionMismatch):
        z_brute(I, K2, pin=Pinning({0: 2}))
    with pytest.raises(DimensionMismatch):
        z_brute(I, K2, pin=Pinning({5: 0}))


def test_config_weight_multiplies_multiplicities():
    g = Multigraph(2, [(0, 1, 3)])
    a = WeightMatrix(INT, [[1, 2], [2, 1]])
    assert config_weight(a, g, (0, 1)) == 8
    assert config_weight(a, g, (0, 0)) == 1


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        z_brute(I, Multigraph(10), budget=100)
    assert current_budget() > 0


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("PARTFUN_BUDGET", "7")
    assert current_budget() == 7
    with pytest.raises(BudgetExceeded):
        z_brute(I, P3)


def test_polynomial_partition_value():
    c = WeightMatrix(POLY, [[POLY.one, X], [X, POLY.one]])
    assert z_brute(c, K2) == 2 * X + 2


def test_z_directed_uses_orientation():
    a = WeightMatrix(INT, [[0, 1], [0, 0]])
    one_way = DirectedGraph(2, [(0, 1)])
    other_way = DirectedGraph(2, [(1, 0)])
    assert z_directed(a, one_way) == 1
    assert z_directed(a, other_way) == 1
    both = DirectedGraph(2, [(0, 1), (1, 0)])
    assert z_directed(a, both) == 0


def test_symmetric_tensor_matches_matrix_on_graphs():
    t = SymmetricTensor.from_matrix(I)
    h = Hypergraph(3, 2, [(0, 1), (1, 2)])
    assert z_hypergraph(t, h) == z_brute(I, P3)
    with pytest.raises(AsymmetricTensor):
        SymmetricTensor(INT, 2, 2, {(0, 1): 1, (1, 0): 2, (0, 0): 0, (1, 1): 0})


def test_hypergraph_arity_guard():
    t = SymmetricTensor.from_matrix(I)
    with pytest.raises(ArityMismatch):
        z_hypergraph(t, Hypergraph(3, 3, [(0, 1, 2)]))


def test_perfect_matching_model_counts_matchings():
    f = perfect_matching_model(6)
    assert z_edge_model(f, K2) == 1
    assert z_edge_model(f, P3) == 0
    # C4 has two perfect matchings
    c4 = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert z_edge_model(f, c4) == 2
    assert z_edge_model(f, K3) == 0


def test_edge_model_loop_counts_twice():
    f = perfect_matching_model(6)
    # a selected loop puts degree 2 on its vertex, so a lone loop has no
    # perfect matching state
    assert z_edge_model(f, Multigraph(1, [(0, 0)])) == 0


def test_edge_model_rejects_bad_table():
    with pytest.raises(BadParameter):
        EdgeModel(INT, 0, 2, lambda comp: 1)


def test_scalar_key_sorts_mixed_values():
    vals = [Fraction(3), Fraction(1, 2), Fraction(-1)]
    assert sorted(vals, key=scalar_key) == [Fraction(-1), Fraction(1, 2), Fraction(3)]
    assert sorted([X, POLY.one], key=scalar_key) == [POLY.one, X]


def test_potential_weights_and_count_configs():
    ws = potential_weights(I, K2)
    assert set(ws) == {0, 1}
    assert count_configs(I, K2, 1) == 3
    assert count_configs(I, K2, 0) == 1
    assert sum(count_configs(I, P3, w) for w in potential_weights(I, P3)) == 8
    # counts refine the partition value
    assert sum(w * count_configs(I, P3, w) for w in potential_weights(I, P3)) == 5
