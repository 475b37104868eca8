from fractions import Fraction

import pytest

from partfun.errors import NegativeEntries, NotTractable
from partfun.evaluator import WeightMatrix, z_brute
from partfun.fastpath import blocks, classify, classify01, underlying_graph, z_fast
from partfun.graph import Multigraph
from partfun.rings import INT, POLY, RAT, X
from partfun import corpus


def test_underlying_graph():
    a = WeightMatrix(INT, [[1, 0, 2], [0, 0, 0], [2, 0, 0]])
    h = underlying_graph(a)
    assert h.n == 3
    assert h.edges == ((0, 0, 1), (0, 2, 1))


def test_blocks_split_along_components():
    a = WeightMatrix(INT, [[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    dec = blocks(a)
    kinds = {c.indices: c.kind for c in dec.comps}
    assert kinds == {(0, 1): "nonbipartite", (2,): "zero"}
    b = WeightMatrix(INT, [[0, 3], [3, 0]])
    (comp,) = blocks(b).comps
    assert comp.kind == "bipartite"
    assert (comp.left, comp.right) == ((0,), (1,))


def test_rank_one_matrix_is_tractable():
    a = WeightMatrix(INT, [[1, 2], [2, 4]])
    cls = classify(a)
    assert cls.is_tractable
    assert cls.ranks == [1]
    assert cls.offender is None
    assert z_fast(a, Multigraph(3, [(0, 1), (0, 2), (1, 2)]), cls) == 125


def test_hard_matrices_have_offending_block():
    # independent sets, their weighted variant, induced even subgraphs
    for rows in ([[1, 1], [1, 0]], [[1, 2], [2, 0]], [[1, 1], [1, -1]]):
        cls = classify(WeightMatrix(INT, rows))
        assert not cls.is_tractable
        assert cls.offender is not None
        out = cls.to_json()
        assert out["verdict"] == "sharp-p-hard"
        assert "offending-block" in out["certificate"]


def test_bipartite_rank_one_blocks_are_tractable():
    a = WeightMatrix(INT, [[0, 0, 1], [0, 0, 2], [1, 2, 0]])
    cls = classify(a)
    assert cls.is_tractable
    g = Multigraph(2, [(0, 1), (0, 1)])
    assert z_fast(a, g, cls) == z_brute(a, g)


def test_nonneg_required_guard():
    u = WeightMatrix(INT, [[1, -1], [-1, 1]])
    with pytest.raises(NegativeEntries):
        classify(u, nonneg_required=True)
    assert not classify(u).nonnegative


def test_even_degree_matrix_is_tractable_with_signs():
    # rank-1 with a negative entry: the closed form is 2^N on even-degree
    # graphs and 0 otherwise
    u = WeightMatrix(INT, [[1, -1], [-1, 1]])
    cls = classify(u)
    assert cls.is_tractable and cls.ranks == [1]
    c3 = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    k2 = Multigraph(2, [(0, 1)])
    assert z_fast(u, c3, cls) == 8 == z_brute(u, c3)
    assert z_fast(u, k2, cls) == 0 == z_brute(u, k2)


def test_z_fast_rejects_hard_matrices():
    i = WeightMatrix(INT, [[1, 1], [1, 0]])
    with pytest.raises(NotTractable):
        z_fast(i, Multigraph(1))


def test_zero_matrix_values():
    z = WeightMatrix(INT, [[0]])
    cls = classify(z)
    assert cls.is_tractable
    assert z_fast(z, Multigraph(3), cls) == 1
    assert z_fast(z, Multigraph(2, [(0, 1)]), cls) == 0
    assert z_fast(z, Multigraph(1, [(0, 0)]), cls) == 0


def test_z_fast_multiplies_over_graph_components():
    a = WeightMatrix(INT, [[2]])
    g = Multigraph(4, [(0, 1), (2, 3)])
    # each edge contributes 2, vertices are forced to the single spin
    assert z_fast(a, g) == 4
    assert z_fast(a, Multigraph(0)) == 1


def test_z_fast_sums_over_matrix_components():
    # two independent all-ones blocks behave like two non-interacting spins
    a = WeightMatrix(INT, [[1, 0], [0, 1]])
    g = Multigraph(3, [(0, 1), (1, 2)])
    assert classify(a).is_tractable
    assert z_fast(a, g) == z_brute(a, g) == 2


def test_z_fast_rational_and_polynomial_rings():
    from fractions import Fraction

    a = WeightMatrix(RAT, [[Fraction(1, 2), Fraction(1, 3)],
                           [Fraction(1, 3), Fraction(2, 9)]])
    g = Multigraph(3, [(0, 1), (1, 2)])
    assert classify(a).is_tractable
    assert z_fast(a, g) == z_brute(a, g)
    p = WeightMatrix(POLY, [[X, X**2], [X**2, X**3]])
    assert classify(p).is_tractable
    assert z_fast(p, g) == z_brute(p, g)


def test_classify01_shapes():
    # reflexive complete component plus complete bipartite component
    h = Multigraph(4, [(0, 0), (1, 1), (0, 1), (2, 3)])
    cls = classify01(h)
    assert cls.is_tractable
    assert [s["shape"] for s in cls.shapes] == ["reflexive-complete", "complete-bipartite"]
    # the 3-path is the star K(1,2), so it is complete bipartite
    assert classify01(Multigraph(3, [(0, 1), (1, 2)])).is_tractable
    # a loopless triangle is neither shape
    bad = classify01(Multigraph(3, [(0, 1), (0, 2), (1, 2)]))
    assert not bad.is_tractable
    assert bad.offender["indices"] == [0, 1, 2]
    assert bad.shapes[0]["shape"] == "neither"
    # the 4-path is bipartite but not complete bipartite
    assert not classify01(Multigraph(4, [(0, 1), (1, 2), (2, 3)])).is_tractable


def test_classify_agrees_with_classify01_spot():
    for rows in ([[1, 1], [1, 1]], [[0, 1], [1, 0]], [[1, 1], [1, 0]],
                 [[1, 0], [0, 1]], [[0, 0], [0, 0]]):
        a = WeightMatrix(INT, rows)
        assert classify(a).is_tractable == classify01(underlying_graph(a)).is_tractable


def test_fast_equals_brute_on_corpus_sample():
    mats = corpus.tractable_nonneg_matrices(max_n=2, max_entry=2)
    graphs = corpus.connected_multigraphs(3, 3)
    assert mats and graphs
    for a in mats:
        cls = classify(a)
        for g in graphs:
            assert z_fast(a, g, cls) == z_brute(a, g), (a, g)


def test_z_fast_on_a_long_rational_path_matches_the_closed_form():
    # entries v_i v_j / s; the two ends have degree 1 and the rest degree 2
    n = 30_000
    v = (Fraction(1, 2), -1, Fraction(3, 2))
    s = Fraction(2, 3)
    a = WeightMatrix(RAT, [[vi * vj / s for vj in v] for vi in v])
    g = Multigraph(n, [(i, i + 1) for i in range(n - 1)])
    s1 = sum(v)
    s2 = sum(vi * vi for vi in v)
    assert z_fast(a, g) == s1**2 * s2 ** (n - 2) / s ** (n - 1)
