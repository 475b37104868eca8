import pytest

from partfun.errors import BadParameter, BadPartition, LabelMismatch
from partfun.graph import (
    LabeledGraph,
    Multigraph,
    Pinning,
    VertexPartition,
    bipartition,
    components,
    glue,
    quotient,
    stretch,
    thicken,
)


def test_multigraph_canonicalizes_edges():
    g = Multigraph(3, [(2, 1), (1, 2), (0, 1)])
    assert g.edges == ((0, 1, 1), (1, 2, 2))
    assert g.num_edges() == 3
    assert list(g.edge_occurrences()) == [(0, 1), (1, 2), (1, 2)]
    assert g == Multigraph(3, [(1, 2, 2), (0, 1)])
    assert hash(g) == hash(Multigraph(3, [(1, 2, 2), (0, 1)]))


def test_multigraph_validates_endpoints():
    with pytest.raises(BadParameter):
        Multigraph(2, [(0, 2)])
    with pytest.raises(BadParameter):
        Multigraph(-1)
    with pytest.raises(BadParameter):
        Multigraph(2, [(0, 1, 0)])


def test_degrees_count_loops_twice():
    g = Multigraph(2, [(0, 0), (0, 1, 3)])
    assert g.degrees() == [5, 3]
    assert g.has_loops() and g.has_parallel() and not g.is_simple()
    assert Multigraph(3, [(0, 1), (1, 2)]).is_simple()


def test_empty_graph():
    g = Multigraph(0)
    assert g.n == 0 and g.num_edges() == 0
    assert components(g) == []


def test_thicken_multiplies_multiplicities():
    g = Multigraph(2, [(0, 1, 2)])
    assert thicken(g, 3) == Multigraph(2, [(0, 1, 6)])
    assert thicken(g, 1) == g
    with pytest.raises(BadParameter):
        thicken(g, 0)


def test_stretch_subdivides_each_occurrence():
    g = Multigraph(2, [(0, 1, 2)])
    s = stretch(g, 2)
    # each occurrence becomes a 2-path through a fresh midpoint
    assert s.n == 4
    assert s.num_edges() == 4
    assert sorted(s.degrees()) == [2, 2, 2, 2]
    assert stretch(g, 1) == g
    # a stretched loop becomes a cycle through new vertices
    loop = Multigraph(1, [(0, 0)])
    assert stretch(loop, 3).num_edges() == 3


def test_quotient_preserves_edge_count():
    g = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    p = VertexPartition(4, [(0, 2), (1, 3)])
    q = quotient(g, p)
    assert q.n == 2
    assert q.num_edges() == g.num_edges()
    # 0~2 and 1~3 turn the path into parallel edges plus nothing else
    assert q.edges == ((0, 1, 3),)


def test_partition_validation_and_refinement():
    with pytest.raises(BadPartition):
        VertexPartition(3, [(0, 1)])
    with pytest.raises(BadPartition):
        VertexPartition(3, [(0, 1), (1, 2)])
    p = VertexPartition.from_rgs([0, 0, 1])
    q = VertexPartition.singletons(3)
    assert len(p) == 2 and len(q) == 3
    assert q.refines(p) and not p.refines(q)
    assert p.block_of()[1] == p.block_of()[0]


def test_pinning_is_a_frozen_map():
    pin = Pinning({1: 0, 0: 2})
    assert list(pin.domain()) == [0, 1]
    assert pin[1] == 0 and 0 in pin and 2 not in pin
    assert len(pin) == 2
    with pytest.raises(BadParameter):
        Pinning({0: -1})
    with pytest.raises(AttributeError):
        pin.assignments = {}


def test_labeled_graph_validation():
    g = Multigraph(3, [(0, 1)])
    lg = LabeledGraph(g, (2, 0))
    assert lg.k == 2
    with pytest.raises(BadParameter):
        LabeledGraph(g, (1, 1))
    with pytest.raises(BadParameter):
        LabeledGraph(g, (3,))


def test_glue_identifies_labels():
    # two 1-labeled edges glued at the label give a path of length 2
    e = LabeledGraph(Multigraph(2, [(0, 1)]), (0,))
    gl = glue(e, e)
    assert gl.k == 1
    assert gl.graph.n == 3
    assert gl.graph.num_edges() == 2
    assert sorted(gl.graph.degrees()) == [1, 1, 2]
    with pytest.raises(LabelMismatch):
        glue(e, LabeledGraph(Multigraph(1), ()))


def test_components_renumber_locally():
    g = Multigraph(5, [(1, 3), (3, 4)])
    comps = components(g)
    assert [verts for verts, _ in comps] == [(0,), (1, 3, 4), (2,)]
    sub = comps[1][1]
    assert sub.n == 3 and sub.edges == ((0, 1, 1), (1, 2, 1))


def test_bipartition():
    even = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    odd = Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    left, right = bipartition(even)
    assert {frozenset(left), frozenset(right)} == {frozenset({0, 2}), frozenset({1, 3})}
    assert bipartition(odd) is None
    assert bipartition(Multigraph(1, [(0, 0)])) is None
    # isolated vertices go left
    assert bipartition(Multigraph(1)) == (frozenset({0}), frozenset())


def test_adjacency_lists_neighbors():
    g = Multigraph(3, [(0, 1, 2), (1, 1)])
    adj = g.adjacency()
    assert adj[0] == [1]
    assert sorted(adj[1]) == [0, 1]
    assert adj[2] == []


def test_components_with_interleaved_vertices_loops_and_multiplicities():
    g = Multigraph(8, [(5, 6), (0, 4, 2), (4, 4), (2, 6, 3), (1, 1), (3, 7)])
    comps = components(g)
    assert [verts for verts, _ in comps] == [(0, 4), (1,), (2, 5, 6), (3, 7)]
    assert [sub for _, sub in comps] == [
        Multigraph(2, [(0, 1, 2), (1, 1)]),
        Multigraph(1, [(0, 0)]),
        Multigraph(3, [(1, 2), (0, 2, 3)]),
        Multigraph(2, [(0, 1)]),
    ]
    assert sum(sub.num_edges() for _, sub in comps) == g.num_edges()
