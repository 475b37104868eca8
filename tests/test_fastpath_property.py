"""Seeded property test: z_fast equals z_brute on random tractable matrices.

A matrix is a block diagonal of zero 1x1 blocks, outer blocks c * w_i * w_j
and two-sided bipartite blocks x_i * y_j, so every block has rank <= 1 (a
zero in w, x or y splits a block further).  Graphs are multigraphs with
loops, multi-edges and isolated vertices, plus many copies of one small
piece; Z of a disjoint union is the product of the Z of its parts, so the
copies are checked against z_brute of the piece.
"""

from fractions import Fraction

import pytest

from partfun.evaluator import WeightMatrix, z_brute
from partfun.fastpath import classify, z_fast
from partfun.graph import Multigraph
from partfun.rings import INT, POLY, RAT, X

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

MAX_INDICES = 4
MAX_VERTICES = 5
VALUES = {
    INT: (0, 1, 2, 3, -1, -2),
    RAT: (Fraction(0), Fraction(1), Fraction(2, 3), Fraction(-3, 2), Fraction(5, 4)),
    POLY: (0, 1, X, X + 1, 2 * X - 1, Fraction(1, 2) * X + 3),
}


@st.composite
def tractable_matrices(draw):
    ring = draw(st.sampled_from((INT, RAT, POLY)))
    values = st.sampled_from(VALUES[ring])
    nonzero = st.sampled_from([v for v in VALUES[ring] if v != 0])
    blocks = []
    size = 0
    for kind in draw(st.lists(st.sampled_from(("zero", "outer", "two-sided")), min_size=1, max_size=3)):
        if kind == "zero":
            block = [[0]]
        elif kind == "outer":
            c = draw(nonzero)
            w = draw(st.lists(values, min_size=1, max_size=3))
            block = [[c * wi * wj for wj in w] for wi in w]
        else:
            x = draw(st.lists(values, min_size=1, max_size=2))
            y = draw(st.lists(values, min_size=1, max_size=2))
            p = len(x)
            block = [[0] * (p + len(y)) for _ in range(p + len(y))]
            for i, xi in enumerate(x):
                for j, yj in enumerate(y):
                    block[i][p + j] = block[p + j][i] = xi * yj
        if size + len(block) > MAX_INDICES:
            break
        blocks.append(block)
        size += len(block)
    rows = [[0] * size for _ in range(size)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[at + i][at:at + len(row)] = row
        at += len(block)
    return WeightMatrix(ring, [[ring.coerce(v) for v in row] for row in rows])


@st.composite
def multigraphs(draw, max_vertices):
    n = draw(st.integers(0, max_vertices))
    if n == 0:
        return Multigraph(0)
    vertex = st.integers(0, n - 1)
    # repeated pairs are multi-edges, (v, v) pairs are loops, and unused
    # vertices stay isolated; half the graphs drop their loops, so that
    # bipartite blocks often meet 2-colorable graphs
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    if not draw(st.booleans()):
        edges = [(u, v) for u, v in edges if u != v]
    return Multigraph(n, edges)


def _union(base, piece, copies):
    edges = list(base.edges)
    at = base.n
    for _ in range(copies):
        edges += [(u + at, v + at, m) for u, v, m in piece.edges]
        at += piece.n
    return Multigraph(at, edges)


@hypothesis.seed(20110401)
@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(
    tractable_matrices(),
    multigraphs(MAX_VERTICES),
    multigraphs(3),
    st.integers(0, 12),
)
def test_z_fast_equals_z_brute_on_random_tractable_matrices(a, base, piece, copies):
    cls = classify(a)
    assert cls.is_tractable
    expected = z_brute(a, base)
    z_piece = z_brute(a, piece)
    for _ in range(copies):
        expected = expected * z_piece
    assert z_fast(a, _union(base, piece, copies), cls) == expected
