"""tractable: classify plus z_fast on large inputs.

The fast path, the graph layer and big-number/Fraction/Polynomial
arithmetic do the work and the evaluator never runs, so this is the control
for every evaluator change.  Graphs come in three kinds: one large sparse
connected graph (>= 10^4 edges), where components() scans the edges once;
hundreds of small components, where it rescans every edge per component;
and multigraphs with loops and parallel edges, which zero out bipartite
blocks.  Polynomial ops stay small (z_fast on a 10 x 10 grid takes seconds).
"""

from __future__ import annotations

from fractions import Fraction

from partfun import INT, POLY, RAT, X, WeightMatrix, classify, z_fast

import oracle
from common import (
    Op,
    cycle_with_chords,
    disjoint_union,
    equals,
    grid,
    path,
    random_multigraph,
)

# (op kind, ring, matrix shape, graph kind, size); the five after the
# POLY ones cost about the median, so that op_p50_ms sits among several
# templates of similar cost instead of jumping between two distant ones
TEMPLATES = (
    ("z_fast", "int", "outer", "single", "grid"),
    ("z_fast", "int", "two-sided", "single", "path"),
    ("z_fast", "rat", "outer", "single", "path"),
    ("z_fast", "rat", "two-sided", "single", "grid"),
    ("z_fast", "int", "outer", "many", 600),
    ("z_fast", "int", "two-sided", "many", 1000),
    ("z_fast", "rat", "outer", "many", 300),
    ("z_fast", "int", "two-sided", "looped", 1500),
    ("z_fast", "int", "outer", "looped", 1500),
    ("z_fast", "rat", "outer", "looped", 600),
    ("z_fast", "poly", "outer", "single", "small-grid"),
    ("z_fast", "poly", "two-sided", "many", 12),
    ("z_fast", "poly", "outer", "looped", 24),
    ("z_fast", "int", "two-sided", "single", "grid"),
    ("z_fast", "int", "outer", "single", "path"),
    ("z_fast", "rat", "two-sided", "many", 300),
    ("z_fast", "rat", "outer", "looped", 1500),
    ("z_fast", "poly", "outer", "many", 12),
    ("classify", "int", "rank-two", None, 6),
    ("classify", "rat", "rank-two", None, 5),
)
WARMUP = (TEMPLATES[0], TEMPLATES[4], TEMPLATES[12], TEMPLATES[13])
RINGS = {"int": INT, "rat": RAT, "poly": POLY}


def _scalar(rng, ring):
    """Entries from small fixed sets, so that number sizes, and with them
    op costs, hardly depend on the seed."""
    if ring is INT:
        return rng.choice((2, 3))
    if ring is RAT:
        return rng.choice((Fraction(2, 3), Fraction(3, 2), Fraction(3, 4), Fraction(4, 3)))
    return rng.choice((X + 1, X + 2, 2 * X + 1))


def _factor(rng, ring, shape):
    """A rank-one factor and its matrix; INT scales divide every entry."""
    if shape == "outer":
        s = rng.choice((1, 2)) if ring is INT else (_scalar(rng, RAT) if ring is RAT else 1)
        u = [ring.coerce(_scalar(rng, ring) * (s if ring is INT else 1)) for _ in range(3)]
        rows = [[oracle.divide(u[i] * u[j], s) for j in range(3)] for i in range(3)]
        return ("outer", u, ring.coerce(s)), WeightMatrix(ring, rows)
    x = [ring.coerce(_scalar(rng, ring)) for _ in range(2)]
    y = [ring.coerce(_scalar(rng, ring)) for _ in range(2)]
    rows = [[ring.zero] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            rows[i][2 + j] = rows[2 + j][i] = x[i] * y[j]
    return ("two-sided", x, y, ring.one), WeightMatrix(ring, rows)


def _rank_two(rng, ring, n):
    """A non-negative matrix with one connected block of rank >= 2."""
    rows = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = ring.coerce(_scalar(rng, ring))
    # the leading 2 x 2 minor is a01^2 + 1 - a01^2 = 1
    rows[1][1] = ring.one
    rows[0][0] = rows[0][1] * rows[0][1] + 1
    return WeightMatrix(ring, rows)


def _small_piece(rng):
    shape = rng.randrange(4)
    if shape == 0:
        return cycle_with_chords(rng, rng.randint(3, 5), 0)
    if shape == 1:
        return path(rng.randint(2, 5))
    if shape == 2:
        return grid(2, rng.randint(2, 3))
    return random_multigraph(rng, 4, 5, loops=False)


def _graph(rng, kind, size):
    if kind == "single":
        if size == "grid":
            return grid(3, 2100)
        if size == "path":
            return path(10_001)
        return grid(6, 6)
    if kind == "many":
        return disjoint_union([_small_piece(rng) for _ in range(size)])
    # loops and parallel edges across a few random sparse components
    return random_multigraph(rng, size, size * 3 // 2, loops=True)


def build(template, rng, ctx, i):
    kind, ring_name, shape, graph_kind, size = template
    ring = RINGS[ring_name]
    if kind == "classify":
        a = _rank_two(rng, ring, size)
        tags = {"ring": ring_name, "graph": "none"}
        return Op(kind, lambda: classify(a).verdict, equals(lambda: "sharp-p-hard"), tags)
    factor, a = _factor(rng, ring, shape)
    g = _graph(rng, graph_kind, size)
    tags = {"ring": ring_name, "graph": graph_kind, "matrix": shape}

    def run():
        cls = classify(a)
        return cls.verdict, z_fast(a, g, cls)

    return Op(kind, run, equals(lambda: ("tractable", oracle.rank_one_value(ring, g, factor))), tags)
