"""enum: brute-force evaluation of #P-hard instances.

The evaluator loop and scalar arithmetic do nearly all the work and the
fast path none, so an enumeration kernel or ring change shows here.  Half
the graphs have low treewidth (cycles with chords, ladders, 3 x k grids),
where elimination would help; the other half are dense random multigraphs
with parallel edges (and loops where the diagonal allows), where it cannot.
Polynomial ops are kept to 2^7..2^10 configurations: at about 0.6 ms per
configuration a larger one would not leave a hundred ops in a run.
"""

from __future__ import annotations

from fractions import Fraction

from partfun import (
    INT,
    POLY,
    RAT,
    X,
    DiagonalWeights,
    Pinning,
    WeightMatrix,
    count_configs,
    y_injective,
    z_brute,
)

import oracle
from common import Op, cycle_with_chords, equals, grid, random_multigraph

ONE = POLY.one
HALF = Fraction(1, 2)
MATRICES = {
    "indep": WeightMatrix(INT, [[1, 1], [1, 0]]),
    "col3": WeightMatrix(INT, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    "col4": WeightMatrix(INT, [[0 if i == j else 1 for j in range(4)] for i in range(4)]),
    "signed": WeightMatrix(INT, [[1, 1], [1, -1]]),
    "potts": WeightMatrix(RAT, [[HALF if i == j else 1 for j in range(3)] for i in range(3)]),
    "ising": WeightMatrix(POLY, [[X, ONE], [ONE, X]]),
    "maxcut": WeightMatrix(POLY, [[ONE, X], [X, ONE]]),
}

# (op kind, matrix, graph family, vertices, pinned vertices, vertex weights)
TEMPLATES = (
    ("z_brute", "indep", "chords", 12, 0, False),
    ("z_brute", "indep", "dense", 11, 0, True),
    ("z_brute", "indep", "ladder", 12, 2, False),
    ("z_brute", "col3", "grid3", 9, 0, False),
    ("z_brute", "col3", "dense", 8, 0, False),
    ("z_brute", "col3", "chords", 9, 0, True),
    ("z_brute", "col4", "chords", 7, 1, False),
    ("z_brute", "col4", "dense", 6, 0, True),
    ("z_brute", "signed", "ladder", 12, 0, True),
    ("z_brute", "signed", "dense", 10, 1, False),
    ("z_brute", "potts", "chords", 7, 0, False),
    ("z_brute", "potts", "dense", 6, 0, True),
    ("z_brute", "potts", "grid3", 9, 2, False),
    ("z_brute", "potts", "ladder", 6, 0, True),
    ("z_brute", "ising", "chords", 10, 0, False),
    ("z_brute", "ising", "dense", 8, 1, False),
    ("z_brute", "maxcut", "ladder", 8, 0, False),
    ("z_brute", "maxcut", "dense", 7, 0, True),
    ("count_configs", "indep", "grid3", 12, 0, False),
    ("count_configs", "col3", "dense", 8, 0, False),
    ("count_configs", "maxcut", "chords", 8, 0, False),
    ("count_configs", "signed", "dense", 10, 1, False),
    ("y_injective", "col4", "dense", 4, 0, False),
    ("y_injective", "potts", "dense", 3, 0, False),
)
WARMUP = (TEMPLATES[0], TEMPLATES[3], TEMPLATES[10], TEMPLATES[16])


def _graph(rng, family, n, a):
    if family == "chords":
        return cycle_with_chords(rng, n, 2)
    if family == "ladder":
        return grid(2, n // 2)
    if family == "grid3":
        return grid(3, n // 3)
    loops = any(a.rows[i][i] for i in range(a.n))
    return random_multigraph(rng, n, n * (n - 1) * 2 // 5, loops)


def _weights(rng, a):
    extra = (lambda: X * rng.randint(0, 1)) if a.ring is POLY else (lambda: 0)
    return DiagonalWeights(a.ring, [a.ring.coerce(rng.randint(1, 3)) + extra() for _ in range(a.n)])


def build(template, rng, ctx, i):
    kind, name, family, n, pins, weighted = template
    a = MATRICES[name]
    g = _graph(rng, family, n, a)
    pin = Pinning({v: rng.randrange(a.n) for v in rng.sample(range(n), pins)}) if pins else None
    weights = _weights(rng, a) if weighted else None
    free = n - pins
    tags = {"ring": a.ring.name, "graph": "dense" if family == "dense" else "sparse",
            "pinned": bool(pins), "weighted": weighted, f"configs.{a.ring.name}": a.n ** free}
    if kind == "z_brute":
        return Op(kind, lambda: z_brute(a, g, pin=pin, weights=weights),
                  equals(lambda: oracle.z_of(a, g, pin, weights)), tags)
    if kind == "y_injective":
        return Op(kind, lambda: y_injective(a, g, mode="brute"),
                  equals(lambda: oracle.injective_sum(a, g)), tags)
    w, expect = _count_target(rng, name, a, g, pin, free)
    return Op(kind, lambda: count_configs(a, g, w, pin=pin), equals(expect), tags)


def _count_target(rng, name, a, g, pin, free):
    """A weight to count and the count's reference, both read off Z."""
    total = a.n ** free
    if name == "maxcut":
        # the edge product is X ** (cut size): count = coefficient of Z
        c = rng.randint(0, g.num_edges())

        def expect():
            coeffs = oracle.z_of(a, g, pin).coeffs
            return coeffs[c] if c < len(coeffs) else 0

        return X ** c, expect
    if name == "signed":
        # products are +1 or -1: N(+1) + N(-1) = total, N(+1) - N(-1) = Z
        sign = rng.choice((1, -1))
        return sign, lambda: (total + sign * oracle.z_of(a, g, pin)) // 2
    # 0/1 matrices: products are 0 or 1 and Z counts the ones
    w = rng.choice((0, 1))
    return w, lambda: oracle.z_of(a, g, pin) if w else total - oracle.z_of(a, g, pin)
