"""Connection matrices: gluings of k-labeled graphs evaluated by a graph
parameter, with exact positive-semidefiniteness and rank checks.

For a partition function, Z(F o G) is the sum over maps phi from the k
labels to spins of Z(F|phi) Z(G|phi) (labels pinned to phi), so its
connection matrix is the Gram product V V^T of the n^k-column matrix V of
pinned values: PSD, of rank rank(V) <= n^k.  Other graph parameters are
evaluated on glued graphs; they can fail PSD, and the witness finder
locates a small principal submatrix showing it.

Bases here are finite, explicitly enumerated windows into the (infinite)
space of k-labeled graphs; repeating isomorphic graphs is harmless for both
checks, so no isomorphism testing is done.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from operator import mul

from .errors import LabelMismatch, NotSymmetric, RingUnsupported, TooLarge
from .evaluator import WeightMatrix, _check_budget, current_budget, z_brute
from .graph import LabeledGraph, Multigraph, Pinning, glue
from .rings import INT, POLY, RAT, exact_rank


class GraphBasis:
    """Ordered list of k-labeled graphs; order fixes the matrix layout."""

    __slots__ = ("k", "graphs")

    def __init__(self, k, graphs):
        graphs = tuple(graphs)
        for lg in graphs:
            if lg.k != k:
                raise LabelMismatch(f"basis of arity {k} got a graph with {lg.k} labels")
        self.k = k
        self.graphs = graphs

    def __len__(self):
        return len(self.graphs)

    def __iter__(self):
        return iter(self.graphs)


MAX_BASIS_VERTICES = 6
MAX_BASIS_EDGES = 6


def enumerate_klabeled(k: int, max_vertices: int, max_edges: int) -> GraphBasis:
    """All multigraphs on <= max_vertices vertices with <= max_edges edge
    occurrences, the first k vertices labeled 0..k-1.

    Deterministic order: vertex count ascending, then edge-occurrence count,
    then lexicographic on the sorted occurrence list.  Isomorphic duplicates
    are kept on purpose.
    """
    if not 0 <= k <= max_vertices <= MAX_BASIS_VERTICES or max_edges > MAX_BASIS_EDGES:
        raise TooLarge(
            f"need 0 <= k <= max_vertices <= {MAX_BASIS_VERTICES} "
            f"and max_edges <= {MAX_BASIS_EDGES}"
        )
    if max_edges < 0:
        raise TooLarge("max_edges must be >= 0")
    graphs = []
    for n in range(k, max_vertices + 1):
        slots = [(u, v) for u in range(n) for v in range(u, n)]
        labels = tuple(range(k))
        for e in range(max_edges + 1):
            for occ in combinations_with_replacement(slots, e):
                graphs.append(LabeledGraph(Multigraph(n, occ), labels))
    return GraphBasis(k, graphs)


class ConnectionMatrix:
    __slots__ = ("basis", "entries")

    def __init__(self, basis, entries):
        self.basis = basis
        self.entries = tuple(tuple(row) for row in entries)

    @property
    def size(self):
        return len(self.entries)


def connection_matrix_for(f, basis: GraphBasis) -> ConnectionMatrix:
    """Connection matrix of an arbitrary graph parameter f over the basis.

    f takes the glued (unlabeled) multigraph.  Entries are computed once per
    unordered pair and mirrored; gluing is evaluated left-to-right.
    """
    size = len(basis.graphs)
    entries = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            val = f(glue(basis.graphs[i], basis.graphs[j]).graph)
            entries[i][j] = val
            entries[j][i] = val
    return ConnectionMatrix(basis, entries)


def _gram(a: WeightMatrix, basis: GraphBasis, budget):
    """(V V^T, V) with V[F][phi] = Z_a(F, label i pinned to phi[i]) over
    phi in range(n)^k; n^k maps times n^(|V(F)| - k) free spins per row,
    so the budget is checked once on n^(largest |V(F)|)."""
    if a.ring is POLY:
        raise RingUnsupported("polynomial-valued connection matrices have no PSD order")
    a.require_symmetric()
    budget = current_budget() if budget is None else budget
    _check_budget(a.n, max((lg.graph.n for lg in basis), default=0), budget)
    maps = list(product(range(a.n), repeat=basis.k))
    values = [[z_brute(a, lg.graph, pin=Pinning(dict(zip(lg.labels, phi))), budget=budget) for phi in maps]
              for lg in basis.graphs]
    return ConnectionMatrix(basis, [[sum(map(mul, u, v)) for v in values] for u in values]), values


def connection_matrix(a: WeightMatrix, basis: GraphBasis, budget=None) -> ConnectionMatrix:
    """Connection matrix of the partition function of a: entry (F, G) is
    Z_a(F o G), computed as a dot product of pinned values."""
    return _gram(a, basis, budget)[0]


def is_psd(rows) -> bool:
    """Exact PSD test by pivoted symmetric elimination on integers.

    Denominators are cleared once (a positive scale keeps PSD); the Bareiss
    step w[i][j] = (p w[i][j] - w[i][p] w[p][j]) / prev divides exactly by
    the previous pivot (Sylvester's identity), and keeps each entry a
    positive multiple of the rational Schur complement's.  PSD iff no step
    exposes a negative diagonal and every zero-diagonal residue is zero.
    """
    size = len(rows)
    rows = [[v if isinstance(v, int) else Fraction(v) for v in row] for row in rows]
    if any(rows[i][j] != rows[j][i] for i in range(size) for j in range(i)):
        raise NotSymmetric("PSD test needs a symmetric matrix")
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    work = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
    live = list(range(size))
    prev = 1
    while live:
        if any(work[i][i] < 0 for i in live):
            return False
        pivot = next((i for i in live if work[i][i] > 0), None)
        if pivot is None:
            # all diagonals zero: PSD iff nothing else is nonzero
            return all(work[i][j] == 0 for i in live for j in live)
        p = work[pivot][pivot]
        live.remove(pivot)
        for i in live:
            row, f = work[i], work[i][pivot]
            for j in live:
                row[j] = (p * row[j] - f * work[pivot][j]) // prev
        prev = p
    return True


def rank_bound_check(m: ConnectionMatrix, n: int, k: int) -> bool:
    """Row rank of the connection matrix is at most n^k."""
    if not m.entries:
        return True
    return exact_rank(m.entries) <= n**k


def non_psd_witness(m: ConnectionMatrix):
    """Smallest principal submatrix of m that is not PSD, or None.

    Returns (basis indices, submatrix rows) searching sizes 1, 2, ... so the
    witness is as small as the matrix allows; a PSD matrix has none.
    """
    if is_psd(m.entries):
        return None
    size = m.size
    for r in range(1, size + 1):
        for idx in combinations(range(size), r):
            sub = [[m.entries[i][j] for j in idx] for i in idx]
            if not is_psd(sub):
                return (idx, sub)
    return None


def connection_report(a: WeightMatrix, basis: GraphBasis, budget=None) -> dict:
    """JSON-ready summary: basis, entries, PSD flag, rank and the rank bound."""
    m, values = _gram(a, basis, budget)
    ring = a.ring if a.ring is RAT else INT
    rank = exact_rank(values)
    return {
        "arity": basis.k,
        "basis": [
            {"vertices": lg.graph.n, "edges": [list(e) for e in lg.graph.edges]}
            for lg in basis.graphs
        ],
        "entries": [[ring.to_json(v) for v in row] for row in m.entries],
        "psd": is_psd(m.entries),
        "rank": rank,
        "bound": a.n**basis.k,
        "rank-bound-holds": rank <= a.n**basis.k,
    }
