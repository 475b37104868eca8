"""Multigraphs (loops and parallel edges first-class) and the constructions
the partition-function identities need: thickening, stretching, quotients,
labeled gluing, connected components and bipartitions.

Vertices are dense integers 0..n-1.  Edges are stored canonically as sorted
triples (u, v, multiplicity) with u <= v, so equal graphs compare equal and
every construction is deterministic; no isomorphism testing anywhere.
"""

from __future__ import annotations

from collections import deque

from .errors import BadParameter, BadPartition, LabelMismatch


class Multigraph:
    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise BadParameter("vertex count must be non-negative")
        acc = {}
        for e in edges:
            if len(e) == 2:
                u, v = e
                m = 1
            else:
                u, v, m = e
            if not (0 <= u < n and 0 <= v < n):
                raise BadParameter(f"edge {e} has an endpoint outside 0..{n - 1}")
            if m < 1:
                raise BadParameter("edge multiplicity must be >= 1")
            key = (u, v) if u <= v else (v, u)
            acc[key] = acc.get(key, 0) + m
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted((u, v, m) for (u, v), m in acc.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Multigraph is immutable")

    def __eq__(self, other):
        return isinstance(other, Multigraph) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Multigraph({self.n}, {list(self.edges)})"

    def num_edges(self) -> int:
        """Edge occurrences, counted with multiplicity (a loop counts once)."""
        return sum(m for _, _, m in self.edges)

    def edge_occurrences(self):
        """Every occurrence as a (u, v) pair, in canonical order."""
        for u, v, m in self.edges:
            for _ in range(m):
                yield (u, v)

    def degrees(self):
        """Vertex degrees; each loop contributes 2 to its endpoint."""
        deg = [0] * self.n
        for u, v, m in self.edges:
            deg[u] += m
            deg[v] += m
        return deg

    def has_loops(self) -> bool:
        return any(u == v for u, v, _ in self.edges)

    def has_parallel(self) -> bool:
        return any(m > 1 for _, _, m in self.edges)

    def is_simple(self) -> bool:
        return not self.has_loops() and not self.has_parallel()

    def adjacency(self):
        adj = [[] for _ in range(self.n)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            if u != v:
                adj[v].append(u)
        return adj


class DirectedGraph:
    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise BadParameter("vertex count must be non-negative")
        acc = {}
        for e in edges:
            u, v = e[0], e[1]
            m = e[2] if len(e) > 2 else 1
            if not (0 <= u < n and 0 <= v < n):
                raise BadParameter(f"edge {e} has an endpoint outside 0..{n - 1}")
            if m < 1:
                raise BadParameter("edge multiplicity must be >= 1")
            acc[(u, v)] = acc.get((u, v), 0) + m
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted((u, v, m) for (u, v), m in acc.items())))

    def __setattr__(self, name, value):
        raise AttributeError("DirectedGraph is immutable")

    def __eq__(self, other):
        return isinstance(other, DirectedGraph) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash(("directed", self.n, self.edges))

    def __repr__(self):
        return f"DirectedGraph({self.n}, {list(self.edges)})"

    def edge_occurrences(self):
        for u, v, m in self.edges:
            for _ in range(m):
                yield (u, v)


class Hypergraph:
    """r-uniform hypergraph: every hyperedge is a set of r distinct vertices."""

    __slots__ = ("n", "arity", "hyperedges")

    def __init__(self, n: int, arity: int, hyperedges=()):
        if n < 0 or arity < 1:
            raise BadParameter("need n >= 0 and arity >= 1")
        seen = set()
        for he in hyperedges:
            t = tuple(sorted(he))
            if len(t) != arity or len(set(t)) != arity:
                raise BadParameter(f"hyperedge {he} is not {arity} distinct vertices")
            if any(not 0 <= v < n for v in t):
                raise BadParameter(f"hyperedge {he} leaves 0..{n - 1}")
            if t in seen:
                raise BadParameter(f"parallel hyperedge {he}")
            seen.add(t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "hyperedges", tuple(sorted(seen)))

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def __repr__(self):
        return f"Hypergraph({self.n}, r={self.arity}, {list(self.hyperedges)})"


class LabeledGraph:
    """A multigraph with k distinguished vertices; labels[i] is vertex of label i."""

    __slots__ = ("graph", "labels")

    def __init__(self, graph: Multigraph, labels=()):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise BadParameter("labels must be injective")
        if any(not 0 <= v < graph.n for v in labels):
            raise BadParameter("label target outside the vertex set")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("LabeledGraph is immutable")

    @property
    def k(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        return isinstance(other, LabeledGraph) and (self.graph, self.labels) == (other.graph, other.labels)

    def __hash__(self):
        return hash((self.graph, self.labels))

    def __repr__(self):
        return f"LabeledGraph({self.graph!r}, labels={self.labels})"


class VertexPartition:
    """Partition of 0..n-1 into disjoint nonempty blocks.

    Blocks are kept sorted internally and ordered by their smallest element,
    so the partition has one canonical representation.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n: int, blocks):
        blocks = [tuple(sorted(b)) for b in blocks]
        seen = set()
        for b in blocks:
            if not b:
                raise BadPartition("empty block")
            for v in b:
                if not 0 <= v < n:
                    raise BadPartition(f"vertex {v} outside 0..{n - 1}")
                if v in seen:
                    raise BadPartition(f"vertex {v} in two blocks")
                seen.add(v)
        if len(seen) != n:
            raise BadPartition("blocks do not cover the vertex set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", tuple(sorted(blocks)))

    def __setattr__(self, name, value):
        raise AttributeError("VertexPartition is immutable")

    @classmethod
    def from_rgs(cls, rgs) -> "VertexPartition":
        """Build from a restricted-growth string (rgs[v] = block id of v)."""
        groups = {}
        for v, g in enumerate(rgs):
            groups.setdefault(g, []).append(v)
        return cls(len(rgs), groups.values())

    @classmethod
    def singletons(cls, n: int) -> "VertexPartition":
        return cls(n, [(v,) for v in range(n)])

    def block_of(self):
        """Map vertex -> index of its block in self.blocks."""
        out = [0] * self.n
        for i, b in enumerate(self.blocks):
            for v in b:
                out[v] = i
        return out

    def refines(self, other: "VertexPartition") -> bool:
        """True when every block of self lies inside a block of other."""
        if self.n != other.n:
            raise BadPartition("partitions of different ground sets")
        owner = other.block_of()
        return all(len({owner[v] for v in b}) == 1 for b in self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __eq__(self, other):
        return isinstance(other, VertexPartition) and (self.n, self.blocks) == (other.n, other.blocks)

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return f"VertexPartition({self.n}, {[list(b) for b in self.blocks]})"


class Pinning:
    """Partial map vertex -> spin, fixed before summation."""

    __slots__ = ("assignments",)

    def __init__(self, assignments=None):
        items = dict(assignments or {})
        for v, s in items.items():
            if not isinstance(v, int) or not isinstance(s, int) or v < 0 or s < 0:
                raise BadParameter(f"pinning entries must be non-negative ints, got {v}:{s}")
        object.__setattr__(self, "assignments", dict(sorted(items.items())))

    def __setattr__(self, name, value):
        raise AttributeError("Pinning is immutable")

    def domain(self):
        return self.assignments.keys()

    def items(self):
        return self.assignments.items()

    def __contains__(self, v):
        return v in self.assignments

    def __getitem__(self, v):
        return self.assignments[v]

    def __len__(self):
        return len(self.assignments)

    def __eq__(self, other):
        return isinstance(other, Pinning) and self.assignments == other.assignments

    def __repr__(self):
        return f"Pinning({self.assignments})"


EMPTY_PINNING = Pinning()


def thicken(g: Multigraph, p: int) -> Multigraph:
    """Replace every edge occurrence by p parallel copies."""
    if p < 1:
        raise BadParameter("thickening needs p >= 1")
    return Multigraph(g.n, [(u, v, m * p) for u, v, m in g.edges])


def stretch(g: Multigraph, p: int) -> Multigraph:
    """Replace every edge occurrence by a path of length p.

    Each occurrence gets p - 1 fresh internal vertices, appended in canonical
    edge order; a loop becomes a closed walk of length p through its fresh
    vertices (for p = 1 the graph is returned unchanged).
    """
    if p < 1:
        raise BadParameter("stretching needs p >= 1")
    if p == 1:
        return g
    edges = []
    fresh = g.n
    for u, v in g.edge_occurrences():
        chain = [u] + list(range(fresh, fresh + p - 1)) + [v]
        fresh += p - 1
        edges.extend(zip(chain, chain[1:]))
    return Multigraph(fresh, edges)


def quotient(g: Multigraph, part: VertexPartition) -> Multigraph:
    """Contract each block of the partition to a single vertex.

    Every original edge occurrence survives (as a loop when both endpoints
    land in the same block), so |E| is preserved with multiplicity.
    """
    if part.n != g.n:
        raise BadPartition(f"partition of {part.n} vertices against a graph on {g.n}")
    owner = part.block_of()
    return Multigraph(len(part.blocks), [(owner[u], owner[v], m) for u, v, m in g.edges])


def glue(a: LabeledGraph, b: LabeledGraph) -> LabeledGraph:
    """Disjoint union with label i of both sides identified, labels kept."""
    if a.k != b.k:
        raise LabelMismatch(f"cannot glue arity {a.k} with arity {b.k}")
    remap = {}
    for i, v in enumerate(b.labels):
        remap[v] = a.labels[i]
    nxt = a.graph.n
    for v in range(b.graph.n):
        if v not in remap:
            remap[v] = nxt
            nxt += 1
    edges = list(a.graph.edges)
    edges.extend((remap[u], remap[v], m) for u, v, m in b.graph.edges)
    return LabeledGraph(Multigraph(nxt, edges), a.labels)


def components(g: Multigraph):
    """Connected components as (vertex tuple, induced subgraph) pairs.

    Components are ordered by smallest vertex; the induced subgraph renumbers
    its vertices in ascending order of the originals.
    """
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    # every root is the smallest vertex of its component, so the groups
    # come out ordered by smallest vertex, each listed in ascending order
    groups = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    edges = {root: [] for root in groups}
    for e in g.edges:
        edges[find(e[0])].append(e)
    out = []
    for root, verts in groups.items():
        index = {v: i for i, v in enumerate(verts)}
        sub = Multigraph(len(verts), [(index[u], index[v], m) for u, v, m in edges[root]])
        out.append((tuple(verts), sub))
    return out


def bipartition(g: Multigraph):
    """A proper 2-coloring as (left set, right set), or None.

    Each component is colored independently with its smallest vertex on the
    left; loops make a component (hence the graph) non-bipartite.
    """
    if g.has_loops():
        return None
    color = [-1] * g.n
    adj = g.adjacency()
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    left = frozenset(v for v in range(g.n) if color[v] == 0)
    right = frozenset(v for v in range(g.n) if color[v] == 1)
    return (left, right)
