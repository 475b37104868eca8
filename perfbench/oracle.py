"""Reference values the benchmark checks outputs against.

These are written here, apart from the package, with other algorithms than
the code under test: variable elimination instead of enumeration, and the
rank-one product formula evaluated on degree histograms found by a
union-find of this module's own.  Only the scalar types (int, Fraction,
Polynomial) are shared with the package.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations, product


def partition_function(rows, zero, one, n, edges, pin=None, diag=None):
    """Z by variable elimination in min-degree order.

    rows is the weight matrix, edges are (u, v, multiplicity) triples,
    pin maps vertex -> spin and diag holds vertex weights, which pinned
    vertices do not carry.
    """
    pin = pin or {}
    m = len(rows)
    dom = {v: (pin[v],) if v in pin else tuple(range(m)) for v in range(n)}
    factors = []
    for u, v, mult in edges:
        if u == v:
            factors.append(((u,), {(s,): rows[s][s] ** mult for s in dom[u]}))
        else:
            factors.append(((u, v), {(s, t): rows[s][t] ** mult for s in dom[u] for t in dom[v]}))
    if diag is not None:
        factors.extend(((v,), {(s,): diag[s] for s in dom[v]}) for v in range(n) if v not in pin)
    left = set(range(n))

    def neighbours(x):
        return set().union(*(f[0] for f in factors if x in f[0])) - {x}

    while left:
        v = min(left, key=lambda x: (len(neighbours(x)), x))
        scope = tuple(sorted(neighbours(v)))
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        table = {}
        for assign in product(*(dom[x] for x in scope)):
            env = dict(zip(scope, assign))
            acc = zero
            for s in dom[v]:
                env[v] = s
                w = one
                for vars_, tab in touching:
                    w = w * tab[tuple(env[x] for x in vars_)]
                acc = acc + w
            table[assign] = acc
        factors.append((scope, table))
        left.remove(v)
    total = one
    for _, tab in factors:
        total = total * tab[()]
    return total


def z_of(a, g, pin=None, weights=None):
    """Z_A(G) for package matrix/graph objects."""
    return partition_function(
        a.rows, a.ring.zero, a.ring.one, g.n, g.edges,
        pin=dict(pin.items()) if pin is not None else None,
        diag=weights.diag if weights is not None else None,
    )


def injective_sum(a, g):
    """Sum of edge products over injective spin maps, by direct listing."""
    total = a.ring.zero
    for tau in permutations(range(a.n), g.n):
        w = a.ring.one
        for u, v, mult in g.edges:
            w = w * a.rows[tau[u]][tau[v]] ** mult
        total = total + w
    return total


# ---------------------------------------------------------------------------
# rank-one closed form

def pieces(n, edges):
    """Per connected component: (sorted degree tuple, 2-colour class sizes
    as degree tuples or None when not bipartite, edge occurrences)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj = [[] for _ in range(n)]
    deg = [0] * n
    looped = set()
    for u, v, m in edges:
        deg[u] += m
        deg[v] += m
        if u == v:
            looped.add(u)
        else:
            adj[u].append(v)
            adj[v].append(u)
            parent[find(u)] = find(v)
    members = {}
    for v in range(n):
        members.setdefault(find(v), []).append(v)
    comp_edges = Counter()
    for u, _, m in edges:
        comp_edges[find(u)] += m
    colour = {}
    out = []
    for root, verts in members.items():
        sides = ([], [])
        bipartite = not any(v in looped for v in verts)
        colour[verts[0]] = 0
        stack = [verts[0]]
        while stack and bipartite:
            u = stack.pop()
            sides[colour[u]].append(deg[u])
            for w in adj[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    stack.append(w)
                elif colour[w] == colour[u]:
                    bipartite = False
        split = (tuple(sorted(sides[0])), tuple(sorted(sides[1]))) if bipartite else None
        out.append((tuple(sorted(deg[v] for v in verts)), split, comp_edges[root]))
    return out


def _power_product(ring, vec, degrees):
    """prod over the degree multiset of sum_i vec_i ** d."""
    acc = ring.one
    for d, count in Counter(degrees).items():
        acc = acc * sum((x ** d for x in vec), start=ring.zero) ** count
    return acc


def rank_one_value(ring, g, factor):
    """Z of g for a one-block rank-one matrix given by its factor.

    ("outer", u, s): entries u_i u_j / s.  ("two-sided", x, y, s): the
    bipartite matrix [[0, B], [B^T, 0]] with B_ij = x_i y_j / s.  Z is the
    product over components; a component contributes a product of power
    sums over its degrees, divided by s ** (its edge occurrences).
    """
    total = ring.one
    for (degrees, split, occ), count in Counter(pieces(g.n, g.edges)).items():
        if factor[0] == "outer":
            _, u, s = factor
            num = _power_product(ring, u, degrees)
        else:
            _, x, y, s = factor
            if split is None:
                return ring.zero
            p, q = split
            num = (_power_product(ring, x, p) * _power_product(ring, y, q)
                   + _power_product(ring, y, p) * _power_product(ring, x, q))
        total = total * divide(num, s ** occ) ** count
    return total


def divide(num, den):
    if hasattr(num, "divmod"):
        quo, rem = num.divmod(den)
        if rem:
            raise ArithmeticError("inexact division in the rank-one oracle")
        return quo
    if isinstance(num, int) and isinstance(den, int):
        quo, rem = divmod(num, den)
        if rem:
            raise ArithmeticError("inexact division in the rank-one oracle")
        return quo
    return num / den


def tutte_value(g, x, y):
    """T(G; x, y) = (y-1)^(Q-N) n^(-Q) Z_{A(n,y,1)}(G) with n = (x-1)(y-1)."""
    n = int((x - 1) * (y - 1))
    rows = [[Fraction(y) if i == j else Fraction(1) for j in range(n)] for i in range(n)]
    z = partition_function(rows, Fraction(0), Fraction(1), g.n, g.edges)
    q = len(pieces(g.n, g.edges))
    return Fraction(y - 1) ** (q - g.n) * Fraction(1, n) ** q * z
