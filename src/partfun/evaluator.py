"""Brute-force partition-function evaluation, the ground truth of the package.

Z_A(G) sums, over all spin assignments sigma: V -> {0..m-1}, the product of
matrix entries A[sigma(u)][sigma(v)] over edge occurrences.  Variants: pinned
vertices (fixed spins, excluded from vertex weights), diagonal vertex
weights, directed graphs, r-uniform hypergraphs with symmetric weight
tensors, and edge models (weights on the multiset of incident edge colors).

A configuration is a plain tuple of spins indexed by vertex.  Every sum
here, and the brute branch of ``moebius.y_injective``, is a sum over spins of
a product of factors, each a table over a scope of variables: an edge, a
weighted vertex, a hyperedge, an edge-model vertex over its incident edge
occurrences, or a 0/1 "distinct spins" pair.  One depth-first enumeration
sets the free variables in ascending order, multiplies each factor in at the
level of its scope set last, and skips the subtree below a zero partial
product.  It runs once, over Python ints only: for RAT and POLY
denominators are cleared, and polynomial weights are evaluated at one
integer x so large that the base-x digits of the result are the
coefficients of Z (Kronecker substitution).  The enumeration budget caps
the number of configurations, m^free, before any work starts
(default 10**8, overridable via the PARTFUN_BUDGET environment variable).
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from operator import mul

from .errors import (
    ArityMismatch,
    AsymmetricTensor,
    BadParameter,
    BudgetExceeded,
    DimensionMismatch,
    NotSymmetric,
    PinningConflict,
)
from .graph import DirectedGraph, Hypergraph, Multigraph, Pinning
from .rings import INT, Polynomial, Ring

DEFAULT_BUDGET = 10**8


def current_budget() -> int:
    env = os.environ.get("PARTFUN_BUDGET")
    if env is None:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError as exc:
        raise BadParameter(f"PARTFUN_BUDGET must be an integer, got {env!r}") from exc
    if value < 1:
        raise BadParameter("PARTFUN_BUDGET must be positive")
    return value


def _check_budget(m: int, k: int, budget: int | None, what: str = "configurations"):
    """Raise BudgetExceeded when m**k exceeds the budget (the call's own,
    else current_budget()).  The running product stops as soon as it passes
    the budget, so m**k is never built as a big integer."""
    if budget is None:
        budget = current_budget()
    count = 1
    for _ in range(k):
        count *= m
        if count > budget or m < 2:
            break
    if count > budget:
        raise BudgetExceeded(f"{m}^{k} {what} exceed the budget {budget}")


class WeightMatrix:
    """Square matrix of scalars over one ring; symmetric for undirected use."""

    __slots__ = ("ring", "n", "rows", "symmetric")

    def __init__(self, ring: Ring, rows):
        rows = tuple(tuple(ring.coerce(v) for v in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatch("weight matrix must be square and nonempty")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "symmetric", all(rows[i][j] == rows[j][i] for i in range(n) for j in range(i)))

    def __setattr__(self, name, value):
        raise AttributeError("WeightMatrix is immutable")

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return (
            isinstance(other, WeightMatrix)
            and self.ring.name == other.ring.name
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ring.name, self.rows))

    def __repr__(self):
        return f"WeightMatrix({self.ring.name}, {[list(r) for r in self.rows]})"

    def is_symmetric(self) -> bool:
        return self.symmetric

    def require_symmetric(self):
        if not self.symmetric:
            raise NotSymmetric("this operation needs a symmetric weight matrix")

    def is_nonneg(self) -> bool:
        return all(self.ring.is_nonneg(v) for row in self.rows for v in row)

    def cast(self, ring: Ring) -> "WeightMatrix":
        """Promote into a larger ring (int -> rat -> poly only)."""
        if not ring.contains(self.ring):
            raise DimensionMismatch(f"cannot demote {self.ring.name} matrix to {ring.name}")
        return WeightMatrix(ring, self.rows)

    def permuted(self, pi) -> "WeightMatrix":
        """Simultaneous row/column permutation; entry (i, j) of the result
        is A[pi[i]][pi[j]]."""
        if sorted(pi) != list(range(self.n)):
            raise BadParameter(f"{pi} is not a permutation of 0..{self.n - 1}")
        return WeightMatrix(self.ring, [[self.rows[pi[i]][pi[j]] for j in range(self.n)] for i in range(self.n)])

    def matmul(self, other: "WeightMatrix") -> "WeightMatrix":
        if self.ring.name != other.ring.name or self.n != other.n:
            raise DimensionMismatch("matrix product needs equal size and ring")
        z = self.ring.zero
        rows = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                acc = z
                for k in range(self.n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            rows.append(row)
        return WeightMatrix(self.ring, rows)

    def transpose(self) -> "WeightMatrix":
        return WeightMatrix(self.ring, [[self.rows[j][i] for j in range(self.n)] for i in range(self.n)])

    def tensor(self, other: "WeightMatrix") -> "WeightMatrix":
        """Kronecker product, indices ordered (i, k) -> i * other.n + k."""
        if self.ring.name != other.ring.name:
            raise DimensionMismatch("tensor product needs a common ring")
        size = self.n * other.n
        rows = [
            [self.rows[i // other.n][j // other.n] * other.rows[i % other.n][j % other.n] for j in range(size)]
            for i in range(size)
        ]
        return WeightMatrix(self.ring, rows)


class DiagonalWeights:
    __slots__ = ("ring", "n", "diag")

    def __init__(self, ring: Ring, diag):
        diag = tuple(ring.coerce(v) for v in diag)
        if not diag:
            raise DimensionMismatch("diagonal weights must be nonempty")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", len(diag))
        object.__setattr__(self, "diag", diag)

    def __setattr__(self, name, value):
        raise AttributeError("DiagonalWeights is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, DiagonalWeights)
            and self.ring.name == other.ring.name
            and self.diag == other.diag
        )

    def __repr__(self):
        return f"DiagonalWeights({self.ring.name}, {list(self.diag)})"

    def cast(self, ring: Ring) -> "DiagonalWeights":
        if not ring.contains(self.ring):
            raise DimensionMismatch(f"cannot demote {self.ring.name} weights to {ring.name}")
        return DiagonalWeights(ring, self.diag)


class EdgeModel:
    """Weights on the vector t(tau, v) counting incident edge colors.

    The table maps every composition (t_0..t_{n-1}) with sum <= max_degree to
    a scalar; a loop is incident twice, so compositions sum to vertex degree.
    """

    __slots__ = ("ring", "n", "max_degree", "table")

    def __init__(self, ring: Ring, n: int, max_degree: int, fn):
        if n < 1 or max_degree < 0:
            raise BadParameter("edge model needs n >= 1 colors and max_degree >= 0")
        table = {}
        for total in range(max_degree + 1):
            for comp in _compositions(total, n):
                table[comp] = ring.coerce(fn(comp))
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeModel is immutable")


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def perfect_matching_model(max_degree: int) -> EdgeModel:
    """Two colors; weight 1 exactly when one incident edge has color 1.

    Summed over edge colorings this counts the perfect matchings (color-1
    edges must cover every vertex exactly once)."""
    return EdgeModel(INT, 2, max_degree, lambda comp: 1 if comp[1] == 1 else 0)


def _check_dims(a: WeightMatrix, g: Multigraph, pin, weights):
    if pin is not None:
        for v, s in pin.items():
            if v >= g.n:
                raise DimensionMismatch(f"pinned vertex {v} outside the graph")
            if s >= a.n:
                raise DimensionMismatch(f"pinned spin {s} outside 0..{a.n - 1}")
    if weights is not None and weights.n != a.n:
        raise DimensionMismatch("diagonal weights size differs from the matrix")


def config_weight(a: WeightMatrix, g: Multigraph, sigma, pin: Pinning | None = None,
                  weights: DiagonalWeights | None = None):
    """Weight of one configuration: edge product times vertex weights.

    Vertex weights are skipped for pinned vertices.  The edge product counts
    multiplicity."""
    _check_dims(a, g, pin, weights)
    sigma = tuple(sigma)
    if len(sigma) != g.n:
        raise DimensionMismatch(f"configuration covers {len(sigma)} of {g.n} vertices")
    if any(not 0 <= s < a.n for s in sigma):
        raise DimensionMismatch("configuration uses a spin outside the matrix")
    if pin is not None:
        for v, s in pin.items():
            if sigma[v] != s:
                raise PinningConflict(f"sigma[{v}] = {sigma[v]} but the pinning demands {s}")
    w = a.ring.one
    rows = a.rows
    for u, v, m in g.edges:
        w = w * rows[sigma[u]][sigma[v]] ** m
        if not w:
            return a.ring.zero
    if weights is not None:
        pinned = pin.assignments if pin is not None else {}
        for v in range(g.n):
            if v not in pinned:
                w = w * weights.diag[sigma[v]]
    return w


def z_brute(a: WeightMatrix, g: Multigraph, pin: Pinning | None = None,
            weights: DiagonalWeights | None = None, budget: int | None = None):
    """Exact partition function by full enumeration.

    Sums the configuration weight over every assignment extending the
    pinning; the empty graph contributes the empty product, so Z = 1.
    """
    a.require_symmetric()
    _check_dims(a, g, pin, weights)
    pinned = pin.assignments if pin is not None else {}
    free = g.n - len(pinned)
    _check_budget(a.n, free, budget)
    # the result lies in the larger ring only once a vertex weight is
    # multiplied into a configuration of nonzero edge product
    promoted = weights is not None and free > 0 and not a.ring.contains(weights.ring)
    ring = weights.ring if promoted else a.ring
    vertex = [] if weights is None else [((v,), weights.diag, 1) for v in range(g.n) if v not in pinned]
    z = _exact_z(a.n, g.n, [((u, v), a.rows, k) for u, v, k in g.edges] + vertex, ring, pinned)
    if promoted and not z:
        support = [[int(bool(v)) for v in row] for row in a.rows]
        if not _exact_z(a.n, g.n, [((u, v), support, k) for u, v, k in g.edges], INT, pinned):
            return a.ring.zero
    return z


def z_directed(a: WeightMatrix, g: DirectedGraph, budget: int | None = None):
    """Partition function of a directed graph; A need not be symmetric."""
    _check_budget(a.n, g.n, budget)
    # the kernel reads a table in vertex order: an arc from a later vertex reads the transpose
    flipped = [list(col) for col in zip(*a.rows)]
    arcs = [((u, v), a.rows, k) if u <= v else ((v, u), flipped, k) for u, v, k in g.edges]
    return _exact_z(a.n, g.n, arcs, a.ring, {})


class SymmetricTensor:
    """Total map [n]^r -> scalars, symmetric under coordinate permutation."""

    __slots__ = ("ring", "n", "arity", "table")

    def __init__(self, ring: Ring, n: int, arity: int, table):
        if n < 1 or arity < 1:
            raise BadParameter("tensor needs n >= 1 and arity >= 1")
        full = {}
        for idx in itertools.product(range(n), repeat=arity):
            if idx not in table:
                raise DimensionMismatch(f"tensor table misses index {idx}")
            full[idx] = ring.coerce(table[idx])
        for idx, v in full.items():
            if full[tuple(sorted(idx))] != v:
                raise AsymmetricTensor(f"tensor differs at {idx} and {tuple(sorted(idx))}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "table", full)

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricTensor is immutable")

    @classmethod
    def from_matrix(cls, a: WeightMatrix) -> "SymmetricTensor":
        a.require_symmetric()
        return cls(a.ring, a.n, 2, {(i, j): a.rows[i][j] for i in range(a.n) for j in range(a.n)})


def z_hypergraph(t: SymmetricTensor, h: Hypergraph, budget: int | None = None):
    """Partition function of an r-uniform hypergraph: one factor per
    hyperedge."""
    if t.arity != h.arity:
        raise ArityMismatch(f"tensor arity {t.arity} against hypergraph arity {h.arity}")
    _check_budget(t.n, h.n, budget)
    table = [t.table[idx] for idx in sorted(t.table)]
    for _ in range(t.arity - 1):
        table = [table[i:i + t.n] for i in range(0, len(table), t.n)]
    return _exact_z(t.n, h.n, [(he, table, 1) for he in h.hyperedges], t.ring, {})


def z_edge_model(f: EdgeModel, g: Multigraph, budget: int | None = None):
    """Edge-model partition function: sum over edge colorings tau of the
    product over vertices of F(t(tau, v)).  The edge occurrences are the
    variables, each vertex a factor over its incident occurrences."""
    _check_budget(f.n, g.num_edges(), budget, "edge colorings")
    if g.n and max(g.degrees(), default=0) > f.max_degree:
        raise BadParameter("edge-model table does not cover the maximum degree")
    incident = [{} for _ in range(g.n)]
    for idx, (u, v) in enumerate(g.edge_occurrences()):
        incident[u][idx] = 1
        incident[v][idx] = 1 + (u == v)  # a loop counts twice
    tables = {}
    for inc in incident:
        reps = tuple(inc.values())
        if reps not in tables:
            # entry [c_1]..[c_d] is F at the counts with reps[i] added to color c_i; built bottom
            # up over reach[i], the counts after i variables, so equal subtables are shared
            reach = [{(0,) * f.n}]
            for r in reps:
                reach.append({t[:c] + (t[c] + r,) + t[c + 1:] for t in reach[-1] for c in range(f.n)})
            below = {t: f.table[t] for t in reach.pop()}
            for r in reversed(reps):
                below = {t: [below[t[:c] + (t[c] + r,) + t[c + 1:]] for c in range(f.n)] for t in reach.pop()}
            tables[reps] = below[(0,) * f.n]
    factors = [(tuple(inc), tables[tuple(inc.values())], 1) for inc in incident]
    return _exact_z(f.n, g.num_edges(), factors, f.ring, {})


def scalar_key(v):
    """Deterministic sort key for scalars of one ring."""
    if isinstance(v, Polynomial):
        return (len(v.coeffs), v.coeffs)
    return (0, Fraction(v))


def potential_weights(a: WeightMatrix, g: Multigraph):
    """All products of |E| matrix entries (with repetition), deduplicated.

    Every configuration weight of (A, G) lies in this set; the converse can
    fail, which is fine for the interpolation that consumes it."""
    e = g.num_edges()
    values = sorted(set(v for row in a.rows for v in row), key=scalar_key)
    out = set()
    for combo in itertools.combinations_with_replacement(values, e):
        w = a.ring.one
        for v in combo:
            w = w * v
            if not w:
                break
        out.add(w if w else a.ring.zero)
    return out


def count_configs(a: WeightMatrix, g: Multigraph, w, pin: Pinning | None = None,
                  budget: int | None = None) -> int:
    """Number of configurations extending the pinning with edge product
    exactly w (vertex weights play no role here)."""
    a.require_symmetric()
    _check_dims(a, g, pin, None)
    pinned = pin.assignments if pin is not None else {}
    _check_budget(a.n, g.n - len(pinned), budget)
    w = a.ring.coerce(w)
    # every product of the lifted entries is compared with the lifted w; a w
    # beyond the lift's range (x = 0: not lifted) equals no such product
    x, scale, factors = _lift([((u, v), a.rows, k) for u, v, k in g.edges], a.n, 0, a.ring)
    target = [v * scale for v in (w.coeffs if isinstance(w, Polynomial) else (w,))]
    if x and any(v.denominator != 1 or 2 * abs(v) >= x for v in target):
        return 0
    const, levels = _tables(a.n, g.n, factors, pinned)
    return _enum_count(levels, a.n, const, _at([int(v) for v in target], x))


# ---------------------------------------------------------------------------
# the enumeration kernel: a factor (scope, table, mult) is table**mult indexed
# by the spins of its scope's variables, which may repeat.  There is no
# memoisation: every configuration is covered, and the cost stays m**free.


def _map(table, fn):
    """fn of every entry of a nested table, one layer of subtables at a time (no
    recursion), in the same order on every walk; a subtable met twice (shared
    in a DAG) maps once, so the sharing survives."""
    if not isinstance(table, (list, tuple)):
        return fn(table)
    layers, node = [{id(table): table}], table
    while isinstance(node[0], (list, tuple)):
        node = node[0]
        layers.append({id(t): t for sub in layers[-1].values() for t in sub})
    out = {key: list(map(fn, sub)) for key, sub in layers.pop().items()}
    for layer in reversed(layers):
        out = {key: [out[id(t)] for t in sub] for key, sub in layer.items()}
    return out[id(table)]


def _restrict(table, mult, pins, reps, m):
    """A symmetric table**mult read at the spins pins on its leading axes; the i-th free variable
    spans the next reps[i] axes, so a repeated variable (a loop) reads the diagonal."""
    for s in pins:
        table = table[s]
    root = [table]
    tops = [root]  # new lists, one layer at a time, whose entries still span further axes
    for r in reps:
        below = []
        for top in tops:
            for k, row in enumerate(top):
                row = list(row)
                for _ in range(1, r):
                    row = [t[s] for s, t in enumerate(row)]
                top[k] = row
                below.append(row)
        tops = below
    if mult != 1:
        for top in tops:
            top[:] = [v**mult for v in top]
    return root[0]


def _tables(m, n, factors, pinned):
    """Hang integer factors on the levels of an enumeration of n variables.

    Returns (const, levels): const is the product of the factors over
    pinned variables only, and levels[i] lists (js, table) for the i-th free
    variable, table[s_j]..[s_i] being one factor over the levels js and i
    (js empty for a factor of level i alone).
    """
    free = [v for v in range(n) if v not in pinned]
    level = dict(zip(free, range(n)))
    levels = [[] for _ in free]
    const = 1
    for scope, table, mult in factors:
        lv = [*map(level.get, scope)]
        order = sorted(set(lv) - {None})
        # tables are symmetric: pinned variables are read first, free ones in
        # level order.  A power, a pin or a repeated variable needs a table of
        # its own; any other factor reads it as is
        if mult != 1 or lv != order:
            pins = sorted([pinned[v] for v in scope if v in pinned])
            table, lv = _restrict(table, mult, pins, map(lv.count, order), m), order
        if not lv:
            const *= table
            continue
        levels[lv[-1]].append((lv[:-1], table))
    return const, [level or [((), [1] * m)] for level in levels]


def _level_factors(level, sigma):
    """The factor of each spin at one level, given the spins above it."""
    vec = None
    for js, row in level:
        for j in js:
            row = row[sigma[j]]
        vec = row if vec is None else list(map(mul, vec, row))
    return vec


def _enum_sum(levels, m):
    """Sum over all spins of the levels of the product of their factors.

    Depth first on an explicit stack, so deep graphs need no recursion:
    part[i] sums the totals of level i's subtrees, each times its spin's
    factor at level i (the distributive law along the tree).
    """
    k = len(levels)
    sigma = [0] * k
    if k <= 1:
        return sum(_level_factors(levels[0], sigma)) if k else 1
    last = k - 1
    vecs = [None] * k
    part = [0] * k
    nxt = [0] * k
    vecs[0] = _level_factors(levels[0], sigma)
    i = 0
    while True:
        vec = vecs[i]
        s = nxt[i]
        while s < m and not vec[s]:
            s += 1
        if s == m:
            if i == 0:
                return part[0]
            i -= 1
            part[i] += vecs[i][sigma[i]] * part[i + 1]
            continue
        sigma[i] = s
        nxt[i] = s + 1
        if i + 1 == last:
            part[i] += vec[s] * sum(_level_factors(levels[last], sigma))
        else:
            i += 1
            vecs[i] = _level_factors(levels[i], sigma)
            part[i] = 0
            nxt[i] = 0


def _enum_count(levels, m, start, target):
    """Number of spin assignments of the levels for which start times the
    product of the factors equals target.

    A zero prefix product stays zero, so its m**remaining completions are
    counted at once when target is zero, and skipped otherwise.
    """
    k = len(levels)
    if k == 0:
        return int(start == target)
    sigma = [0] * k
    last = k - 1
    if k == 1:
        return sum(start * w == target for w in _level_factors(levels[0], sigma))
    zero_target = not target
    prefix = [start] * k
    vecs = [None] * k
    nxt = [0] * k
    vecs[0] = _level_factors(levels[0], sigma)
    count = 0
    i = 0
    while True:
        s = nxt[i]
        if s == m:
            if i == 0:
                return count
            i -= 1
            continue
        nxt[i] = s + 1
        q = prefix[i] * vecs[i][s]
        if not q:
            if zero_target:
                count += m ** (last - i)
            continue
        sigma[i] = s
        if i + 1 == last:
            count += sum(q * w == target for w in _level_factors(levels[last], sigma))
        else:
            i += 1
            prefix[i] = q
            vecs[i] = _level_factors(levels[i], sigma)
            nxt[i] = 0


def _integer_form(values):
    """(c, coefficient tuples of c * v) for scalars v, c being the least
    common denominator of all their coefficients."""
    coeffs = [v.coeffs if isinstance(v, Polynomial) else (v,) for v in values]
    c = math.lcm(*(x.denominator for t in coeffs for x in t))
    return c, [tuple(x.numerator * (c // x.denominator) for x in t) for t in coeffs]


def _at(coeffs, x):
    """Horner evaluation of integer coefficients (lowest first) at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _lift(factors, m, free, ring):
    """The integer image of the factors' tables (Kronecker substitution):
    (x, scale, factors).  INT is never lifted: x = 0, scale = 1.

    A table's entries times its own c have integer coefficients; scale is
    the product of c**mult.  With L a table's largest l1 norm after
    scaling, every coefficient of a sum of m**free scaled products lies
    within bound = m**free * prod L**mult, so at x = 2 * bound + 1 the sum
    has its coefficients as balanced base-x digits, and two such sums are
    equal exactly when their values are.  free = 0 bounds one product.
    """
    bad = next((k for _, _, k in factors if not isinstance(k, int)), None)
    if bad is not None:
        raise BadParameter(f"edge multiplicity must be an integer, got {bad!r}")
    if ring.name == "int":
        return 0, 1, factors
    forms, bound, scale = {}, m**free, 1
    for _, table, mult in factors:
        if id(table) not in forms:
            entries = []
            _map(table, entries.append)
            c, coeffs = _integer_form(entries)
            forms[id(table)] = (table, c, coeffs, max(sum(map(abs, t)) for t in coeffs))
        _, c, _, big_l = forms[id(table)]
        bound, scale = bound * big_l**mult, scale * c**mult
    x = 2 * bound + 1
    lifted = {}
    for key, (table, _, coeffs, _) in forms.items():
        values = iter([_at(t, x) for t in coeffs])  # a second walk meets the entries in the first's order
        lifted[key] = _map(table, lambda _: next(values))
    return x, scale, [(scope, lifted[id(table)], mult) for scope, table, mult in factors]


def _digits(z, x):
    """Balanced base-x digits of z, lowest first, each within x // 2."""
    half = x // 2
    out = []
    while z:
        r = z % x
        if r > half:
            r -= x
        out.append(r)
        z = (z - r) // x
    return out


def _exact_z(m, n, factors, ring, pinned):
    """The sum, over spins 0..m-1 of the variables 0..n-1 outside pinned, of
    the product of the factors, as a scalar of ring; one enumeration over
    Python ints, which yields scale * Z(x) for RAT and POLY (see _lift)."""
    x, scale, factors = _lift(factors, m, n - len(pinned), ring)
    const, levels = _tables(m, n, factors, pinned)
    z = const * _enum_sum(levels, m) if const else 0
    if ring.name == "poly":
        return Polynomial(Fraction(v, scale) for v in _digits(z, x))
    return Fraction(z, scale) if ring.name == "rat" else z
