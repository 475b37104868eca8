"""Named weight matrices with independent combinatorial oracles.

Each model pairs a small weight matrix (independent sets, colorings,
even-degree subgraphs, even induced subgraphs, max-cut, flows, Ising, Potts,
and the general constant-diagonal family) with a direct enumeration oracle
that never goes through the partition function, so the classical identities
relating them are all checkable.  The Tutte polynomial lives here too, via
its subset expansion, together with the specialization identity tying it to
constant-diagonal partition functions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import BadParameter, BudgetExceeded, NotSimple
from .evaluator import DiagonalWeights, WeightMatrix, _check_budget, current_budget, z_brute
from .graph import Multigraph, components
from .rings import INT, POLY, RAT, X, Polynomial

MODEL_NAMES = (
    "indep-set",
    "weighted-indep-set",
    "coloring",
    "euler",
    "even-subgraph",
    "max-cut",
    "general",
    "flow",
    "ising",
    "potts",
)

# the models with parameters: (integer size >= 1, rational parameters)
_MODEL_PARAMS = {
    "coloring": ("k", ()),
    "flow": ("k", ()),
    "general": ("n", ("r", "s")),
    "potts": ("n", ("v",)),
}


class NamedModel:
    """A model name plus its validated parameters."""

    __slots__ = ("name", "params")

    def __init__(self, name, **params):
        if name not in MODEL_NAMES:
            raise BadParameter(f"unknown model {name!r}, expected one of {MODEL_NAMES}")
        size, rationals = _MODEL_PARAMS.get(name, (None, ()))
        cleaned = {}
        if size is not None:
            value = params.pop(size, None)
            if not isinstance(value, int) or value < 1:
                raise BadParameter(f"model {name} needs an integer {size} >= 1")
            cleaned[size] = value
        try:
            for key in rationals:
                cleaned[key] = Fraction(params.pop(key))
        except (KeyError, TypeError, ValueError) as exc:
            what = "a rational v" if rationals == ("v",) else "rational r and s"
            raise BadParameter(f"model {name} needs {what}") from exc
        if params:
            raise BadParameter(f"model {name} got unexpected parameters {sorted(params)}")
        self.name = name
        self.params = cleaned

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"NamedModel({self.name}{', ' + inner if inner else ''})"


def constant_diagonal_matrix(n: int, r, s) -> WeightMatrix:
    """n x n rational matrix with r on the diagonal and s off it."""
    if n < 1:
        raise BadParameter("need n >= 1")
    r = Fraction(r)
    s = Fraction(s)
    rows = [[r if i == j else s for j in range(n)] for i in range(n)]
    return WeightMatrix(RAT, rows)


def matrix_of(model: NamedModel):
    """The model's weight matrix over its minimal ring, plus vertex weights
    when the model has them (only the flow model does)."""
    name = model.name
    p = model.params
    if name == "indep-set":
        return WeightMatrix(INT, [[1, 1], [1, 0]]), None
    if name == "weighted-indep-set":
        return WeightMatrix(INT, [[1, 2], [2, 0]]), None
    if name == "coloring":
        k = p["k"]
        rows = [[0 if i == j else 1 for j in range(k)] for i in range(k)]
        return WeightMatrix(INT, rows), None
    if name == "euler":
        return WeightMatrix(INT, [[1, -1], [-1, 1]]), None
    if name == "even-subgraph":
        return WeightMatrix(INT, [[1, 1], [1, -1]]), None
    if name == "max-cut":
        one = POLY.one
        return WeightMatrix(POLY, [[one, X], [X, one]]), None
    if name == "general":
        return constant_diagonal_matrix(p["n"], p["r"], p["s"]), None
    if name == "flow":
        k = p["k"]
        a = constant_diagonal_matrix(k, k - 1, -1)
        d = DiagonalWeights(RAT, [Fraction(1, k)] * k)
        return a, d
    if name == "ising":
        one = POLY.one
        return WeightMatrix(POLY, [[X, one], [one, X]]), None
    if name == "potts":
        return constant_diagonal_matrix(p["n"], p["v"] + 1, 1), None
    raise BadParameter(f"unknown model {name!r}")


# ---------------------------------------------------------------------------
# direct combinatorial oracles (never via the partition function)

def independent_sets(g: Multigraph) -> int:
    """Vertex subsets with no edge inside (a loop bars its vertex)."""
    if g.n > 20:
        raise BudgetExceeded(f"{g.n} vertices is past the 2^20 subset cap")
    pairs = {(u, v) for u, v, _ in g.edges}
    count = 0
    for mask in range(1 << g.n):
        if all(not (mask >> u & 1 and mask >> v & 1) for u, v in pairs):
            count += 1
    return count


def proper_colorings(g: Multigraph, k: int) -> int:
    """Maps V -> [k] with distinct colors across every edge."""
    if k < 1:
        raise BadParameter("need k >= 1")
    if g.n > 10 or k**g.n > current_budget():
        raise BudgetExceeded(f"{k}^{g.n} colorings is past the cap")
    pairs = {(u, v) for u, v, _ in g.edges}
    count = 0
    for sigma in product(range(k), repeat=g.n):
        if all(sigma[u] != sigma[v] for u, v in pairs):
            count += 1
    return count


def even_induced_subgraphs(g: Multigraph) -> int:
    """Vertex subsets inducing an even number of edge occurrences."""
    if g.n > 20:
        raise BudgetExceeded(f"{g.n} vertices is past the 2^20 subset cap")
    count = 0
    for mask in range(1 << g.n):
        inside = sum(m for u, v, m in g.edges if mask >> u & 1 and mask >> v & 1)
        if inside % 2 == 0:
            count += 1
    return count


def nowhere_zero_flows(g: Multigraph, k: int) -> int:
    """Flows E -> {1..k-1} mod k, conserved at every vertex.

    Defined on simple graphs; the edge orientation (low to high endpoint) is
    immaterial to the count.
    """
    if k < 1:
        raise BadParameter("need k >= 1")
    if not g.is_simple():
        raise NotSimple("the flow count is defined on simple graphs")
    edges = [(u, v) for u, v, _ in g.edges]
    if g.n > 10 or (k - 1) ** max(len(edges), 1) > current_budget():
        raise BudgetExceeded("flow enumeration past the cap")
    count = 0
    for flow in product(range(1, k), repeat=len(edges)):
        net = [0] * g.n
        for (u, v), f in zip(edges, flow):
            net[u] += f
            net[v] -= f
        if all(x % k == 0 for x in net):
            count += 1
    return count


def ordered_max_cuts(g: Multigraph):
    """(max cut weight, number of maps V -> {0,1} attaining it).

    Weight counts edge occurrences with differently-mapped endpoints, so
    loops never contribute; both orientations of a two-sided cut count.
    """
    if g.n > 20:
        raise BudgetExceeded(f"{g.n} vertices is past the 2^20 subset cap")
    best = 0
    count = 0
    for mask in range(1 << g.n):
        w = sum(m for u, v, m in g.edges if (mask >> u & 1) != (mask >> v & 1))
        if w > best:
            best, count = w, 1
        elif w == best:
            count += 1
    return (best, count)


# ---------------------------------------------------------------------------
# Tutte polynomial

def tutte_eval_brute(g: Multigraph, x, y, budget: int | None = None) -> Fraction:
    """Subset expansion: sum over edge-occurrence subsets F of
    (x-1)^(q(F)-Q) (y-1)^(|F|-N+q(F)), with q counting components.

    Both exponents are non-negative for every F, and 0^0 = 1 covers the
    x = 1 and y = 1 lines.
    """
    x = Fraction(x)
    y = Fraction(y)
    if budget is None:
        budget = current_budget()
    occ = list(g.edge_occurrences())
    if 2 ** len(occ) > budget:
        raise BudgetExceeded(f"2^{len(occ)} subsets exceed budget {budget}")
    big_q = len(components(g))
    n = g.n
    total = Fraction(0)
    for mask in range(1 << len(occ)):
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        chosen = 0
        comps = n
        for i, (u, v) in enumerate(occ):
            if mask >> i & 1:
                chosen += 1
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    comps -= 1
        total += (x - 1) ** (comps - big_q) * (y - 1) ** (chosen - n + comps)
    return total


def _delete_occurrence(g: Multigraph, u: int, v: int) -> Multigraph:
    edges = []
    removed = False
    for a, b, m in g.edges:
        if not removed and (a, b) == (min(u, v), max(u, v)):
            removed = True
            if m > 1:
                edges.append((a, b, m - 1))
        else:
            edges.append((a, b, m))
    if not removed:
        raise BadParameter(f"no edge {u}-{v} to delete")
    return Multigraph(g.n, edges)


def _contract_occurrence(g: Multigraph, u: int, v: int) -> Multigraph:
    """Identify u and v and drop one u-v occurrence; parallels become loops."""
    if u == v:
        return _delete_occurrence(g, u, v)
    lo, hi = min(u, v), max(u, v)

    def rename(w):
        if w == hi:
            return lo
        return w - 1 if w > hi else w

    edges = []
    removed = False
    for a, b, m in g.edges:
        if not removed and (a, b) == (lo, hi):
            removed = True
            m -= 1
            if m == 0:
                continue
        edges.append((rename(a), rename(b), m))
    return Multigraph(g.n - 1, edges)


def _is_bridge(g: Multigraph, u: int, v: int) -> bool:
    """True when removing one u-v occurrence separates u from v."""
    if u == v:
        return False
    for a, b, m in g.edges:
        if (a, b) == (min(u, v), max(u, v)):
            if m > 1:
                return False
            break
    return len(components(_delete_occurrence(g, u, v))) > len(components(g))


def tutte_contraction_deletion(g: Multigraph, x, y) -> Fraction:
    """Tutte value by the contraction-deletion recurrence (cross-check)."""
    x = Fraction(x)
    y = Fraction(y)
    memo = {}

    def rec(h):
        if not h.edges:
            return Fraction(1)
        cached = memo.get(h)
        if cached is not None:
            return cached
        u, v, _ = h.edges[0]
        if u == v:
            val = y * rec(_delete_occurrence(h, u, v))
        elif _is_bridge(h, u, v):
            val = x * rec(_contract_occurrence(h, u, v))
        else:
            val = rec(_delete_occurrence(h, u, v)) + rec(_contract_occurrence(h, u, v))
        memo[h] = val
        return val

    return rec(g)


def _tutte_from_z(g: Multigraph, x, y, budget: int | None = None) -> Fraction:
    """(y-1)^(Q-N) n^(-Q) Z_{A(n,y,1)}(G) with n = (x-1)(y-1), which must be
    a positive integer (so y != 1); Q counts the components of G."""
    x = Fraction(x)
    y = Fraction(y)
    n = (x - 1) * (y - 1)
    if n.denominator != 1 or n <= 0:
        raise BadParameter(f"(x-1)(y-1) = {n} is not a positive integer")
    n = int(n)
    _check_budget(n, g.n, budget)
    a = constant_diagonal_matrix(n, y, 1)
    z = z_brute(a, g, budget=budget)
    big_q = len(components(g))
    return (y - 1) ** (big_q - g.n) * Fraction(1, n) ** big_q * z


def verify_tutte_identity(g: Multigraph, x, y, budget: int | None = None) -> bool:
    """Check T(G;x,y) = (y-1)^(Q-N) n^(-Q) Z_{A(n,y,1)}(G) with n=(x-1)(y-1),
    valid whenever n is a positive integer (which already forces y != 1)."""
    return _tutte_from_z(g, x, y, budget) == tutte_eval_brute(g, x, y, budget=budget)


def potts_partition(g: Multigraph, n: int, v, budget: int | None = None) -> Fraction:
    """Direct sum over maps V -> [n] of prod over edges of (1 + v [equal])."""
    if n < 1:
        raise BadParameter("need n >= 1")
    v = Fraction(v)
    if budget is None:
        budget = current_budget()
    if n**g.n > budget:
        raise BudgetExceeded(f"{n}^{g.n} configurations exceed budget {budget}")
    total = Fraction(0)
    for sigma in product(range(n), repeat=g.n):
        mono = sum(m for a, b, m in g.edges if sigma[a] == sigma[b])
        total += (1 + v) ** mono
    return total


def ising_polynomial(g: Multigraph, budget: int | None = None) -> Polynomial:
    """Symbolic two-spin partition function with X on the diagonal."""
    a, _ = matrix_of(NamedModel("ising"))
    val = z_brute(a, g, budget=budget)
    return val if isinstance(val, Polynomial) else Polynomial((Fraction(val),))


# ---------------------------------------------------------------------------
# the invariant table: name -> (parameters in the order they are validated,
# the value read off a partition function, the direct count it must equal);
# both sides are called as f(g, budget=..., **params)


def _z(g: Multigraph, budget, name: str, **params):
    """Z of a named model on g.  The budget is checked before the matrix is
    built; its size is the model's size parameter, else 2."""
    model = NamedModel(name, **params)
    size, _ = _MODEL_PARAMS.get(name, (None, ()))
    _check_budget(params.get(size, 2), g.n, budget)
    a, _ = matrix_of(model)
    return z_brute(a, g, budget=budget)


def _max_cut_z(g: Multigraph, budget):
    """Degree and leading coefficient of the max-cut polynomial."""
    zp = _z(g, budget, "max-cut")
    return zp.degree, zp.leading()


INVARIANTS = {
    "independent-sets": (
        (), lambda g, budget: _z(g, budget, "indep-set"),
        lambda g, budget: independent_sets(g)),
    "proper-colorings": (
        ("k",), lambda g, budget, k: _z(g, budget, "coloring", k=k),
        lambda g, budget, k: proper_colorings(g, k)),
    "even-induced-subgraphs": (
        (), lambda g, budget: Fraction(_z(g, budget, "even-subgraph"), 2) + Fraction(2) ** (g.n - 1),
        lambda g, budget: even_induced_subgraphs(g)),
    "nowhere-zero-flows": (
        ("k",), lambda g, budget, k: _z(g, budget, "flow", k=k) * Fraction(1, k) ** g.n,
        lambda g, budget, k: nowhere_zero_flows(g, k)),
    "ordered-max-cuts": ((), _max_cut_z, lambda g, budget: ordered_max_cuts(g)),
    "potts": (
        ("n", "v"), lambda g, budget, n, v: _z(g, budget, "potts", n=n, v=v), potts_partition),
    "ising": (
        ("v",), lambda g, budget, v: ising_polynomial(g, budget).eval(v + 1),
        lambda g, budget, v: potts_partition(g, 2, v, budget)),
    "tutte": (("x", "y"), _tutte_from_z, tutte_eval_brute),
}

# the graph counts: invariants with no parameter but an integer k
INVARIANT_KINDS = tuple(name for name, (params, _, _) in INVARIANTS.items() if set(params) <= {"k"})


def count_invariant(kind: str, g: Multigraph, k: int | None = None):
    """Dispatch to the oracle named by kind; returns its result record."""
    if kind not in INVARIANT_KINDS:
        raise BadParameter(f"unknown invariant {kind!r}, expected one of {INVARIANT_KINDS}")
    params, _, oracle = INVARIANTS[kind]
    if params and k is None:
        raise BadParameter(f"{kind} needs k")
    return oracle(g, budget=None, **dict.fromkeys(params, k))
