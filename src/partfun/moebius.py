"""Partition-lattice algebra: enumerating partitions of a vertex set, the
Moebius function of the refinement order, and the injective partition
functions built from it.

The refinement order is fixed as P <= Q iff P refines Q, so the finest
partition (all singletons) is the bottom of the lattice and the one-block
partition is the top.  mu is the unique integer function with
sum_{Q <= P} mu(Q) = 1 when P is all-singletons and 0 otherwise.
"""

from __future__ import annotations

from math import factorial, perm

from .errors import BadParameter, BudgetExceeded, TooLarge
from .evaluator import WeightMatrix, _exact_z, current_budget, z_brute
from .graph import Multigraph, VertexPartition, quotient

# Bell numbers explode; partitions are only ever enumerated up to this size.
BELL_GUARD = 12


def enumerate_partitions(k: int):
    """All partitions of {0..k-1} as restricted-growth strings, lexicographic."""
    if k < 0:
        raise BadParameter("ground set size must be >= 0")
    if k > BELL_GUARD:
        raise TooLarge(f"refusing to enumerate partitions of {k} > {BELL_GUARD} elements")
    if k == 0:
        return [VertexPartition(0, [])]
    out = []
    rgs = [0] * k

    def extend(i, top):
        if i == k:
            out.append(VertexPartition.from_rgs(rgs))
            return
        for b in range(top + 2):
            rgs[i] = b
            extend(i + 1, max(top, b))

    extend(1, 0)
    return out


def _mu_one_block(s: int) -> int:
    """mu of a one-block partition of an s-element set, (-1)^(s-1) (s-1)!."""
    return (-1) ** (s - 1) * factorial(s - 1)


class MobiusTable:
    """mu(P) for every partition P of a fixed ground set."""

    __slots__ = ("k", "table")

    def __init__(self, k, table):
        self.k = k
        self.table = dict(table)

    def __getitem__(self, p: VertexPartition) -> int:
        return self.table[p]

    def __len__(self):
        return len(self.table)

    def items(self):
        return self.table.items()


def mobius(k: int) -> MobiusTable:
    """Moebius table for partitions of {0..k-1}; mu multiplies over blocks."""
    table = {}
    for p in enumerate_partitions(k):
        mu = 1
        for b in p.blocks:
            mu *= _mu_one_block(len(b))
        table[p] = mu
    return MobiusTable(k, table)


def y_injective(a: WeightMatrix, g: Multigraph, mode: str = "brute", budget: int | None = None):
    """Partition function restricted to injective spin assignments.

    mode "brute" sums the edge products over all injective maps V -> spins
    (zero when |V| exceeds the spin count); mode "inversion" computes the
    Moebius-weighted sum of ordinary partition functions over quotients.
    """
    a.require_symmetric()
    ring = a.ring
    if mode == "brute":
        if budget is None:
            budget = current_budget()
        count = perm(a.n, g.n)
        if count > budget:
            raise BudgetExceeded(f"{count} injective maps exceed budget {budget}")
        if not count:  # more vertices than spins: no map, but many injective prefixes
            return ring.zero
        # a 0/1 factor on each vertex pair zeroes every non-injective prefix;
        # on an edge, the edge's table with its diagonal zeroed does that
        differ = [[int(i != j) for j in range(a.n)] for i in range(a.n)]
        apart = [[v if i != j else ring.zero for j, v in enumerate(row)] for i, row in enumerate(a.rows)]
        mult = {(u, v): k for u, v, k in g.edges}
        pairs = [((u, v), apart, mult.pop((u, v))) if (u, v) in mult else ((u, v), differ, 1)
                 for v in range(g.n) for u in range(v)]
        return _exact_z(a.n, g.n, pairs + [((u, u), a.rows, k) for (u, _), k in mult.items()], ring, {})
    if mode == "inversion":
        if g.n > BELL_GUARD:
            raise TooLarge(f"inversion needs |V| <= {BELL_GUARD}, got {g.n}")
        table = mobius(g.n)
        total = ring.zero
        for p, mu in table.items():
            total = total + ring.coerce(mu) * z_brute(a, quotient(g, p), budget=budget)
        return total
    raise BadParameter(f"unknown mode {mode!r}, expected 'brute' or 'inversion'")


def zeta_check(a: WeightMatrix, g: Multigraph):
    """(Z_A(G), sum over partitions P of Y_A(G/P)); the two must agree."""
    if g.n > BELL_GUARD:
        raise TooLarge(f"zeta sum needs |V| <= {BELL_GUARD}, got {g.n}")
    lhs = z_brute(a, g)
    rhs = a.ring.zero
    for p in enumerate_partitions(g.n):
        q = quotient(g, p)
        if q.n > a.n:
            # no injective map into the spin set
            continue
        rhs = rhs + y_injective(a, q, mode="inversion")
    return (lhs, rhs)


def schrijver_condition(a: WeightMatrix, g: Multigraph):
    """sum_P mu(P) Z_A(G/P); vanishes whenever |V(G)| exceeds the spin count."""
    if g.n > BELL_GUARD:
        raise TooLarge(f"condition sum needs |V| <= {BELL_GUARD}, got {g.n}")
    return y_injective(a, g, mode="inversion")
