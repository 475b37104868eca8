"""Shared pieces of the workloads: the op record, seeded randomness and
graph generators.

Every input is derived from the workload seed and the op index alone, so a
seed always yields the same op sequence, and op i can be built on demand
outside the timed region.
"""

from __future__ import annotations

import functools
import random

from partfun import Multigraph, glue

import oracle


class Op:
    """One closed-loop operation: fn calls the package, check(output) says
    whether the output is right, and tags describe the input.  A tag with
    an int value is summed over ops; any other value is counted."""

    __slots__ = ("kind", "fn", "check", "tags")

    def __init__(self, kind, fn, check, tags=None):
        self.kind = kind
        self.fn = fn
        self.check = check
        self.tags = tags or {}


def equals(expect):
    """A check comparing the output with expect(), computed on first use."""
    memo = []

    def check(out):
        if not memo:
            memo.append(expect())
        return out == memo[0]

    return check


def rng_for(seed, *path) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + path))


class Workload:
    """The ops of one workload, from a module with TEMPLATES, WARMUP and
    build(template, rng, ctx, i).

    Each round of `round` ops holds every template once, in an order
    shuffled per round, so any whole number of rounds has the same mix
    whatever the seed.  Op i is built from the seed and i alone.
    """

    def __init__(self, module):
        self.module = module
        self.round = len(module.TEMPLATES)

    def op(self, seed, i, ctx):
        rnd, slot = divmod(i, self.round)
        order = list(range(self.round))
        rng_for(seed, "round", rnd).shuffle(order)
        return self.module.build(self.module.TEMPLATES[order[slot]], rng_for(seed, "op", i), ctx, i)

    def warmup(self, seed, ctx):
        return [self.module.build(t, rng_for(seed, "warmup", j), ctx, f"w{j}")
                for j, t in enumerate(self.module.WARMUP)]


# ---------------------------------------------------------------------------
# graphs

def cycle_with_chords(rng, n, chords):
    """C_n plus `chords` distinct random chords (low treewidth)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    candidates = [(u, v) for u in range(n) for v in range(u + 2, n) if (u, v) != (0, n - 1)]
    edges += rng.sample(candidates, chords)
    return Multigraph(n, edges)


def grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Multigraph(rows * cols, edges)


def path(n):
    return Multigraph(n, [(i, i + 1) for i in range(n - 1)])


def random_multigraph(rng, n, occurrences, loops):
    """`occurrences` edge occurrences drawn uniformly with repetition, so
    parallel edges (and loops, when allowed) appear."""
    slots = [(u, v) for u in range(n) for v in range(u if loops else u + 1, n)]
    return Multigraph(n, [rng.choice(slots) for _ in range(occurrences)])


def disjoint_union(pieces):
    """Multigraph made of the given multigraphs side by side."""
    edges = []
    base = 0
    for g in pieces:
        edges.extend((u + base, v + base, m) for u, v, m in g.edges)
        base += g.n
    return Multigraph(base, edges)


def relabeled(rng, g):
    """g with its vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Multigraph(g.n, [(perm[u], perm[v], m) for u, v, m in g.edges])


def connection_check(a, basis):
    """Check a connection report: every entry against the reference Z of
    the glued pair, and the PSD and rank-bound facts the theory promises
    for a non-negative matrix."""
    def check(report):
        return (report["entries"] == _reference_entries(a, basis.graphs) and report["psd"] is True
                and report["rank-bound-holds"] is True and report["bound"] == a.n ** basis.k)

    return check


@functools.lru_cache(maxsize=None)
def _reference_entries(a, graphs):
    return [[a.ring.to_json(oracle.z_of(a, glue(x, y).graph)) for y in graphs] for x in graphs]
