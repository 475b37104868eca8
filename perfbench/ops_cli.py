"""cli: the partfun process end to end, one child at a time.

Interpreter start plus importing partfun is most of a short command, so
import-time, argument parsing and JSON output changes show here and nowhere
else.  About one command in ten is a malformed input file, which must exit
2 with the error JSON on stderr.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from statistics import median
from time import perf_counter

from partfun import INT, POLY, RAT, X, DiagonalWeights, Pinning, WeightMatrix, enumerate_klabeled
from partfun.cli import run
from partfun.formats import diagonal_to_json, dump_graph, matrix_to_json

import oracle
from common import (
    Op,
    connection_check,
    cycle_with_chords,
    grid,
    path,
    random_multigraph,
)

ONE = POLY.one
MATRICES = {
    "indep": WeightMatrix(INT, [[1, 1], [1, 0]]),
    "col3": WeightMatrix(INT, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    "signed": WeightMatrix(INT, [[1, 1], [1, -1]]),
    "potts": WeightMatrix(RAT, [[Fraction(1, 2) if i == j else 1 for j in range(3)] for i in range(3)]),
    "maxcut": WeightMatrix(POLY, [[ONE, X], [X, ONE]]),
}
ROTATING = ("even-induced-subgraphs", "nowhere-zero-flows", "ordered-max-cuts")
TEMPLATES = (
    ("eval", "indep"), ("eval", "col3"), ("eval", "signed"), ("eval", "potts"), ("eval", "maxcut"),
    ("eval-fast", "int"), ("eval-fast", "rat"),
    ("classify", "rank-one"), ("classify", "rank-two"),
    ("invariant", "independent-sets"), ("invariant", "proper-colorings"), ("invariant", "potts"),
    ("invariant", "ising"), ("invariant", "tutte"), ("invariant", None), ("invariant", None),
    ("connection", None), ("verify", None),
    ("malformed", "graph"), ("malformed", "matrix"),
)
WARMUP = (TEMPLATES[0], TEMPLATES[7])
VERBS = ("eval", "classify", "invariant", "connection", "verify")
PROBES = 5


def _python(argv, ctx):
    env = dict(os.environ, PYTHONPATH=ctx["src"])
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def command(args, ctx):
    """Run `python -m partfun.cli args` with the checkout's src on the path;
    returns (exit status, stdout, stderr)."""
    return _python(["-m", "partfun.cli", *args], ctx)


def in_process(args):
    """The same command through partfun.cli.run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = run(args)
    return status, out.getvalue(), err.getvalue()


def _write(ctx, name, text):
    path_ = os.path.join(ctx["workdir"], name)
    with open(path_, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path_


def _ok_json(check):
    """Check a successful command: exit 0 and a JSON object that passes."""
    def outer(out):
        status, stdout, stderr = out
        return status == 0 and stderr == "" and check(json.loads(stdout))

    return outer


def _eval(rng, ctx, i, name):
    a = MATRICES[name]
    g = cycle_with_chords(rng, 7, 2) if a.n == 2 else random_multigraph(rng, 6, 9, loops=False)
    pin = Pinning({0: rng.randrange(a.n)}) if name in ("potts", "signed") else None
    args = ["eval", "--matrix", _write(ctx, f"m{i}.json", json.dumps(matrix_to_json(a))),
            "--graph", _write(ctx, f"g{i}.txt", dump_graph(g, pin))]
    weights = None
    if name == "maxcut":
        weights = DiagonalWeights(POLY, [X + 1, ONE * 2])
        args += ["--weights", _write(ctx, f"d{i}.json", json.dumps(diagonal_to_json(weights)))]
    want = lambda: {"value": a.ring.to_json(oracle.z_of(a, g, pin, weights))}  # noqa: E731
    return args, _ok_json(lambda got: got == want())


def _eval_fast(rng, ctx, i, ring_name):
    if ring_name == "int":
        u = [rng.randint(1, 3) for _ in range(3)]
        factor, ring, g = ("outer", u, 1), INT, grid(3, 30)
    else:
        u = [Fraction(rng.randint(1, 4), rng.randint(2, 5)) for _ in range(2)]
        factor, ring, g = ("outer", u, Fraction(1)), RAT, path(120)
    a = WeightMatrix(ring, [[x * y for y in u] for x in u])
    args = ["eval", "--fast", "--matrix", _write(ctx, f"m{i}.json", json.dumps(matrix_to_json(a))),
            "--graph", _write(ctx, f"g{i}.txt", dump_graph(g))]
    return args, _ok_json(lambda got: got == {"value": ring.to_json(oracle.rank_one_value(ring, g, factor))})


def _classify(rng, ctx, i, shape):
    n = 3
    u = [rng.randint(1, 4) for _ in range(n)]
    rows = [[x * y for y in u] for x in u]
    if shape == "rank-two":
        rows[0][0] += 1
    a = WeightMatrix(INT, rows)
    verdict = "tractable" if shape == "rank-one" else "sharp-p-hard"
    args = ["classify", "--matrix", _write(ctx, f"m{i}.json", json.dumps(matrix_to_json(a)))]
    return args, _ok_json(lambda got: got["verdict"] == verdict and "certificate" in got)


def _invariant(rng, ctx, i, name):
    name = name or rng.choice(ROTATING)
    g = random_multigraph(rng, 6, 8, loops=False)
    g = type(g)(g.n, [(u, v) for u, v, _ in g.edges])
    args = ["invariant", "--name", name, "--graph", _write(ctx, f"g{i}.txt", dump_graph(g))]
    want = None
    if name == "independent-sets":
        want = lambda: str(oracle.z_of(MATRICES["indep"], g))  # noqa: E731
    elif name == "proper-colorings":
        args += ["--k", "3"]
        want = lambda: str(oracle.z_of(MATRICES["col3"], g))  # noqa: E731
    elif name == "potts":
        args += ["--n", "3", "--v=-1/2"]
        want = lambda: RAT.to_json(oracle.z_of(MATRICES["potts"], g))  # noqa: E731
    elif name == "ising":
        args += ["--v", "1"]
    elif name == "tutte":
        args += ["--x", "2", "--y", "2"]
        want = lambda: RAT.to_json(oracle.tutte_value(g, 2, 2))  # noqa: E731
    elif name == "nowhere-zero-flows":
        args += ["--k", "3"]
    return args, _ok_json(lambda got: got["agree"] is True and (want is None or got["z"] == want()))


def _connection(rng, ctx, i, _variant):
    a = MATRICES[rng.choice(("indep", "col3"))]
    args = ["connection", "--matrix", _write(ctx, f"m{i}.json", json.dumps(matrix_to_json(a))),
            "--k", "1", "--max-vertices", "2", "--max-edges", "2"]
    return args, _ok_json(connection_check(a, enumerate_klabeled(1, 2, 2)))


def _verify(rng, ctx, i, _variant):
    args = ["verify", "--suite", "moebius", "--max-vertices", "2"]
    return args, _ok_json(lambda got: got["passed"] is True and all(r["status"] == "pass" for r in got["results"]))


def _malformed(rng, ctx, i, what):
    if what == "graph":
        text = rng.choice(("v 3\ne 0 x\n", "e 0 1\n", "v 2\ne 0 5\n", '{"edges": []}'))
        args = ["eval", "--matrix", _write(ctx, f"m{i}.json", json.dumps(matrix_to_json(MATRICES["indep"]))),
                "--graph", _write(ctx, f"g{i}.txt", text)]
    else:
        text = rng.choice(('{"ring": "int"', '{"ring": "real", "entries": [["1"]]}',
                           '{"ring": "int", "entries": [["1", "2"]]}'))
        args = ["classify", "--matrix", _write(ctx, f"m{i}.json", text)]

    def check(out):
        status, stdout, stderr = out
        err = json.loads(stderr.strip().splitlines()[-1])
        return status == 2 and stdout == "" and set(err) == {"error", "message"} and err["error"] == "FormatError"

    return args, check


BUILDERS = {
    "eval": _eval, "eval-fast": _eval_fast, "classify": _classify, "invariant": _invariant,
    "connection": _connection, "verify": _verify,
    "malformed": _malformed,
}


class CommandOp(Op):
    """A partfun command: run as a child process, or through cli.run in
    this process when ctx["in_process"] is set (the traced run: spans
    cannot cross into a child)."""

    __slots__ = ("args",)

    def __init__(self, kind, args, check, ctx):
        fn = (lambda: in_process(args)) if ctx.get("in_process") else (lambda: command(args, ctx))
        super().__init__(kind, fn, check, {"verb": args[0], "malformed": kind == "malformed"})
        self.args = args


def build(template, rng, ctx, i):
    kind, variant = template
    return CommandOp(kind, *BUILDERS[kind](rng, ctx, i, variant), ctx)


def _wall_ms(argv, ctx):
    start = perf_counter()
    _python(argv, ctx)
    return (perf_counter() - start) * 1e3


def process_metrics(ctx, runs, tally):
    """cli.* metrics from the traced run's cli ops and their untraced
    results: bare interpreter start, the import of partfun.cli on top of it,
    in-process medians per verb, and one child per op for output size and
    exit codes (the children are checked and counted too)."""
    bare = median(_wall_ms(["-c", "pass"], ctx) for _ in range(PROBES))
    imported = median(_wall_ms(["-c", "import partfun.cli"], ctx) for _ in range(PROBES))
    verbs = defaultdict(list)
    stdout_bytes = unexpected = 0
    for op, (elapsed, _, _) in runs:
        if op.kind != "malformed":
            verbs[op.args[0]].append(elapsed * 1e3)
        start = perf_counter()
        out = command(op.args, ctx)
        seconds = perf_counter() - start
        stdout_bytes += len(out[1].encode())
        unexpected += out[0] != (2 if op.kind == "malformed" else 0)
        try:
            ok = bool(op.check(out))
        except Exception:  # a malformed output is a failed op, counted in the tally
            ok = False
        tally.add(op, (seconds, ok, None if ok else f"{op.kind}: child gave {out}"))
    metrics = {f"cli.verb.{verb}_ms": median(verbs[verb]) if verbs[verb] else 0.0 for verb in VERBS}
    metrics.update({"cli.interpreter_ms": bare, "cli.import_ms": imported - bare,
                    "cli.stdout_bytes": stdout_bytes, "cli.unexpected_exit": unexpected})
    return metrics
