"""Command-line front end.

Five verbs: `eval` computes a partition value, `classify` emits the
tractability verdict with its certificate, `invariant` compares a model value
against its independent combinatorial oracle, `connection` reports a
connection matrix with its PSD/rank facts, and `verify` runs the identity
suites.  Output is a single JSON object on stdout; errors go to stderr as
``{"error": <type>, "message": <text>}``.  Exit status: 0 on success, 1 when
a verification fails, otherwise the error's own ``exit_code``: 2 for every
``InputError`` (bad input), 1 for any other ``PartfunError`` (a computation
that could not finish, e.g. over budget).  Any other exception is reported
as an ``InternalError`` with status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .connection import MAX_BASIS_EDGES, MAX_BASIS_VERTICES, connection_report, enumerate_klabeled
from .errors import BadParameter, FormatError, PartfunError
from .evaluator import z_brute
from .fastpath import classify, z_fast
from .formats import parse_diagonal, parse_graph, parse_matrix
from .models import INVARIANTS
from .rings import RAT
from .verify import SUITE_NAMES, run_suite


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of printing usage and exiting."""

    def error(self, message):
        raise FormatError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="partfun", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", help="evaluate a partition value on a graph")
    p.add_argument("--matrix", required=True, help="weight matrix file")
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--weights", help="vertex weight (diagonal) file")
    p.add_argument("--fast", action="store_true",
                   help="use the closed form when the matrix is tractable")
    p.add_argument("--budget", type=int, help="enumeration budget override")

    p = sub.add_parser("classify", help="tractable / sharp-p-hard verdict")
    p.add_argument("--matrix", required=True, help="weight matrix file")

    p = sub.add_parser("invariant", help="model value vs combinatorial oracle")
    p.add_argument("--name", required=True, choices=tuple(INVARIANTS))
    p.add_argument("--graph", required=True, help="graph file")
    p.add_argument("--k", type=int, help="color / flow group size")
    p.add_argument("--n", type=int, help="number of spins (potts)")
    p.add_argument("--v", help="interaction parameter, a rational (potts, ising)")
    p.add_argument("--x", help="first Tutte coordinate, a rational")
    p.add_argument("--y", help="second Tutte coordinate, a rational")
    p.add_argument("--budget", type=int, help="enumeration budget override")

    p = sub.add_parser("connection", help="connection matrix report")
    p.add_argument("--matrix", required=True, help="weight matrix file")
    p.add_argument("--k", required=True, type=int, help="number of labeled vertices")
    p.add_argument("--max-vertices", type=int, default=MAX_BASIS_VERTICES // 2,
                   help="basis graphs use at most this many vertices")
    p.add_argument("--max-edges", type=int, default=MAX_BASIS_EDGES // 3,
                   help="basis graphs use at most this many edge occurrences")
    p.add_argument("--budget", type=int, help="enumeration budget override")

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    p.add_argument("--max-vertices", type=int, default=4,
                   help="graph size cap for the suite corpora")
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _param(args, name: str):
    """Invariant parameter `name`: an int as argparse read it, else a rational."""
    flag = f"--{name}"
    value = getattr(args, name)
    if value is None:
        raise BadParameter(f"missing {flag}")
    if isinstance(value, int):
        return value
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParameter(f"{flag} must be a rational, got {value!r}") from exc


def _cmd_eval(args):
    a = parse_matrix(_read(args.matrix))
    g, pin, _ = parse_graph(_read(args.graph))
    weights = parse_diagonal(_read(args.weights)) if args.weights else None
    if args.fast and weights is None and not pin:
        cls = classify(a)
        if cls.is_tractable:
            return {"value": a.ring.to_json(z_fast(a, g, cls))}, 0
    value = z_brute(a, g, pin=pin, weights=weights, budget=args.budget)
    # mixed-ring weights promote the result into the larger ring
    ring = a.ring
    if weights is not None and weights.ring.contains(ring):
        ring = weights.ring
    return {"value": ring.to_json(ring.coerce(value))}, 0


def _cmd_classify(args):
    a = parse_matrix(_read(args.matrix))
    return classify(a).to_json(), 0


def _cmd_invariant(args):
    g, pin, _ = parse_graph(_read(args.graph))
    if pin:
        raise BadParameter("invariant comparisons take unpinned graphs")
    names, model, count = INVARIANTS[args.name]
    params = {name: _param(args, name) for name in names}
    z = model(g, budget=args.budget, **params)
    oracle = count(g, budget=args.budget, **params)
    if isinstance(z, tuple):
        # ordered max cuts: (degree, leading coefficient) of Z against
        # (max cut weight, number of maps attaining it)
        z_json = {"degree": z[0], "leading": RAT.to_json(z[1])}
        oracle_json = {"weight": oracle[0], "count": RAT.to_json(oracle[1])}
    else:
        z_json, oracle_json = RAT.to_json(z), RAT.to_json(oracle)
    return {"z": z_json, "oracle": oracle_json, "agree": z == oracle}, 0


def _cmd_connection(args):
    a = parse_matrix(_read(args.matrix))
    basis = enumerate_klabeled(args.k, args.max_vertices, args.max_edges)
    return connection_report(a, basis, budget=args.budget), 0


def _cmd_verify(args):
    results = run_suite(args.suite, args.max_vertices)
    passed = all(r["status"] == "pass" for r in results)
    payload = {
        "suite": args.suite,
        "max-vertices": args.max_vertices,
        "results": results,
        "passed": passed,
    }
    return payload, 0 if passed else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "invariant": _cmd_invariant,
    "connection": _cmd_connection,
    "verify": _cmd_verify,
}


def _emit_error(name: str, message: str) -> None:
    payload = {"error": name, "message": message}
    print(json.dumps(payload, separators=(",", ":")), file=sys.stderr)


def run(argv=None) -> int:
    """Parse argv, run one command, print its JSON; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "budget", None) is not None and args.budget < 1:
            raise BadParameter("--budget must be positive")
        payload, status = _COMMANDS[args.verb](args)
    except PartfunError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return exc.exit_code
    except Exception as exc:
        # a fault of the program, not of the input: one JSON line, no traceback
        _emit_error("InternalError", f"{type(exc).__name__}: {exc}")
        return 1
    print(json.dumps(payload, separators=(",", ":")))
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
