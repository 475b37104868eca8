"""Parsing and serialization of graphs and matrices.

Graph text format, one directive per line, `#` starts a comment:

    v <n>              vertex count, exactly once, first directive
    e <u> <v> [mult]   one edge line per distinct endpoint pair
    p <vertex> <spin>  pinning entry (optional)
    l <index> <vertex> label entry (optional), indices 0..k-1

The JSON alternative mirrors the fields:
``{"vertices": n, "edges": [[u, v, mult], ...], "pinning": {"v": spin},
"labels": [vertex, ...]}``.

Matrix JSON: ``{"ring": "int"|"rat"|"poly", "n": m, "entries": [[...]]}``
with scalars as strings ("3", "1/2") and polynomial entries as coefficient
arrays (index = degree).  Diagonal weights: ``{"ring": ..., "diag": [...]}``.
"""

from __future__ import annotations

import json

from .errors import FormatError, PartfunError
from .evaluator import DiagonalWeights, WeightMatrix
from .graph import Multigraph, Pinning
from .rings import RINGS


def parse_graph(text: str):
    """Parse the text or JSON graph format.

    Returns (graph, pinning, labels); pinning is None when no `p` lines are
    present, labels is a tuple (empty when no `l` lines).
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _graph_from_json_text(text)
    n = None
    edges = []
    pins = {}
    labels = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 2:
                if n is not None:
                    raise FormatError(f"line {lineno}: duplicate vertex-count line")
                n = int(parts[1])
            elif parts[0] == "e" and len(parts) in (3, 4):
                u, v = int(parts[1]), int(parts[2])
                m = int(parts[3]) if len(parts) == 4 else 1
                edges.append((u, v, m))
            elif parts[0] == "p" and len(parts) == 3:
                pins[int(parts[1])] = int(parts[2])
            elif parts[0] == "l" and len(parts) == 3:
                idx = int(parts[1])
                if idx in labels:
                    raise FormatError(f"line {lineno}: duplicate label index {idx}")
                labels[idx] = int(parts[2])
            else:
                raise FormatError(f"line {lineno}: cannot parse {raw!r}")
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        if n is None:
            raise FormatError(f"line {lineno}: the `v <n>` line must come first")
    if n is None:
        raise FormatError("missing `v <n>` line")
    if labels and sorted(labels) != list(range(len(labels))):
        raise FormatError("label indices must be 0..k-1 without gaps")
    try:
        g = Multigraph(n, edges)
        pin = Pinning(pins) if pins else None
    except PartfunError as exc:
        raise FormatError(str(exc)) from exc
    return g, pin, tuple(labels[i] for i in range(len(labels)))


def _load_json(text: str):
    # json.loads also raises a plain ValueError for an integer literal over the
    # digit limit (4300 by default), and RecursionError for too deep nesting
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"bad JSON: {exc}") from exc


def _graph_from_json_text(text: str):
    obj = _load_json(text)
    if not isinstance(obj, dict) or "vertices" not in obj:
        raise FormatError("graph JSON needs a 'vertices' field")
    edges = _json_list(obj.get("edges", []), "edges")
    if not all(isinstance(e, list) and len(e) in (2, 3) for e in edges):
        raise FormatError("bad graph JSON: each edge must be a list [u, v] or [u, v, mult]")
    pins = obj.get("pinning", {})
    if not isinstance(pins, dict):
        raise FormatError("bad graph JSON: 'pinning' must be an object")
    if not all(k.isascii() and k.isdigit() for k in pins):
        raise FormatError(f"bad graph JSON: pinned vertices must be decimal strings, got {list(pins)}")
    try:
        g = Multigraph(_json_int(obj["vertices"]), [tuple(map(_json_int, e)) for e in edges])
        pin = Pinning({int(k): _json_int(v) for k, v in pins.items()}) if pins else None
        labels = tuple(map(_json_int, _json_list(obj.get("labels", []), "labels")))
    except PartfunError as exc:
        raise FormatError(f"bad graph JSON: {exc}") from exc
    return g, pin, labels


def _json_list(value, field):
    if not isinstance(value, list):
        raise FormatError(f"bad graph JSON: '{field}' must be a list")
    return value


def _json_int(value):
    # bool is an int subclass, and a float would be truncated silently
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"bad graph JSON: expected an integer, got {value!r}")
    return value


def dump_graph(g: Multigraph, pin: Pinning | None = None, labels=()) -> str:
    lines = [f"v {g.n}"]
    for u, v, m in g.edges:
        lines.append(f"e {u} {v}" if m == 1 else f"e {u} {v} {m}")
    if pin is not None:
        for v, s in pin.items():
            lines.append(f"p {v} {s}")
    for i, v in enumerate(labels):
        lines.append(f"l {i} {v}")
    return "\n".join(lines) + "\n"


def graph_to_json(g: Multigraph, pin: Pinning | None = None, labels=()) -> dict:
    out = {"vertices": g.n, "edges": [[u, v, m] for u, v, m in g.edges]}
    if pin is not None:
        out["pinning"] = {str(v): s for v, s in pin.items()}
    if labels:
        out["labels"] = list(labels)
    return out


def _ring_of(obj):
    name = obj.get("ring")
    if name not in RINGS:
        raise FormatError(f"unknown ring {name!r} (expected int, rat or poly)")
    return RINGS[name]


def parse_matrix(text: str) -> WeightMatrix:
    return matrix_from_json(_load_json(text))


def matrix_from_json(obj) -> WeightMatrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise FormatError("matrix JSON needs 'ring' and 'entries'")
    ring = _ring_of(obj)
    entries = obj["entries"]
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise FormatError("matrix entries must be a list of rows")
    try:
        rows = [[ring.from_json(v) for v in row] for row in entries]
        mat = WeightMatrix(ring, rows)
    except PartfunError as exc:
        raise FormatError(str(exc)) from exc
    if "n" in obj and obj["n"] != mat.n:
        raise FormatError(f"matrix says n={obj['n']} but has {mat.n} rows")
    return mat


def matrix_to_json(a: WeightMatrix) -> dict:
    return {
        "ring": a.ring.name,
        "n": a.n,
        "entries": [[a.ring.to_json(v) for v in row] for row in a.rows],
    }


def parse_diagonal(text: str) -> DiagonalWeights:
    obj = _load_json(text)
    if not isinstance(obj, dict) or "diag" not in obj:
        raise FormatError("diagonal JSON needs 'ring' and 'diag'")
    ring = _ring_of(obj)
    if not isinstance(obj["diag"], list):
        raise FormatError("diagonal weights must be a list")
    try:
        return DiagonalWeights(ring, [ring.from_json(v) for v in obj["diag"]])
    except PartfunError as exc:
        raise FormatError(str(exc)) from exc


def diagonal_to_json(d: DiagonalWeights) -> dict:
    return {"ring": d.ring.name, "diag": [d.ring.to_json(v) for v in d.diag]}
