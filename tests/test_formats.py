import json

import pytest

from partfun import corpus
from partfun.errors import FormatError
from partfun.evaluator import DiagonalWeights, WeightMatrix
from partfun.formats import (
    diagonal_to_json,
    dump_graph,
    graph_to_json,
    matrix_to_json,
    parse_diagonal,
    parse_graph,
    parse_matrix,
)
from partfun.graph import Multigraph, Pinning
from partfun.rings import INT, POLY, RAT, X


def test_parse_graph_text():
    text = """
    # a 2-path with a doubled edge and a pin
    v 3
    e 0 1 2
    e 1 2
    p 2 0
    l 0 1
    """
    g, pin, labels = parse_graph(text)
    assert g == Multigraph(3, [(0, 1, 2), (1, 2)])
    assert pin == Pinning({2: 0})
    assert labels == (1,)


def test_parse_graph_json():
    g, pin, labels = parse_graph(json.dumps(
        {"vertices": 2, "edges": [[0, 1, 3]], "pinning": {"0": 1}, "labels": [1]}
    ))
    assert g == Multigraph(2, [(0, 1, 3)])
    assert pin == Pinning({0: 1})
    assert labels == (1,)


@pytest.mark.parametrize("bad", [
    "",                      # no v line
    "e 0 1\nv 2",            # edge before v
    "v 2\nv 2",              # duplicate v
    "v 2\ne 0 1 2 3 4",      # too many fields
    "v 2\nq 1",              # unknown directive
    "v 2\ne 0 two",          # non-integer
    "v 1\nl 1 0",            # label index gap
    "{not json",             # broken json
    '{"edges": []}',         # json missing vertices
])
def test_parse_graph_rejects(bad):
    with pytest.raises(FormatError):
        parse_graph(bad)


def test_graph_round_trips():
    pins = [None, Pinning({0: 1})]
    for g in corpus.connected_multigraphs(3, 3):
        for pin in pins:
            again, pin2, labels = parse_graph(dump_graph(g, pin))
            assert again == g and pin2 == pin and labels == ()
            again, pin2, _ = parse_graph(json.dumps(graph_to_json(g, pin)))
            assert again == g and pin2 == pin


def test_matrix_round_trips():
    mats = [
        WeightMatrix(INT, [[1, -2], [-2, 0]]),
        WeightMatrix(RAT, [[0, 1], [1, 0]]).cast(RAT),
        WeightMatrix(POLY, [[X**2, POLY.one], [POLY.one, X]]),
    ]
    for a in mats:
        again = parse_matrix(json.dumps(matrix_to_json(a)))
        assert again == a and again.ring is a.ring


@pytest.mark.parametrize("bad", [
    '{"ring": "int"}',
    '{"ring": "complex", "entries": [["1"]]}',
    '{"ring": "int", "entries": [["1/2"]]}',
    '{"ring": "int", "entries": "nope"}',
    '{"ring": "int", "n": 3, "entries": [["1"]]}',
    '{"ring": "int", "entries": [["1", "2"]]}',
    "[]",
])
def test_parse_matrix_rejects(bad):
    with pytest.raises(FormatError):
        parse_matrix(bad)


def test_diagonal_round_trip():
    d = DiagonalWeights(RAT, [1, 2])
    again = parse_diagonal(json.dumps(diagonal_to_json(d)))
    assert again == d
    with pytest.raises(FormatError):
        parse_diagonal('{"ring": "rat"}')


@pytest.mark.parametrize("bad", [
    {"vertices": 2.7},
    {"vertices": True},
    {"vertices": "2"},
    {"vertices": 2, "edges": [[0, 1, True]]},
    {"vertices": 2, "edges": [[0, 1.0]]},
    {"vertices": 2, "edges": [[0, "1"]]},
    {"vertices": 2, "edges": [[0, 1, 2.5]]},
    {"vertices": 2, "edges": [[0]]},
    {"vertices": 2, "edges": ["01"]},
    {"vertices": 2, "edges": "01"},
    {"vertices": 2, "pinning": [1, 2]},
    {"vertices": 2, "pinning": None},
    {"vertices": 2, "pinning": {"0": "1"}},
    {"vertices": 2, "pinning": {"0": 1.0}},
    {"vertices": 2, "pinning": {"0": False}},
    {"vertices": 2, "pinning": {"x": 1}},
    {"vertices": 2, "pinning": {"-1": 1}},
    {"vertices": 2, "labels": [0.5]},
    {"vertices": 2, "labels": [True]},
    {"vertices": 2, "labels": "0"},
])
def test_graph_json_accepts_only_true_integers(bad):
    with pytest.raises(FormatError):
        parse_graph(json.dumps(bad))


def test_diagonal_must_be_a_list():
    for bad in ('{"ring": "int", "diag": 5}', '{"ring": "int", "diag": "12"}', '{"ring": "int", "diag": {"0": 1}}'):
        with pytest.raises(FormatError):
            parse_diagonal(bad)


BIG = "1" + "0" * 5000


def test_json_integer_literals_past_the_digit_limit_are_format_errors():
    # json.loads raises a plain ValueError, not JSONDecodeError, for these
    cases = [
        (parse_graph, '{"vertices": %s}' % BIG),
        (parse_graph, '{"vertices": 2, "edges": [[0, 1, %s]]}' % BIG),
        (parse_matrix, '{"ring": "int", "entries": [[%s, 1], [1, 1]]}' % BIG),
        (parse_diagonal, '{"ring": "int", "diag": [1, %s]}' % BIG),
    ]
    for parse, text in cases:
        with pytest.raises(FormatError, match="^bad JSON: "):
            parse(text)


def test_deeply_nested_json_is_a_format_error():
    for parse in (parse_graph, parse_matrix, parse_diagonal):
        with pytest.raises(FormatError, match="^bad JSON: "):
            parse("{" + '"a":[' * 100000)
