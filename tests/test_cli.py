import json

import pytest

from partfun import cli
from partfun.cli import run

RANK1 = '{"ring": "int", "entries": [["1", "2"], ["2", "4"]]}'
INDEP = '{"ring": "int", "entries": [["1", "1"], ["1", "0"]]}'
MAXCUT = '{"ring": "poly", "entries": [[["1"], ["0", "1"]], [["0", "1"], ["1"]]]}'
TRIANGLE = "v 3\ne 0 1\ne 0 2\ne 1 2\n"
P3 = "v 3\ne 0 1\ne 1 2\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out.strip(), captured.err.strip()


def test_eval_fast_golden(files, capsys):
    code = run(["eval", "--matrix", files("a.json", RANK1),
                "--graph", files("g.txt", TRIANGLE), "--fast"])
    out, err = out_of(capsys)
    assert code == 0
    assert out == '{"value":"125"}'
    assert err == ""


def test_eval_brute_matches_fast(files, capsys):
    m = files("a.json", RANK1)
    g = files("g.txt", TRIANGLE)
    assert run(["eval", "--matrix", m, "--graph", g]) == 0
    out, _ = out_of(capsys)
    assert json.loads(out) == {"value": "125"}


def test_eval_fast_falls_back_on_hard_matrix(files, capsys):
    code = run(["eval", "--matrix", files("a.json", INDEP),
                "--graph", files("g.txt", P3), "--fast"])
    out, _ = out_of(capsys)
    assert code == 0
    assert json.loads(out) == {"value": "5"}


def test_eval_honors_pinning_and_weights(files, capsys):
    g = files("g.txt", "v 2\ne 0 1\np 0 0\n")
    d = files("d.json", '{"ring": "int", "diag": ["10", "100"]}')
    code = run(["eval", "--matrix", files("a.json", INDEP), "--graph", g,
                "--weights", d])
    out, _ = out_of(capsys)
    assert code == 0
    # vertex 0 pinned to spin 0: 10 * A[0][0] + 100 * A[0][1]
    assert json.loads(out) == {"value": "110"}


def test_eval_polynomial_output(files, capsys):
    code = run(["eval", "--matrix", files("c.json", MAXCUT),
                "--graph", files("g.txt", "v 2\ne 0 1\n")])
    out, _ = out_of(capsys)
    assert code == 0
    assert json.loads(out) == {"value": ["2", "2"]}


def test_classify_verdicts(files, capsys):
    assert run(["classify", "--matrix", files("a.json", RANK1)]) == 0
    out, _ = out_of(capsys)
    report = json.loads(out)
    assert report["verdict"] == "tractable"
    assert report["certificate"]["blocks"][0]["rank"] == 1

    assert run(["classify", "--matrix", files("b.json", INDEP)]) == 0
    out, _ = out_of(capsys)
    report = json.loads(out)
    assert report["verdict"] == "sharp-p-hard"
    assert "offending-block" in report["certificate"]


def test_invariant_golden(files, capsys):
    code = run(["invariant", "--name", "independent-sets",
                "--graph", files("g.txt", P3)])
    out, err = out_of(capsys)
    assert code == 0
    assert out == '{"z":"5","oracle":"5","agree":true}'
    assert err == ""


def test_invariant_colorings(files, capsys):
    code = run(["invariant", "--name", "proper-colorings", "--k", "3",
                "--graph", files("g.txt", TRIANGLE)])
    out, _ = out_of(capsys)
    assert code == 0
    assert json.loads(out) == {"z": "6", "oracle": "6", "agree": True}


def test_invariant_even_subgraphs(files, capsys):
    code = run(["invariant", "--name", "even-induced-subgraphs",
                "--graph", files("g.txt", "v 2\ne 0 1\n")])
    out, _ = out_of(capsys)
    assert code == 0
    assert json.loads(out) == {"z": "3", "oracle": "3", "agree": True}


def test_invariant_flows(files, capsys):
    square = "v 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n"
    code = run(["invariant", "--name", "nowhere-zero-flows", "--k", "2",
                "--graph", files("g.txt", square)])
    out, _ = out_of(capsys)
    assert code == 0
    assert json.loads(out) == {"z": "1", "oracle": "1", "agree": True}


def test_invariant_max_cut(files, capsys):
    code = run(["invariant", "--name", "ordered-max-cuts",
                "--graph", files("g.txt", TRIANGLE)])
    out, _ = out_of(capsys)
    assert code == 0
    assert json.loads(out) == {
        "z": {"degree": 2, "leading": "6"},
        "oracle": {"weight": 2, "count": "6"},
        "agree": True,
    }


def test_invariant_potts_and_ising(files, capsys):
    g = files("g.txt", TRIANGLE)
    # the = form keeps argparse from reading a negative rational as a flag
    code = run(["invariant", "--name", "potts", "--n", "2", "--v=-1/2",
                "--graph", g])
    out, _ = out_of(capsys)
    assert code == 0
    assert json.loads(out)["agree"] is True

    code = run(["invariant", "--name", "ising", "--v", "1", "--graph", g])
    out, _ = out_of(capsys)
    assert code == 0
    # 2 X^3 + 6 X at X = 2
    assert json.loads(out) == {"z": "28", "oracle": "28", "agree": True}


def test_invariant_tutte(files, capsys):
    code = run(["invariant", "--name", "tutte", "--x", "3", "--y", "2",
                "--graph", files("g.txt", TRIANGLE)])
    out, _ = out_of(capsys)
    assert code == 0
    report = json.loads(out)
    # T(K3; 3, 2) = 9 + 3 + 2
    assert report == {"z": "14", "oracle": "14", "agree": True}


def test_invariant_missing_parameter_exits_2(files, capsys):
    code = run(["invariant", "--name", "proper-colorings",
                "--graph", files("g.txt", P3)])
    out, err = out_of(capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "BadParameter"


def test_connection_report(files, capsys):
    code = run(["connection", "--matrix", files("a.json", INDEP), "--k", "1",
                "--max-vertices", "2", "--max-edges", "2"])
    out, _ = out_of(capsys)
    assert code == 0
    report = json.loads(out)
    assert report["arity"] == 1
    assert report["psd"] is True
    assert report["rank-bound-holds"] is True
    assert report["bound"] == 2


def test_verify_suite(capsys):
    code = run(["verify", "--suite", "flows", "--max-vertices", "3"])
    out, _ = out_of(capsys)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(r["status"] == "pass" for r in report["results"])


def test_parse_errors_exit_2(files, capsys):
    cases = [
        ["eval", "--matrix", "/nonexistent.json", "--graph", "/nonexistent.txt"],
        ["eval", "--graph", "g.txt"],
        ["nonesuch"],
        ["verify", "--suite", "nonesuch"],
        [],
        ["classify", "--matrix", files("bad.json", "{broken")],
        ["classify", "--matrix", files("asym.json",
                                       '{"ring":"int","entries":[["0","1"],["2","0"]]}')],
    ]
    for argv in cases:
        code = run(argv)
        out, err = out_of(capsys)
        assert code == 2, argv
        assert out == ""
        assert json.loads(err)["error"]


def test_asymmetric_classify_exits_2(files, capsys):
    code = run(["classify", "--matrix",
                files("asym.json", '{"ring":"int","entries":[["0","1"],["2","0"]]}')])
    _, err = out_of(capsys)
    assert code == 2
    assert json.loads(err)["error"] == "NotSymmetric"


def test_budget_exhaustion_exits_1(files, capsys):
    code = run(["eval", "--matrix", files("a.json", INDEP),
                "--graph", files("g.txt", P3), "--budget", "2"])
    out, err = out_of(capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_budget_env_variable(files, capsys, monkeypatch):
    monkeypatch.setenv("PARTFUN_BUDGET", "2")
    code = run(["eval", "--matrix", files("a.json", INDEP),
                "--graph", files("g.txt", P3)])
    _, err = out_of(capsys)
    assert code == 1
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_malformed_inputs_exit_2_with_one_error_line(files, capsys):
    matrix = files("a.json", INDEP)
    graph = files("g.txt", P3)
    cases = [
        (["eval", "--matrix", matrix, "--graph", files("g1.json", '{"vertices": 2.7, "edges": []}')], "FormatError"),
        (["eval", "--matrix", matrix, "--graph", files("g2.json", '{"vertices": true}')], "FormatError"),
        (["eval", "--matrix", matrix, "--graph", files("g3.json", '{"vertices": 2, "edges": [[0, 1, true]]}')],
         "FormatError"),
        (["eval", "--matrix", matrix, "--graph", files("g4.json", '{"vertices": 2, "pinning": [1, 2]}')],
         "FormatError"),
        (["eval", "--matrix", matrix, "--graph", files("g5.json", '{"vertices": 2, "labels": ["0"]}')],
         "FormatError"),
        (["eval", "--matrix", matrix, "--graph", graph, "--weights", files("d.json", '{"ring":"int","diag":5}')],
         "FormatError"),
        (["eval", "--matrix", matrix, "--graph", graph, "--budget", "-3"], "BadParameter"),
        (["eval", "--matrix", matrix, "--graph", graph, "--budget", "0"], "BadParameter"),
        (["invariant", "--name", "independent-sets", "--graph", graph, "--budget", "0"], "BadParameter"),
        (["connection", "--matrix", matrix, "--k", "0", "--budget", "-1"], "BadParameter"),
    ]
    for argv, error in cases:
        code = run(argv)
        out, err = out_of(capsys)
        assert code == 2, argv
        assert out == ""
        assert len(err.splitlines()) == 1, err
        payload = json.loads(err)
        assert set(payload) == {"error", "message"} and payload["error"] == error, argv
    run(["eval", "--matrix", matrix, "--graph", graph, "--budget", "0"])
    assert json.loads(out_of(capsys)[1])["message"] == "--budget must be positive"


def test_graph_json_with_integers_still_evaluates(files, capsys):
    graph = files("g.json", '{"vertices": 3, "edges": [[0, 1], [1, 2, 2]], "pinning": {"1": 0}, "labels": [2]}')
    code = run(["eval", "--matrix", files("a.json", INDEP), "--graph", graph, "--budget", "4"])
    out, err = out_of(capsys)
    assert code == 0 and err == ""
    assert out == '{"value":"4"}'


def test_big_integer_literals_exit_2_with_one_error_line(files, capsys):
    big = "1" + "0" * 5000
    matrix = files("a.json", INDEP)
    graph = files("g.txt", P3)
    cases = [
        ["eval", "--matrix", matrix, "--graph", files("g.json", '{"vertices": %s}' % big)],
        ["classify", "--matrix", files("b.json", '{"ring": "int", "entries": [[%s, 1], [1, 1]]}' % big)],
        ["eval", "--matrix", matrix, "--graph", graph,
         "--weights", files("d.json", '{"ring": "int", "diag": [%s, 1]}' % big)],
    ]
    for argv in cases:
        code = run(argv)
        out, err = out_of(capsys)
        assert code == 2, argv
        assert out == ""
        assert len(err.splitlines()) == 1, err
        payload = json.loads(err)
        assert payload["error"] == "FormatError" and payload["message"].startswith("bad JSON: "), argv


def test_internal_errors_exit_1_without_a_traceback(files, capsys, monkeypatch):
    def broken(args):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(cli._COMMANDS, "classify", broken)
    code = run(["classify", "--matrix", files("a.json", INDEP)])
    out, err = out_of(capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert json.loads(err) == {"error": "InternalError", "message": "ZeroDivisionError: division by zero"}


THREE_COLORINGS = '{"ring": "int", "entries": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]]}'


def test_connection_budget_counts_basis_graphs_not_glued_pairs(files, capsys):
    # basis graphs have at most 2 vertices: 3^2 configurations per pinned
    # evaluation, although a glued pair would have 4 vertices (3^4 = 81)
    matrix = files("a.json", THREE_COLORINGS)
    argv = ["connection", "--matrix", matrix, "--k", "0", "--max-vertices", "2", "--max-edges", "2"]
    assert run(argv + ["--budget", "9"]) == 0
    out, err = out_of(capsys)
    assert err == ""
    assert json.loads(out)["psd"] is True
    assert run(argv + ["--budget", "8"]) == 1
    out, err = out_of(capsys)
    assert out == ""
    assert json.loads(err) == {"error": "BudgetExceeded",
                               "message": "3^2 configurations exceed the budget 8"}


def test_connection_budget_covers_the_label_maps(files, capsys):
    # k = 6 labels and no free vertex: 30^6 label maps, refused before any
    # evaluation under the default budget
    ones = json.dumps({"ring": "int", "entries": [["1"] * 30 for _ in range(30)]})
    code = run(["connection", "--matrix", files("a.json", ones), "--k", "6",
                "--max-vertices", "6", "--max-edges", "0"])
    out, err = out_of(capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "BudgetExceeded",
                               "message": "30^6 configurations exceed the budget 100000000"}
