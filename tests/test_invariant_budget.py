"""An invariant over the budget is refused before its model matrix is built."""

import json

import pytest

from partfun import evaluator
from partfun.cli import run

TRIANGLE = "v 3\ne 0 1\ne 0 2\ne 1 2\n"


@pytest.mark.parametrize("params, spins", [
    (["--name", "proper-colorings", "--k", "3000"], 3000),
    (["--name", "nowhere-zero-flows", "--k", "3000"], 3000),
    (["--name", "potts", "--n", "3000", "--v", "1"], 3000),
    # (x-1)(y-1) = 2000 spins
    (["--name", "tutte", "--x", "41", "--y", "51"], 2000),
], ids=["proper-colorings", "nowhere-zero-flows", "potts", "tutte"])
def test_over_budget_invariant_builds_no_large_matrix(params, spins, tmp_path, monkeypatch, capsys):
    sizes = []
    build = evaluator.WeightMatrix.__init__

    def recording(self, ring, rows):
        sizes.append(len(rows))
        build(self, ring, rows)

    monkeypatch.setattr(evaluator.WeightMatrix, "__init__", recording)
    monkeypatch.delenv("PARTFUN_BUDGET", raising=False)
    graph = tmp_path / "g.txt"
    graph.write_text(TRIANGLE)
    code = run(["invariant", "--graph", str(graph)] + params)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "BudgetExceeded",
                               "message": f"{spins}^3 configurations exceed the budget 100000000"}
    assert max(sizes, default=0) <= 2
