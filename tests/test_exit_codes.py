"""Exit status of every error class, raised from inside a verb.

Bad input exits 2; a computation that fails on valid input (budget, no
tractable certificate, an oracle or factorization fault) exits 1, and so
does any exception that is not a PartfunError.
"""

import inspect
import json

import pytest

from partfun import cli, errors

INPUT_ERRORS = (
    "FormatError", "BadParameter", "DuplicateNode", "BadPartition", "LabelMismatch",
    "DimensionMismatch", "PinningConflict", "AsymmetricTensor", "ArityMismatch",
    "NotSymmetric", "NegativeEntries", "ParallelEdges", "TooLarge", "RingUnsupported",
    "NotSimple", "UnsupportedModulus", "NotPowerMatrix",
)
COMPUTATION_ERRORS = (
    "BudgetExceeded", "NotTractable", "FactorizationFailure", "OracleFailure", "DegeneratePoint",
)
LISTED = {name: 2 for name in INPUT_ERRORS} | {name: 1 for name in COMPUTATION_ERRORS}

ERROR_CLASSES = sorted(
    (cls for _, cls in inspect.getmembers(errors, inspect.isclass)
     if issubclass(cls, errors.PartfunError) and cls is not errors.PartfunError),
    key=lambda cls: cls.__name__,
)


def expected_exit(cls):
    """The listed status; a class that is not listed must be a common base
    of listed classes that all share one status, and exits with it."""
    if cls.__name__ in LISTED:
        return LISTED[cls.__name__]
    below = {code for name, code in LISTED.items() if issubclass(getattr(errors, name), cls)}
    assert len(below) == 1, f"{cls.__name__} has no exit status of its own"
    return below.pop()


def run_raising(monkeypatch, capsys, exc):
    def verb(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "classify", verb)
    code = cli.run(["classify", "--matrix", "unread.json"])
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    return code, json.loads(err)


def test_every_listed_error_class_exists():
    assert set(LISTED) <= {cls.__name__ for cls in ERROR_CLASSES}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_exit_status(cls, monkeypatch, capsys):
    code, payload = run_raising(monkeypatch, capsys, cls("what went wrong"))
    assert code == expected_exit(cls)
    assert payload == {"error": cls.__name__, "message": "what went wrong"}


def test_plain_exception_is_an_internal_error(monkeypatch, capsys):
    code, payload = run_raising(monkeypatch, capsys, KeyError("k"))
    assert code == 1
    assert payload == {"error": "InternalError", "message": "KeyError: 'k'"}
