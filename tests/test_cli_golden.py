"""Replay a recorded corpus of CLI requests and compare the exit code and
the exact stdout of each.  The corpus (`data/cli_golden.json`) covers all
five commands in text and JSON over polynomial, opaque-coefficient,
rational and first-order systems, so that the engine's fallback paths
run; any change to a printed byte shows here."""

import contextlib
import io
import json
import pathlib

import pytest

from noncartan.cli import main

CORPUS = json.loads((pathlib.Path(__file__).parent / "data"
                     / "cli_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", CORPUS,
                         ids=[" ".join(e["args"])[:70] for e in CORPUS])
def test_cli_output_matches_corpus(entry):
    assert _run(entry) == (entry["exit"], entry["stdout"])


def test_warm_caches_do_not_change_output():
    """The whole corpus forward and then in reverse, in one process: the
    state the first pass leaves (witness prolongations, the trivial
    witnesses, the argument parser, interned atoms) must give the same
    exit codes and bytes."""
    forward = [_run(entry) for entry in CORPUS]
    backward = [_run(entry) for entry in reversed(CORPUS)][::-1]
    expected = [(entry["exit"], entry["stdout"]) for entry in CORPUS]
    assert forward == expected
    assert backward == expected


def _run(entry):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(entry["args"]))
    return code, out.getvalue()
