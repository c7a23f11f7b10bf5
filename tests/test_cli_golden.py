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
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(entry["args"]))
    assert (code, out.getvalue()) == (entry["exit"], entry["stdout"])
