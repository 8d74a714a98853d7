"""The same-bytes corpus: every query of `tests/golden/queries.json` prints
the committed exit status, stdout and stderr, in process and in a fresh
interpreter in reverse order.  `tests/write_queries_golden.py` writes it."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from ramcount import cli

CORPUS = Path(__file__).parent / "golden" / "queries.json"
SRC = Path(cli.__file__).resolve().parents[1]


def replay(entries):
    """The argv of each entry whose status, stdout or stderr differ."""
    moved = []
    for entry in entries:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(list(entry["argv"]))
        if (status, out.getvalue(), err.getvalue()) != (
                entry["status"], entry["stdout"], entry["stderr"]):
            moved.append(entry["argv"])
    return moved


def test_every_query_prints_its_committed_bytes():
    assert replay(json.loads(CORPUS.read_text())) == []


def test_reverse_order_in_a_fresh_interpreter_prints_the_same_bytes():
    # no cache a query fills (fields, rings, lifts) changes what another prints
    code = ("import json, sys, test_queries; "
            "entries = json.loads(test_queries.CORPUS.read_text())[::-1]; "
            "print(json.dumps(test_queries.replay(entries)))")
    path = os.pathsep.join([str(SRC), str(Path(__file__).parent)])
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == []
