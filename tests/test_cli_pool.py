"""The benchmark's CLI pool: every case, run in-process through
``qeuclid.cli.main``, meets the exit-code contract and its recorded output."""

import contextlib
import io
import json
import os
from types import SimpleNamespace

from qeuclid.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def test_cli_pool_references_hold(monkeypatch, tmp_path):
    """All 170 cases of ``perfbench/data/cli_pool.json``, checked by the
    benchmark's own ``execute.cli_problems``: the exit code, one line on
    stderr for exit 2, and stdout (and a written CSV) as recorded.  The
    packet files the ``expectation`` cases read are written into a temporary
    directory, which the cases run in.

    This pins the four references on ``dhat[+](star(x+, x-))`` (``eval``
    at q 11/10 and 6/5, ``expand`` as text and with ``--json``), which
    recorded a wrong value; ROADMAP item 1 re-records them when it mends
    ``dhat``."""
    monkeypatch.syspath_prepend(PERFBENCH)
    import execute

    with open(os.path.join(PERFBENCH, "data", "cli_pool.json")) as fh:
        pool = json.load(fh)
    execute.write_cli_inputs(str(tmp_path), pool["packet_files"])
    monkeypatch.chdir(tmp_path)
    checked = 0
    for name, cases in pool["cases"].items():
        for i, case in enumerate(cases):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(case["argv"])
            proc = SimpleNamespace(returncode=code, stdout=out.getvalue(), stderr=err.getvalue())
            assert not execute.cli_problems(case, proc, str(tmp_path)), (name, i, case["argv"])
            checked += 1
    assert checked == 170
