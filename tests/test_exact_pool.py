"""The benchmark's exact pool: every entry, run through the benchmark's own
op code as ``perfbench/record.py`` records it, passes its oracle or residual
check and hashes to its recorded reference digest."""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def test_exact_pool_references_hold(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import execute
    from spans import Tracer

    with open(os.path.join(PERFBENCH, "data", "exact_pool.json")) as fh:
        pool = json.load(fh)
    off, checked = Tracer(False), 0
    for kind, specs in pool.items():
        for i, spec in enumerate(specs):
            inputs = execute.make_exact_inputs(kind, spec)
            payload, problems = execute.exact_op(kind, spec, inputs, off, i)
            assert not problems, (kind, i, problems)
            assert execute.digest(payload()) == spec["ref"], (kind, i)
            checked += 1
    assert checked == 1307
