"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root; takes about two minutes.  Checks that op lists
are a function of the seed, that metric names are well formed, that the
benchmark's sources use only qeuclid's public API, and that a short run of
each workload fails exactly its known-defect ops.  (The file is not named
``test_*.py`` so that the repository's pytest run does not collect it.)
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: names ROADMAP item 5 deletes, and verify's private input generator
DOOMED = {
    "rand_coord_poly", "coord_poly", "phase_space_zero", "eval_numeric",
    "gaussian_rational", "map_coeffs", "max_degree", "sector_degree",
    "truncate_sector_degree", "denominator_terms", "DeformationConstants",
}
#: schrodinger's module-level forwarders to WavePacket methods
FORWARDERS = {"expectation_momentum", "expectation_position", "norm_check"}


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def api_violations(path: str) -> list[str]:
    """Uses of underscore names, names due for deletion, or schrodinger's
    forwarders (instead of the WavePacket methods) in one source file."""
    tree = ast.parse(open(path).read(), path)
    schrodinger_aliases = set()
    out = []
    for node in ast.walk(tree):
        where = f"{os.path.basename(path)}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qeuclid"):
            for alias in node.names:
                if alias.name == "schrodinger":
                    schrodinger_aliases.add(alias.asname or alias.name)
                if private(alias.name) or alias.name in DOOMED or (
                        node.module == "qeuclid.schrodinger" and alias.name in FORWARDERS):
                    out.append(f"{where}: imports {alias.name}")
        elif isinstance(node, ast.Attribute):
            if private(node.attr) or node.attr in DOOMED:
                out.append(f"{where}: reads .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in DOOMED:
            out.append(f"{where}: uses {node.id}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            name = str(node.args[1].value)
            if private(name) or name in DOOMED:
                out.append(f"{where}: looks up {name!r}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in FORWARDERS
                and isinstance(node.value, ast.Name) and node.value.id in schrodinger_aliases):
            out.append(f"{os.path.basename(path)}:{node.lineno}: calls schrodinger.{node.attr}")
    return out


def check_op_lists() -> None:
    for w in workloads.WORKLOADS:
        a = workloads.op_list_bytes(w, 7, 30)
        assert a == workloads.op_list_bytes(w, 7, 30), f"{w}: seed 7 gives two op lists"
        assert a != workloads.op_list_bytes(w, 8, 30), f"{w}: seeds 7 and 8 give one op list"


def check_metric_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    assert not bad, f"malformed metric names: {bad}"
    assert len(names) == len(set(names)), "a metric name is used twice"


def check_sources() -> None:
    found = []
    for name in sorted(os.listdir(BENCH)):
        if name.endswith(".py") and name != os.path.basename(__file__):
            found += api_violations(os.path.join(BENCH, name))
    assert not found, "non-public qeuclid names:\n  " + "\n  ".join(found)


def known_failures(workload: str, seed: int, seconds: float) -> int:
    if workload != "cli":
        return 0
    return sum(case in workloads.KNOWN_DEFECTS
               for case, _ in workloads.op_list(workload, seed, seconds))


def check_defect_signatures() -> None:
    """A known-defect op counts as known only while it fails as recorded."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import execute
    from subprocess import CompletedProcess

    pool = workloads.load_pool("cli")
    for case in workloads.KNOWN_DEFECTS:
        for entry in pool["cases"][case]:
            sig = entry["defect"]
            err = sig["stderr_tail"]
            same = CompletedProcess([], sig["exit"], stdout="",
                                    stderr=f"Traceback\n{err}\n" if err else "")
            if sig["stdout"] == execute.digest(""):
                assert execute.is_known_defect(entry, same), f"{case}: recorded failure not matched"
            other = CompletedProcess([], sig["exit"], stdout="", stderr="Traceback\nOSError: other\n")
            assert not execute.is_known_defect(entry, other), f"{case}: another failure matched"
            assert not execute.is_known_defect(entry, None), f"{case}: a timeout matched"


def check_short_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        e2e = [m["name"] for m in json.load(fh)["end_to_end"]]
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", w,
             "--seed", "3", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, f"{w}: exit {proc.returncode}\n{proc.stderr}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        want = known_failures(w, 3, 1)
        assert result["correct"], f"{w}: unexpected failures\n{proc.stdout}"
        assert result["failed"] == want, f"{w}: {result['failed']} failed, expected {want}"
        assert sorted(result["metrics"]) == sorted(e2e), f"{w}: metrics {sorted(result['metrics'])}"
        print(f"{w}: {result['attempted']} ops, {result['failed']} failed "
              f"(error_rate {result['failed'] / result['attempted']:.3f}) as expected")


def main() -> None:
    for check in (check_op_lists, check_metric_names, check_sources, check_defect_signatures,
                  check_short_runs):
        check()
        print(f"ok  {check.__name__}")


if __name__ == "__main__":
    main()
