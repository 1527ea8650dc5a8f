"""Print the lines of ``src/qeuclid`` that the program's own traffic never runs.

The traffic, run in this process under ``sys.settrace``:

- ``verify --suite all`` at seeds 2024, 1 and 2;
- every op of the benchmark's exact pool, and the digest of its output;
- every op of every packet in the benchmark's packet pool;
- every case of the benchmark's CLI pool, through ``qeuclid.cli.main`` in a
  temporary directory that holds the pool's packet files.

It then prints, per module, the executable lines (those that hold bytecode)
that nothing ran, and the totals.  It reads ``perfbench/`` only by import
and its data files, and writes nothing in the repository.  A line that no
traffic runs is dead code or a refusal of bad input that no case sends.

Usage, from anywhere (about half a minute on 2 cores)::

    python tools/traffic_lines.py
"""

import contextlib
import io
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "qeuclid")
PERFBENCH = os.path.join(ROOT, "perfbench")


def executable_lines(path: str) -> set:
    """The lines of the module at ``path`` that hold bytecode (line 0, a
    module's entry, is none)."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        todo.extend(c for c in co.co_consts if isinstance(c, type(code)))
    return lines


def run_traffic() -> None:
    """The program traffic: imported here, after tracing has started, so
    that module-level lines count too."""
    sys.path[:0] = [SRC, PERFBENCH]
    import execute
    import workloads
    from spans import Tracer

    from qeuclid.cli import main
    from qeuclid.verify import run_suite

    for seed in (2024, 1, 2):
        run_suite("all", seed=seed)
    off = Tracer(False)
    for kind, specs in workloads.load_pool("exact").items():
        for i, spec in enumerate(specs):
            payload, _ = execute.exact_op(kind, spec, execute.make_exact_inputs(kind, spec),
                                          off, i)
            execute.digest(payload())
    for spec in workloads.load_pool("packet")["packets"]:
        group = execute.PacketGroup(spec, off)
        for name, a in execute.packet_group_ops(workloads.INDICES):
            group.run(name, a, 0)
    pool = workloads.load_pool("cli")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        execute.write_cli_inputs(tmp, pool["packet_files"])
        os.chdir(tmp)
        try:
            for cases in pool["cases"].values():
                for case in cases:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        main(case["argv"])
        finally:
            os.chdir(cwd)


def ranges(lines: list) -> str:
    """Sorted line numbers as runs: 3, 7-9, 12."""
    runs = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> None:
    ran: dict = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE + os.sep):
            return None
        ran.setdefault(path, set())
        return trace_lines

    start = time.perf_counter()
    sys.settrace(trace_calls)
    try:
        run_traffic()
    finally:
        sys.settrace(None)
    seconds = time.perf_counter() - start
    total = unrun = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(path, set()))
        total, unrun = total + len(lines), unrun + len(missed)
        print(f"{name}: {len(missed)} of {len(lines)} unrun"
              + (f": {ranges(missed)}" if missed else ""))
    print(f"total: {unrun} of {total} executable lines unrun, traffic traced in {seconds:.0f} s")


if __name__ == "__main__":
    main()
