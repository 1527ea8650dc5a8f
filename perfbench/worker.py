"""One pass of one workload, in its own process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

``--mode setup`` stops after set-up (import and input generation) and
reports when it was ready; ``run`` also runs the op list untraced; ``trace``
runs it with spans and reports the per-layer numbers.  The last line of
standard output is one JSON object.  ``run.py`` starts this script; it is
not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, SRC)

import qeuclid  # noqa: E402

if not os.path.abspath(qeuclid.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"qeuclid imported from {qeuclid.__file__}, not from {SRC}")

import numpy  # noqa: E402
from qeuclid import cli as qcli  # noqa: E402
from qeuclid import dsl, qarith, verify  # noqa: E402

import execute  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

CLI_TIMEOUT_S = 60.0
#: a pass is timed in slices of at least this many seconds, with a speed
#: probe between slices (see Outcome)
SLICE_S = 2.0


def cpu_seconds(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def rss_mb() -> float:
    """Current resident set size of this process in MiB."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def probe() -> float:
    """Seconds taken by a fixed piece of work that calls no qeuclid code:
    integer arithmetic, Fraction sums (gcd reductions), a sort, a
    string-keyed dict and small numpy operations, about half of it numpy.
    It tells how fast this shared machine runs at the moment; run.py scales
    op times by it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100000):
        acc += i * i % 7
    x = Fraction(0)
    for i in range(1, 4500):
        x += Fraction(i % 13 + 1, i % 17 + 1)
    rnd = random.Random(1)
    rows = sorted((rnd.random(), str(i)) for i in range(12000))
    acc += len({key: v for v, key in rows})
    a = numpy.arange(64.0)
    for i in range(6000):
        b = a * 1.0001 + i
        acc += float(b.dot(a)) + float(numpy.exp(-b[:16]).sum())
    return time.perf_counter() - t0


class Outcome:
    """Per-op latencies and failures of one pass, timed in slices.

    A slice ends with the first op that finishes ``SLICE_S`` or more after
    the slice began.  The speed probe runs before the first slice and after
    each one, outside the slices' times.  A slice is recorded as
    ``[ops, wall s, cpu s, probe before, probe after]``.
    """

    def __init__(self, who: int):
        self.who = who
        self.latencies: list[float] = []
        self.failures: list[dict] = []
        self.slices: list[list] = []
        self.probe = probe()
        self.begin()

    def begin(self) -> None:
        self.first = len(self.latencies)
        self.t0, self.cpu0 = time.perf_counter(), cpu_seconds(self.who)

    def add(self, op_id: int, label: str, seconds: float, problems: list[str], known=False):
        self.latencies.append(seconds)
        if problems:
            self.failures.append({"op": op_id, "label": label, "problems": problems,
                                  "known_defect": known})
        if time.perf_counter() - self.t0 >= SLICE_S:
            self.close()

    def close(self) -> None:
        """End the current slice (if it holds ops) and probe the machine."""
        wall, cpu = time.perf_counter() - self.t0, cpu_seconds(self.who) - self.cpu0
        if len(self.latencies) > self.first:
            after = probe()
            self.slices.append([len(self.latencies) - self.first, wall, cpu, self.probe, after])
            self.probe = after
        self.begin()


def timed(tr, name: str, op_id: int, fn):
    """Run ``fn`` inside the op's span: ``(value, seconds, problems)``."""
    t0 = time.perf_counter()
    try:
        with tr.span(name, op_id):
            value = fn()
        problems = []
    except Exception as exc:  # a crashing op is a failed op, not a crashed run
        value, problems = None, [f"exception: {exc!r}"]
    return value, time.perf_counter() - t0, problems


# -- exact ---------------------------------------------------------------------


def setup_exact(seed, seconds):
    pool = workloads.load_pool("exact")
    ops = workloads.op_list("exact", seed, seconds, pool)
    items = [(kind, pool[kind][idx]) for kind, idx in ops]
    inputs = [execute.make_exact_inputs(kind, spec) for kind, spec in items]
    return items, inputs


def run_exact(state, tr, out: Outcome, extra: dict):
    items, inputs = state
    for i, ((kind, spec), inp) in enumerate(zip(items, inputs)):
        res, dt, problems = timed(tr, f"op.{kind}", i,
                                  lambda: execute.exact_op(kind, spec, inp, tr, i))
        if res is not None:
            payload, problems = res
            if not problems and execute.digest(payload()) != spec["ref"]:
                problems = ["canonical JSON differs from the recorded digest"]
        out.add(i, kind, dt, problems)


# -- packet --------------------------------------------------------------------


def setup_packet(seed, seconds):
    pool = workloads.load_pool("packet")
    groups = workloads.op_list("packet", seed, seconds, pool)
    return [(pool["packets"][pidx], execute.packet_group_ops([index]))
            for pidx, index in groups]


def run_packet(state, tr, out: Outcome, extra: dict):
    op_id = 0
    growth = []
    for spec, group_ops in state:
        group = execute.PacketGroup(spec, tr)
        values = {}
        rss0 = rss_mb()
        for name, a in group_ops:
            key = name if a is None else f"{name}:{a}"
            value, dt, problems = timed(tr, f"op.{name}", op_id,
                                        lambda: group.run(name, a, op_id))
            if value is not None:
                if not execute.close_to(value, spec["ref"][key]):
                    problems.append(f"{key} = {value} differs from the recorded {spec['ref'][key]}")
                problems += execute.packet_problems(key, value, values)
                values[key] = value
            out.add(op_id, key, dt, problems)
            op_id += 1
        growth.append(rss_mb() - rss0)
    extra["lattice.rss_growth_mb"] = statistics.fmean(growth)


# -- cli -----------------------------------------------------------------------


def setup_cli(seed, seconds):
    pool = workloads.load_pool("cli")
    execute.write_cli_inputs(ROOT, pool["packet_files"])
    ops = workloads.op_list("cli", seed, seconds, pool)
    env = dict(os.environ, PYTHONPATH=SRC)
    return [(case, pool["cases"][case][idx]) for case, idx in ops], env


def run_cli(state, tr, out: Outcome, extra: dict):
    items, env = state
    for i, (case, entry) in enumerate(items):
        proc, dt, problems = timed(tr, f"op.{case}", i,
                                   lambda: execute.run_cli(entry["argv"], ROOT, env, CLI_TIMEOUT_S))
        problems = problems or execute.cli_problems(entry, proc, ROOT)
        out.add(i, f"{case}: {' '.join(entry['argv'])}", dt, problems,
                known=execute.is_known_defect(entry, proc))


def cli_layers(state, tr, extra: dict):
    """In-process timings of the layers the CLI subprocesses hide: dsl,
    verify and cli.main on the first round's cases."""
    items, env = state
    first_round = items[:len(workloads.CLI_ROUND)]
    for i, (case, entry) in enumerate(first_round):
        argv = entry["argv"]
        if argv[0] in ("parse", "expand", "eval") and not case.startswith("syntax"):
            with tr.span("dsl.parse_expression", i):
                node = dsl.parse_expression(argv[1])
            with tr.span("dsl.evaluate", i):
                dsl.evaluate(node)
        if argv[0] == "verify":
            with tr.span(f"verify.run_suite.{argv[2]}", i):
                verify.run_suite(argv[2], seed=int(argv[-1]))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with tr.span(f"cli.main.{argv[0]}", i):
                try:
                    qcli.main(argv)
                except (Exception, SystemExit):  # the known defects raise here
                    pass


# -- traced runs only ------------------------------------------------------------


CACHED = ("q_number", "q_factorial")


def cache_counts() -> dict:
    """(hits, misses) from each public cached function's ``cache_info()``,
    or None where a function has none."""
    out = {}
    for name in CACHED:
        info = getattr(getattr(qarith, name, None), "cache_info", None)
        out[name] = None if info is None else info()[:2]
    return out


def hit_ratios(before: dict, extra: dict) -> None:
    for name, end in cache_counts().items():
        start = before[name]
        if start is None or end is None:
            extra[f"qarith.{name}.hit_ratio"] = None
            continue
        hits, misses = end[0] - start[0], end[1] - start[1]
        extra[f"qarith.{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0


def startup_probes(extra: dict) -> None:
    """Median of three launches of a bare interpreter and of ``import qeuclid``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    for what, code in (("interp_s", "pass"), ("import_s", "import qeuclid")):
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
            runs.append(time.perf_counter() - t0)
        extra[f"cli.{what}"] = statistics.median(runs)


SETUP = {"exact": setup_exact, "packet": setup_packet, "cli": setup_cli}
RUN = {"exact": run_exact, "packet": run_packet, "cli": run_cli}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    state = SETUP[args.workload](args.seed, args.seconds)
    ready = time.monotonic()
    result = {"ready": ready, "numpy": numpy.__version__}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    tr = Tracer(args.mode == "trace")
    extra: dict = {}
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    caches = cache_counts()
    out = Outcome(who)
    RUN[args.workload](state, tr, out, extra)
    out.close()
    peak = resource.getrusage(who).ru_maxrss / 1024
    if tr.enabled:
        if args.workload == "cli":
            cli_layers(state, tr, extra)
        hit_ratios(caches, extra)
        startup_probes(extra)

    result.update(
        peak_rss_mb=peak,
        latencies_s=out.latencies,
        slices=out.slices,
        failures=out.failures,
    )
    if tr.enabled:
        os.makedirs(OUT, exist_ok=True)
        tr.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
        result["spans"] = {name: list(v) for name, v in tr.self_times().items()}
        result["counts"] = dict(tr.counts)
        result["extra"] = extra
    print(json.dumps(result))


if __name__ == "__main__":
    main()
