"""The qeuclid benchmark.

    python3 perfbench/run.py --workload exact|packet|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's op list comes from the
seed and has about ``S`` seconds of work at the seed commit.  Ops are timed
in slices with a fixed speed probe between them, and the gated times are
scaled to the speed the probe has on the reference machine, so that slow
and fast phases of a shared machine cancel (see ``timings``).  With
``--trace 0`` the run prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs the op list once untraced and once traced and prints
the per-layer metrics, including the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results and
spans go to ``.bench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import PROBE_REF_S, WORKLOADS, work_estimate_s

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH, "worker.py")

#: set-up is measured in this many launches per run: half of the set-up-only
#: launches go before the timed one and half after, so that the samples
#: span the run rather than one moment of a shared machine
SETUP_SAMPLES = 5
#: the time limit of a run: this many seconds per worker launch, plus
#: SLOW_FACTOR times the estimated work of each pass
LAUNCH_S = 10.0
SLOW_FACTOR = 2.5


#: units of the metrics that are printed but not gated
PRINTED_UNITS = {"wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms", "op_p50_ref_ms": "ms",
                 "op_p90_ms": "ms", "error_rate": "ratio", "probe_ms": "ms"}


class BenchError(Exception):
    pass


def launch(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Start a worker process, wait for it and return its result with the
    time from launch to its first op (``setup_s``)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def environment(seed: int, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed, "commit": commit()}


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def timings(run: dict) -> dict:
    """Totals of a pass's slices, as measured and at reference speed.

    A slice's speed factor is ``PROBE_REF_S`` over the mean of the probes
    before and after it; the slice's time and its ops' latencies are
    multiplied by it.  A slow phase of the machine lengthens the probe about
    as much as the ops, so the scaled times change less than the raw ones
    (README.md gives the numbers; on ``cli`` the probe over-corrects).
    """
    wall = cpu = wall_ref = 0.0
    lat_ref = []
    lat = iter(run["latencies_s"])
    for n, s_wall, s_cpu, before, after in run["slices"]:
        factor = PROBE_REF_S / ((before + after) / 2)
        wall, cpu, wall_ref = wall + s_wall, cpu + s_cpu, wall_ref + factor * s_wall
        lat_ref += [factor * next(lat) for _ in range(n)]
    probes = [s[3] for s in run["slices"]] + [run["slices"][-1][4]]
    return {"wall_s": wall, "cpu_s": cpu, "wall_ref_s": wall_ref, "lat_ref_s": lat_ref,
            "probe_ms": 1e3 * statistics.median(probes)}


def end_to_end(run: dict, setups: list[float]) -> tuple[dict, dict]:
    """The gated metrics, and the ones only printed: the raw times, the
    per-op latencies (``op_p90_ms`` only when at least ten ops lie beyond
    it), ``error_rate`` and the median speed probe."""
    t = timings(run)
    lat_ms = [1e3 * s for s in run["latencies_s"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ref_s": t["wall_ref_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    printed = {
        "wall_s": t["wall_s"],
        "cpu_s": t["cpu_s"],
        "op_p50_ms": statistics.median(lat_ms),
        "op_p50_ref_ms": 1e3 * statistics.median(t["lat_ref_s"]),
        "error_rate": len(run["failures"]) / len(lat_ms),
        "probe_ms": t["probe_ms"],
    }
    if len(lat_ms) >= 100:
        printed["op_p90_ms"] = statistics.quantiles(lat_ms, n=10)[-1]
    return metrics, printed


def per_layer(spec: list[dict], base: dict, traced: dict) -> tuple[dict, dict]:
    """Per-layer values from the traced pass, and the names reported absent
    with their reasons.  A layer the workload never calls reads 0."""
    spans, counts, extra = traced["spans"], traced["counts"], traced["extra"]
    values, absent = {}, {}
    for m in spec:
        name = m["name"]
        if name == "trace.overhead_s":
            values[name] = timings(traced)["wall_s"] - timings(base)["wall_s"]
        elif name in extra:
            if extra[name] is None:
                absent[name] = "the program no longer exposes cache_info()"
            else:
                values[name] = extra[name]
        elif name.endswith(".calls"):
            values[name] = spans.get(name[: -len(".calls")], [0, 0.0])[0]
        elif name.endswith(".busy_s"):
            values[name] = spans.get(name[: -len(".busy_s")], [0, 0.0])[1]
        else:
            values[name] = counts.get(name, 0)
    return values, absent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "qeuclid", "__init__.py")):
        print(f"no qeuclid sources under {ROOT}/src: run from a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    passes = 2 if args.trace else 1
    launches = 2 if args.trace else SETUP_SAMPLES
    deadline = time.monotonic() + LAUNCH_S * launches + SLOW_FACTOR * passes * work_estimate_s(
        args.workload, args.seconds)

    try:
        if args.trace:
            base = launch(args.workload, args.seed, args.seconds, "run", deadline)
            run = launch(args.workload, args.seed, args.seconds, "trace", deadline)
            metrics, absent = per_layer(bench["per_layer"], base, run)
            printed = {}
        else:
            def setup_only() -> float:
                return launch(args.workload, args.seed, args.seconds, "setup", deadline)["setup_s"]

            setups = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
            run = launch(args.workload, args.seed, args.seconds, "run", deadline)
            setups.append(run["setup_s"])
            setups += [setup_only() for _ in range(SETUP_SAMPLES - len(setups))]
            metrics, printed = end_to_end(run, setups)
            absent = {}
            run["setup_samples_s"] = setups
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failures = run["failures"]
    attempted = len(run["latencies_s"])
    unexpected = [f for f in failures if not f["known_defect"]]
    env = environment(args.seed, run["numpy"])

    print(f"# env: {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload}: {attempted} ops attempted, {len(failures)} failed "
          f"({len(failures) - len(unexpected)} known defects)")
    for name, value in {**metrics, **printed}.items():
        unit = units.get(name, PRINTED_UNITS.get(name))
        print(f"#   {name:48s} {value:14.6g} {unit}")
    for name, reason in absent.items():
        print(f"#   {name:48s} absent: {reason}")
    for f in failures[:20]:
        tag = "known defect" if f["known_defect"] else "FAILED"
        print(f"# {tag}: op {f['op']} {f['label']}: {'; '.join(f['problems'])}")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"env": env, "workload": args.workload, "metrics": metrics,
                   "printed": printed, "absent": absent, "failures": failures,
                   "setup_samples_s": run.get("setup_samples_s"),
                   "latencies_s": run["latencies_s"], "slices": run["slices"]},
                  fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
