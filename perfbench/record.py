"""Build the input pools in ``data/`` and record their reference outputs.

    python3 perfbench/record.py exact|packet|cli

Run from the repository root.  The pools are drawn from a fixed seed, so
rerunning this rewrites the same inputs; the references are whatever the
checked-out program outputs, so run it only on the commit whose outputs
the benchmark should hold later commits to.  A pool entry whose op fails
its own oracle or residual check stops the recording.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import execute  # noqa: E402
import workloads  # noqa: E402
from qeuclid import verify  # noqa: E402
from spans import Tracer  # noqa: E402

POOL_SEED = 20101082
OFF = Tracer(False)


def rand_poly_spec(rnd: random.Random, deg: int, nterm: int, with_t: bool) -> list:
    """``nterm`` random terms, each slot exponent in 0..deg."""
    out = []
    for _ in range(nterm):
        a, b, c = (rnd.randint(0, deg) for _ in range(3))
        t = rnd.randint(0, 1) if with_t else 0
        re_ = rnd.choice((-3, -2, -1, 1, 2, 3))
        out.append([a, b, c, t, rnd.randint(-2, 2), f"{re_}/{rnd.randint(1, 2)}",
                    str(rnd.randint(-1, 1))])
    return out


def exact_specs(rnd: random.Random) -> dict:
    def pair(conv):
        return {"conv": conv,
                "f": rand_poly_spec(rnd, 4, rnd.randint(2, 4), True),
                "g": rand_poly_spec(rnd, 4, rnd.randint(2, 4), True)}

    return {
        "star": [pair(rnd.choice(("W", "Wt"))) for _ in range(240)],
        "weyl": [pair(rnd.choice(("W", "Wt"))) for _ in range(120)],
        "roundtrip": [{"index": rnd.choice("+3-0"),
                       "f": rand_poly_spec(rnd, 4, rnd.randint(2, 4), True)}
                      for _ in range(180)],
        "qbinom": [{"n": n, "k": k, "base": base}
                   for n in range(15) for k in range(n + 1) for base in (1, 2, 4)],
        "cq": [{"k": k, "l": l} for k in range(1, 11) for l in range(k + 1)],
        "exp": [{"variant": v, "order": n, "index": a}
                for v in ("x_ip", "ipinv_x", "bar_x_ip", "bar_ipinv_x",
                          "star_ip_x", "star_x_ipinv")
                for n in (2, 3, 4) for a in "+3-"],
        "translate": [{"tkind": rnd.choice(("plus", "plusbar")),
                       "f": rand_poly_spec(rnd, 2, rnd.randint(2, 3), False)}
                      for _ in range(120)],
        "prop": [{"family": f, "branch": b, "order": o, "mass": m}
                 for f in ("KR", "KL", "KRstar", "KLstar") for b in (1, -1)
                 for o in range(7) for m in ("1", "2", "3")],
    }


def record_exact() -> dict:
    pool = exact_specs(random.Random(POOL_SEED))
    for kind, specs in pool.items():
        t0 = time.perf_counter()
        for i, spec in enumerate(specs):
            inputs = execute.make_exact_inputs(kind, spec)
            payload, problems = execute.exact_op(kind, spec, inputs, OFF, i)
            if problems:
                raise SystemExit(f"{kind}[{i}] fails its check: {problems}")
            spec["ref"] = execute.digest(payload())
        dt = time.perf_counter() - t0
        print(f"{kind}: {len(specs)} entries, {1e3 * dt / len(specs):.1f} ms each")
    return pool


def packet_candidates(rnd: random.Random):
    """Gaussian packets drawn around criterion 10's packet (q0 = 1.1,
    center 0.3, width 0.9, odd fraction 0.35, phase order 20)."""
    while True:
        yield {
            "half_width": rnd.choice((10, 11, 12)),
            "mass": rnd.choice(("1", "2", "3")),
            "center_j": round(rnd.uniform(0.1, 0.5), 3),
            "width_j": round(rnd.uniform(0.8, 1.0), 3),
            "odd_fraction": round(rnd.uniform(0.25, 0.45), 3),
            "phase_order": 20,
            "t": round(rnd.uniform(0.01, 0.1), 3),
        }


def record_packet(per_class: int = 8) -> dict:
    """``per_class`` packets for each term count of c(t) in PACKET_CLASSES;
    a candidate in another class is skipped."""
    want = {c: per_class for c in workloads.PACKET_CLASSES}
    packets = []
    for spec in packet_candidates(random.Random(POOL_SEED)):
        if not any(want.values()):
            break
        group = execute.PacketGroup(spec, OFF)
        terms = int(group.run("build", None, 0)[0])
        if want.get(terms, 0) == 0:
            continue
        want[terms] -= 1
        t0 = time.perf_counter()
        values = {}
        for name, a in execute.packet_group_ops(workloads.INDICES):
            key = name if a is None else f"{name}:{a}"
            values[key] = group.run(name, a, 0)
            problems = execute.packet_problems(key, values[key], values)
            if problems:
                raise SystemExit(f"packet {spec} fails its checks: {problems}")
        packets.append(dict(spec, terms=terms, ref=values))
        print(f"packet {len(packets)}: {terms} terms, {time.perf_counter() - t0:.1f} s")
    return {"packets": packets}


#: valid expressions, from the README and the DSL grammar
EXPRESSIONS = (
    "star(x-, x+)",
    "d[-](star(x3, x3))",
    "d[+] |> star(x+, x+)",
    "star(x+, star(x3, x-))",
    "conj(star(x+, x3))",
    "star(x3, x+) - q^2 * star(x+, x3)",
    "dinv[3](star(x3, x3))",
    "dhat[+](star(x+, x-))",
    "translate[plus](star(x+, x3))",
    "invert[minus](star(x+, x-))",
    "exp[x_ip](2)",
    "3/2 * star(p-, p+) + i * p3",
)
BAD_EXPRESSIONS = (
    "star(x+, x3",
    "d[+] |>",
    "star(x+, x3))",
    "exp[nope](2)",
    "d[7](x3)",
    "x+ + * x3",
)
PACKET_FILES = (
    {"lattice": {"q0": 1.1, "j_min": -8, "j_max": 8}, "mass": "2", "phase_order": 16,
     "packet": {"center_j": 0.3, "width_j": 0.9, "odd_fraction": 0.35}},
    {"lattice": {"q0": 1.1, "j_min": -10, "j_max": 10}, "mass": "1", "phase_order": 16,
     "packet": {"center_j": 0.1, "width_j": 1.0, "odd_fraction": 0.25}},
    {"lattice": {"q0": 1.1, "j_min": -9, "j_max": 9}, "mass": "3", "phase_order": 16,
     "packet": {"center_j": 0.5, "width_j": 0.8, "odd_fraction": 0.4}},
)
#: cases that give bad input; the README contract says they exit 2
BAD_INPUT = {"eval-q0", "heine-q1", "sample-q1", "propagator-negative-order",
             "expectation-missing-file", "syntax-error"}


def cli_cases() -> dict:
    cases = {
        "parse": [["parse", e] for e in EXPRESSIONS],
        "expand": [["expand", e, *j] for e in EXPRESSIONS for j in ([], ["--json"])],
        "eval": [["eval", e, "--q", q] for e in EXPRESSIONS for q in ("11/10", "6/5")],
        "propagator": [["propagator", "--family", f, "--branch", b, "--order", str(o), *j]
                       for f in ("KR", "KL", "KRstar", "KLstar")
                       for b in ("retarded", "advanced")
                       for o in (2, 4, 6) for j in ([], ["--json"])],
        "heine": [["heine", "--order", str(o), "--q", q, "--t", t]
                  for o in (4, 6, 8) for q in ("11/10", "6/5") for t in ("0.3", "0.5")],
        "sample": [["sample", "--grid", str(g), "--center", c, "--out", f"{execute.CLI_DIR}/lattice.csv"]
                   for g in (3, 4, 5) for c in ("0", "0.5")],
        "expectation": [["expectation", "--packet", f"{execute.CLI_DIR}/packet-{i}.json", "--t", "0"]
                        for i in range(len(PACKET_FILES))],
        "eval-q0": [["eval", e, "--q", "0"] for e in EXPRESSIONS[:6]],
        "heine-q1": [["heine", "--order", str(o), "--q", "1"] for o in (4, 6)],
        "sample-q1": [["sample", "--grid", str(g), "--q", "1", "--out", f"{execute.CLI_DIR}/lattice.csv"]
                      for g in (3, 4)],
        "propagator-negative-order": [["propagator", "--family", f, "--order", "-1"]
                                      for f in ("KR", "KL", "KRstar", "KLstar")],
        "expectation-missing-file": [["expectation", "--packet", f"{execute.CLI_DIR}/missing-{i}.json"]
                                     for i in range(3)],
        "syntax-error": [[cmd, e] for e in BAD_EXPRESSIONS for cmd in ("parse", "expand")],
    }
    for suite in ("qarith", "ncalgebra", "qcalculus"):
        cases[f"verify-{suite}"] = [["verify", "--suite", suite, "--json", "--seed", str(s)]
                                    for s in (2024, 1, 2, 3)]
    return {case: [{"argv": argv, "expect_exit": 2 if case in BAD_INPUT else 0} for argv in argvs]
            for case, argvs in cases.items()}


def verify_json_ref(argv: list[str]) -> dict:
    """The stdout a ``verify --json`` run should print, built in-process.
    At the seed commit ``verify --suite qcalculus --json`` crashes on a
    numpy.bool; ``default=bool`` writes it as the JSON boolean a fixed
    program prints."""
    report = verify.run_suite(argv[argv.index("--suite") + 1],
                              seed=int(argv[argv.index("--seed") + 1]))
    text = json.dumps(report.to_json(), sort_keys=True, default=bool) + "\n"
    return execute.cli_observe(argv, text, ROOT)


def record_cli() -> dict:
    execute.write_cli_inputs(ROOT, PACKET_FILES)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cases = cli_cases()
    for name, entries in cases.items():
        for entry in entries:
            proc = execute.run_cli(entry["argv"], ROOT, env, 120)
            problems = execute.cli_problems(entry, proc, ROOT)
            if problems and name not in workloads.KNOWN_DEFECTS:
                raise SystemExit(f"{entry['argv']} fails: {problems}\n{proc.stderr}")
            if problems:
                entry["defect"] = execute.defect_signature(proc)
            if entry["expect_exit"] == 0:
                entry["ref"] = (execute.cli_observe(entry["argv"], proc.stdout, ROOT)
                                if not problems else verify_json_ref(entry["argv"]))
            print(f"{name}: {' '.join(entry['argv'])}: exit {proc.returncode}")
    return {"cases": cases, "packet_files": list(PACKET_FILES)}


def main() -> None:
    which = sys.argv[1]
    pool = {"exact": record_exact, "packet": record_packet, "cli": record_cli}[which]()
    with open(os.path.join(workloads.DATA, f"{which}_pool.json"), "w") as fh:
        json.dump(pool, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
