"""Seeded op lists for the three benchmark workloads.

Every input comes from a committed pool in ``data/`` whose reference
outputs were recorded once by ``record.py``; a run seed only chooses,
orders and repeats pool entries.  An op list holds the fewest whole rounds
(or packet blocks) that make at least ``--seconds`` of work at the seed
commit.  The composition of a run (how many ops of each kind, which packet
classes, which CLI cases) is fixed by the run length, so two seeds do the
same amount of work on different inputs.

This module does not import ``qeuclid``: the op list a seed gives can be
built and compared without the program.
"""

from __future__ import annotations

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

WORKLOADS = ("exact", "packet", "cli")

#: exact: how often the tier-1 tests and the six ``verify`` suites call each
#: op's functions at the seed commit (outermost calls only: a call made
#: inside another counted call is not counted).  ``star`` is star_product
#: less the calls paired with star_via_weyl; ``roundtrip`` is half the
#: apply_derivative plus inverse_partial calls, as an op makes one of each;
#: ``exp`` is build_exponential and ``prop`` propagator_momentum.  See
#: README.md for the raw counts.
EXACT_CALLS = {
    "star": 1041,
    "weyl": 275,
    "roundtrip": 1696,
    "qbinom": 1497,
    "cq": 270,
    "exp": 77,
    "translate": 147,
    "prop": 22,
}
#: exact: ops of each kind in one round of the mix, in proportion to
#: EXACT_CALLS, with one ``prop`` op (the rarest kind) per round.
EXACT_ROUND = {kind: max(1, round(n / EXACT_CALLS["prop"])) for kind, n in EXACT_CALLS.items()}
#: seconds of one exact round at the seed commit (2-core Xeon VM, Python 3.11)
EXACT_ROUND_S = 5.8

#: packet: each block takes one packet from every term class of the pool.
PACKET_CLASSES = (45, 55, 66)
#: seconds of work in one block at the seed commit (same VM)
PACKET_BLOCK_S = 22.0
INDICES = ("+", "3", "-")
#: indices evaluated at t > 0 (see packet_ops)
T_INDICES = ("+", "-")

#: cli: one round runs every case below once, with seeded parameters.
CLI_ROUND = (
    "parse",
    "expand",
    "eval",
    "propagator",
    "heine",
    "sample",
    "expectation",
    "verify-qarith",
    "verify-ncalgebra",
    "verify-qcalculus",
    "eval-q0",
    "heine-q1",
    "sample-q1",
    "propagator-negative-order",
    "expectation-missing-file",
    "syntax-error",
    "syntax-error",
)
CLI_ROUND_S = 8.5  # seconds of one round at the seed commit (same VM)

#: CLI cases that break the README exit-code contract at the seed commit.
#: They stay in the mix and count as failed ops until the program is fixed.
KNOWN_DEFECTS = {
    "verify-qcalculus": "exits 1: the qcalculus report holds a numpy.bool "
                        "that json cannot serialize",
    "eval-q0": "exits 1 with a traceback instead of 2",
    "heine-q1": "exits 1 with a traceback instead of 2",
    "sample-q1": "exits 1 with a traceback instead of 2",
    "expectation-missing-file": "exits 1 with a traceback instead of 2",
    "propagator-negative-order": "exits 0 with empty output instead of 2",
}


#: the median time of worker.probe() on the reference machine (the same VM,
#: quiet); run.py reports times scaled to this speed
PROBE_REF_S = 0.060


def work_estimate_s(workload: str, seconds: float) -> float:
    """Seconds of work in the op list at the seed commit (see the rates above)."""
    if workload == "exact":
        return _exact_rounds(seconds) * EXACT_ROUND_S
    if workload == "packet":
        return _packet_blocks(seconds) * PACKET_BLOCK_S
    return _cli_rounds(seconds) * CLI_ROUND_S


def _exact_rounds(seconds: float) -> int:
    return max(1, math.ceil(seconds / EXACT_ROUND_S))


def _packet_blocks(seconds: float) -> int:
    return max(1, math.ceil(seconds / PACKET_BLOCK_S))


def _cli_rounds(seconds: float) -> int:
    return max(1, math.ceil(seconds / CLI_ROUND_S))


def load_pool(workload: str) -> dict:
    with open(os.path.join(DATA, f"{workload}_pool.json")) as fh:
        return json.load(fh)


def _draw(rnd: random.Random, n_items: int, count: int) -> list[int]:
    """``count`` pool indices in a seeded order: whole passes over the pool,
    then the rest spread evenly over it from a seeded offset (systematic
    sampling), so that every run covers the pool's cost range alike."""
    full, rest = divmod(count, n_items)
    out = list(range(n_items)) * full
    if rest:
        step = n_items / rest
        start = rnd.random() * step
        out += [int(start + i * step) for i in range(rest)]
    rnd.shuffle(out)
    return out


def exact_ops(pool: dict, seed: int, seconds: float) -> list[list]:
    """``[kind, pool index]`` pairs, interleaved in a seeded order."""
    rnd = random.Random(f"exact:{seed}")
    rounds = _exact_rounds(seconds)
    ops = []
    for kind, per_round in EXACT_ROUND.items():
        for idx in _draw(rnd, len(pool[kind]), per_round * rounds):
            ops.append([kind, idx])
    rnd.shuffle(ops)
    return ops


def packet_ops(pool: dict, seed: int, seconds: float) -> list[list]:
    """Groups of ops, one group per packet: ``[packet index, t > 0 index]``.

    A block holds one packet of each term class, in a seeded order.  The
    t > 0 index is a seeded choice of ``+`` or ``-``: the two cost the same,
    while ``3`` costs a third less at t > 0 and would make a run's cost
    depend on which class drew it.  Index ``3`` is evaluated at t = 0.
    """
    rnd = random.Random(f"packet:{seed}")
    blocks = _packet_blocks(seconds)
    by_class = {c: [i for i, p in enumerate(pool["packets"]) if p["terms"] == c]
                for c in PACKET_CLASSES}
    picks = {c: _draw(rnd, len(by_class[c]), blocks) for c in PACKET_CLASSES}
    groups = []
    for block in range(blocks):
        classes = list(PACKET_CLASSES)
        rnd.shuffle(classes)
        for cls in classes:
            groups.append([by_class[cls][picks[cls][block]], rnd.choice(T_INDICES)])
    return groups


def cli_ops(pool: dict, seed: int, seconds: float) -> list[list]:
    """``[case, pool index]`` pairs: every case once per round, seeded order
    within a round and seeded parameters for each case."""
    rnd = random.Random(f"cli:{seed}")
    rounds = _cli_rounds(seconds)
    draws = {case: iter(_draw(rnd, len(pool["cases"][case]), rounds * CLI_ROUND.count(case)))
             for case in sorted(set(CLI_ROUND))}
    ops = []
    for _ in range(rounds):
        cases = list(CLI_ROUND)
        rnd.shuffle(cases)
        ops.extend([case, next(draws[case])] for case in cases)
    return ops


def op_list(workload: str, seed: int, seconds: float, pool: dict | None = None) -> list:
    pool = load_pool(workload) if pool is None else pool
    build = {"exact": exact_ops, "packet": packet_ops, "cli": cli_ops}[workload]
    return build(pool, seed, seconds)


def op_list_bytes(workload: str, seed: int, seconds: float) -> bytes:
    """Canonical bytes of an op list (the self-test compares these)."""
    return json.dumps(op_list(workload, seed, seconds), separators=(",", ":")).encode()
