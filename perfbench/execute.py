"""The benchmark's ops against qeuclid's public API, and their checks.

Each op function makes the program calls of one op, each inside a span
named ``<module>.<public function>``, and returns what the caller checks.
``record.py`` calls the same functions to record the reference outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

from qeuclid import qexp
from qeuclid import schrodinger
from qeuclid.lattice import QLattice
from qeuclid.ncalgebra import star_via_weyl
from qeuclid.qarith import GRat, QScalar, q_binomial
from qeuclid.qcalculus import apply_derivative, d, inverse_partial
from qeuclid.starcalc import X_SECTOR, Poly, coord_poly_to_json, star_product

from workloads import INDICES

#: criterion 10's tolerance, used for every packet check
PACKET_TOL = 1e-10


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- exact ---------------------------------------------------------------------


def make_poly(spec: list, convention: str) -> Poly:
    """A single-sector position polynomial from ``[[a, b, c, t, e, re, im], ...]``:
    the sum of q^e (re + i im) x+^a x3^b x-^c t^t."""
    out = Poly.zero((X_SECTOR,), convention)
    for a, b, c, t, e, re_, im in spec:
        coeff = QScalar.monomial(e, GRat(Fraction(re_), Fraction(im)))
        out = out + Poly.monomial((X_SECTOR,), ((a, b, c),), t, coeff, convention)
    return out


def make_exact_inputs(kind: str, spec: dict) -> dict:
    """The program objects an exact op consumes (built during set-up)."""
    if kind in ("star", "weyl"):
        return {"f": make_poly(spec["f"], spec["conv"]),
                "g": make_poly(spec["g"], spec["conv"])}
    if kind in ("roundtrip", "translate"):
        return {"f": make_poly(spec["f"], "W")}
    return {}


def _xy_payload(p: Poly) -> dict:
    """Canonical JSON of a two-sector (x, y) polynomial, which
    ``coord_poly_to_json`` does not cover."""
    return {
        "sectors": [s.kind for s in p.sectors],
        "terms": [[[list(tr) for tr in triples], t, coeff.to_json()]
                  for (triples, t), coeff in sorted(p.terms.items())],
    }


def exact_op(kind: str, spec: dict, inputs: dict, tr, op_id: int):
    """Run one exact op.  Returns ``(payload, problems)``: ``payload`` is a
    callable giving the canonical JSON of the result (hashed outside the
    op's timed region); ``problems`` lists failed oracle or residual checks."""
    problems = []
    if kind == "star":
        with tr.span("starcalc.star_product", op_id):
            out = star_product(inputs["f"], inputs["g"])
        tr.count("starcalc.star_product.out_terms", len(out.terms))
        return (lambda: coord_poly_to_json(out)), problems
    if kind == "weyl":
        with tr.span("ncalgebra.star_via_weyl", op_id):
            oracle = star_via_weyl(inputs["f"], inputs["g"])
        with tr.span("starcalc.star_product", op_id):
            out = star_product(inputs["f"], inputs["g"])
        tr.count("starcalc.star_product.out_terms", len(out.terms))
        if oracle != out:
            problems.append("PBW oracle differs from the star product")
        return (lambda: coord_poly_to_json(oracle)), problems
    if kind == "roundtrip":
        label = d(spec["index"])
        with tr.span("qcalculus.inverse_partial", op_id):
            antider = inverse_partial(label, inputs["f"])
        with tr.span("qcalculus.apply_derivative", op_id):
            back = apply_derivative(label, antider)
        if back != inputs["f"]:
            problems.append("derivative of the inverse derivative differs from f")
        return (lambda: coord_poly_to_json(antider)), problems
    if kind == "qbinom":
        with tr.span("qarith.q_binomial", op_id):
            out = q_binomial(spec["n"], spec["k"], spec["base"])
        return (lambda: out.to_json()), problems
    if kind == "cq":
        with tr.span("schrodinger.cq_recurrence_residual", op_id):
            res = schrodinger.cq_recurrence_residual(spec["k"], spec["l"])
        if not res.is_zero():
            problems.append("C(k, l) recurrence residual is not zero")
        return (lambda: res.to_json()), problems
    if kind == "exp":
        with tr.span("qexp.build_exponential", op_id):
            e = qexp.build_exponential(spec["variant"], spec["order"])
        with tr.span("qexp.eigen_residual", op_id):
            res = qexp.eigen_residual(e, spec["index"])
        with tr.span("qexp.below_shell", op_id):
            low = qexp.below_shell(res, spec["order"])
        if not low.is_zero():
            problems.append("eigen residual below the truncation shell is not zero")
        return (lambda: qexp.exponential_to_json(e)), problems
    if kind == "translate":
        with tr.span("qexp.q_translate", op_id):
            res = qexp.q_translate(inputs["f"], spec["tkind"])
        return (lambda: _xy_payload(res.polynomial)), problems
    if kind == "prop":
        with tr.span("schrodinger.propagator_momentum", op_id):
            prop = schrodinger.propagator_momentum(
                spec["family"], spec["branch"], spec["order"], Fraction(spec["mass"]))
        with tr.span("schrodinger.propagator_defining_residual", op_id):
            res = schrodinger.propagator_defining_residual(prop)
        if not set(res) <= {-(spec["order"] + 1)}:
            problems.append("propagator residual survives below the truncation term")
        return (lambda: prop.to_json()), problems
    raise ValueError(f"unknown exact op {kind!r}")


# -- packet --------------------------------------------------------------------

#: ops of one packet group: the group ops, then three t = 0 ops for every
#: index, then three t > 0 ops for each of the group's seeded indices.  The
#: mix puts the median op inside the t = 0 <X> ops, away from a regime edge.
PACKET_GROUP_OPS = ("build", "star_integral", "norm_t", "norm_0")
PACKET_T0_OPS = ("p_0", "x_0", "x_0_lower")
PACKET_T_OPS = ("p_t", "p_t_lower", "x_t")


def packet_group_ops(t_indices) -> list[tuple[str, str | None]]:
    ops = [(name, None) for name in PACKET_GROUP_OPS]
    ops += [(name, a) for a in INDICES for name in PACKET_T0_OPS]
    ops += [(name, a) for a in t_indices for name in PACKET_T_OPS]
    return ops


class PacketGroup:
    """One packet while its ops run; ``run`` performs one op by name."""

    def __init__(self, spec: dict, tr):
        self.spec = spec
        self.tr = tr
        self.lattice = QLattice(1.1, -spec["half_width"], spec["half_width"])
        self.t = spec["t"]
        self.wp = None
        self.coeffs = None

    def run(self, name: str, a: str | None, op_id: int) -> list[float]:
        """One op: returns its value as a list of floats."""
        s, tr, wp = self.spec, self.tr, self.wp
        if name == "build":
            with tr.span("schrodinger.gaussian_packet", op_id):
                self.wp = schrodinger.gaussian_packet(
                    self.lattice, Fraction(s["mass"]), center_j=s["center_j"],
                    width_j=s["width_j"], odd_fraction=s["odd_fraction"],
                    phase_order=s["phase_order"])
            with tr.span("schrodinger.coefficients_at", op_id):
                self.coeffs = self.wp.coefficients_at(self.t)
            terms = len(self.coeffs[0].terms)
            tr.count("schrodinger.coefficients_at.terms", terms)
            return [float(terms)]
        if name == "star_integral":
            ct, cst = self.coeffs[0], self.coeffs[1]
            with tr.span("lattice.star_integral", op_id):
                v = cst.star_integral(ct)
            tr.count("lattice.star_integral.term_pairs", len(cst.terms) * len(ct.terms))
            return [v.real, v.imag]
        if name in ("norm_t", "norm_0"):
            with tr.span("schrodinger.norm_check", op_id):
                return [wp.norm_check(self.t if name == "norm_t" else 0.0)]
        what, when, *lower = name.split("_")
        t = self.t if when == "t" else 0.0
        position = "lower" if lower else "upper"
        if what == "p":
            with tr.span("schrodinger.expectation_momentum", op_id):
                v = wp.expectation_momentum(a, t, position=position)
        else:
            with tr.span("schrodinger.expectation_position", op_id):
                v = wp.expectation_position(a, t, position=position)
        return [v.real, v.imag]


def packet_problems(key: str, value: list[float], values: dict) -> list[str]:
    """Criterion-10 identities for the op ``key`` (``name`` or ``name:a``),
    given the values of the group's earlier ops: norms, <P> constant in
    time, and upper/lower conjugation symmetry of <P> and <X>."""
    name, _, a = key.partition(":")
    if name in ("norm_t", "norm_0"):
        return [] if value[0] <= PACKET_TOL else [f"{name} = {value[0]:.2e} > {PACKET_TOL}"]
    got = complex(*value)
    if name == "p_t" and f"p_0:{a}" in values:
        drift = abs(got - complex(*values[f"p_0:{a}"]))
        return [] if drift <= PACKET_TOL else [f"<P^{a}> moves by {drift:.2e} in time"]
    if name.endswith("_lower") and f"{name[:-6]}:{a}" in values:
        off = abs(got - complex(*values[f"{name[:-6]}:{a}"]).conjugate())
        return [] if off <= PACKET_TOL else [f"{name}:{a} breaks conjugation symmetry by {off:.2e}"]
    return []


def close_to(got: list[float], ref: list[float], tol: float = PACKET_TOL) -> bool:
    return len(got) == len(ref) and all(
        abs(g - r) <= tol * max(1.0, abs(r)) for g, r in zip(got, ref))


# -- cli -----------------------------------------------------------------------

#: where the CLI cases read and write files, relative to the checkout root
CLI_DIR = ".bench_out/cli"
FLOAT = re.compile(r"-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|nan|inf)")
#: commands whose output is floating point: compared within PACKET_TOL
NUMERIC_COMMANDS = ("eval", "heine", "expectation", "sample")


def csv_summary(path: str) -> list[float]:
    """Row count and per-column sums of |v| and v^2 of a sampled CSV."""
    sums = [0.0] * 10
    rows = 0
    with open(path) as fh:
        next(fh)
        for line in fh:
            rows += 1
            for i, v in enumerate(map(float, line.split(","))):
                sums[2 * i] += abs(v)
                sums[2 * i + 1] += v * v
    return [float(rows)] + sums


def cli_observe(argv: list[str], stdout: str, root: str) -> dict:
    """What is compared with the reference for a run that exited 0."""
    if argv[0] not in NUMERIC_COMMANDS:
        return {"digest": digest(stdout)}
    numbers = [float(x) for x in FLOAT.findall(stdout)]
    if argv[0] == "sample":
        numbers += csv_summary(os.path.join(root, argv[argv.index("--out") + 1]))
    return {"skeleton": digest(FLOAT.sub("#", stdout)), "numbers": numbers}


def cli_matches(observed: dict, ref: dict) -> bool:
    if "digest" in ref:
        return observed.get("digest") == ref["digest"]
    return observed.get("skeleton") == ref["skeleton"] and close_to(
        observed.get("numbers", []), ref["numbers"])


def run_cli(argv: list[str], root: str, env: dict, timeout: float):
    """``python -m qeuclid.cli <argv>`` from the checkout root."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qeuclid.cli", *argv], cwd=root, env=env,
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return proc


def cli_problems(case: dict, proc, root: str) -> list[str]:
    """The README contract: 0 on success with the recorded output; 2 with one
    line on stderr for bad input."""
    if proc is None:
        return ["timed out"]
    want = case["expect_exit"]
    if proc.returncode != want:
        return [f"exit {proc.returncode}, expected {want}"]
    if want == 2:
        lines = [ln for ln in proc.stderr.splitlines() if ln.strip()]
        return [] if len(lines) == 1 else [f"{len(lines)} lines on stderr, expected 1"]
    ref = case.get("ref")
    if ref is not None and not cli_matches(cli_observe(case["argv"], proc.stdout, root), ref):
        return ["stdout differs from the recorded output"]
    return []


def defect_signature(proc) -> dict:
    """How a CLI run ended: exit code, last line on stderr and stdout digest.
    A known-defect op counts as known only while it fails exactly as it did
    at the seed commit."""
    if proc is None:
        return {"timed_out": True}
    err = [ln for ln in proc.stderr.splitlines() if ln.strip()]
    return {"exit": proc.returncode, "stderr_tail": err[-1] if err else "",
            "stdout": digest(proc.stdout)}


def is_known_defect(case: dict, proc) -> bool:
    return "defect" in case and defect_signature(proc) == case["defect"]


def write_cli_inputs(root: str, packet_files: list) -> None:
    """Create the packet files the ``expectation`` cases read."""
    os.makedirs(os.path.join(root, CLI_DIR), exist_ok=True)
    for i, config in enumerate(packet_files):
        with open(os.path.join(root, CLI_DIR, f"packet-{i}.json"), "w") as fh:
            json.dump(config, fh, sort_keys=True)
