"""Command-line surface.

Subcommands: parse, expand, eval, verify, propagator, expectation, heine,
sample.
Exit codes: 0 on success, 1 on verification failures, 2 on usage or syntax
errors, reported on one line of stderr.  JSON output is canonical (sorted
keys, no timestamps), so fixed seed and configuration reproduce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from itertools import product

from .qarith import QScalar
from .starcalc import Poly, coord_poly_to_json
from . import dsl
from .schrodinger import (
    PacketError,
    propagator_momentum,
    gaussian_packet,
    heine_phase_report,
)


class UsageError(Exception):
    """Bad command-line input; ``main`` reports it, like a DSL syntax or
    evaluation error, on one line and exits 2."""


def _parse_q(text: str) -> float:
    try:
        q0 = float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--q is not a number: {text!r}") from None
    if q0 == 0 or not math.isfinite(q0):
        raise UsageError(f"--q must be finite and nonzero, got {text!r}")
    return q0


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be finite, got {value}")
    return value


def _lattice(q0: float, j_min: int, j_max: int) -> QLattice:
    from .lattice import QLattice

    try:
        return QLattice(q0, j_min, j_max)
    except ValueError as exc:
        raise UsageError(f"bad lattice (q0={q0}, j in [{j_min}, {j_max}]): {exc}") from None


def _order(order: int, flag: str = "--order", cap: int | None = None) -> int:
    if order < 0:
        raise UsageError(f"{flag} must be >= 0, got {order}")
    if cap is not None and order > cap:
        raise UsageError(f"{flag} must be <= {cap}, got {order}")
    return order


def _mass(text) -> Fraction:
    try:
        mass = Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        mass = 0
    if mass == 0:
        raise UsageError(f"mass must be a nonzero rational, got {text!r}")
    return mass


#: the entries a packet file's ``packet`` object may hold, with their defaults
_PACKET_ENTRIES = {"center_j": 0.0, "width_j": 1.0, "odd_fraction": 0.0}


def _read_packet(path: str):
    """The lattice and the gaussian_packet arguments of a packet file."""
    try:
        with open(path) as fh:
            config = json.load(fh)
        lat, pk = config["lattice"], config["packet"]
        unknown = sorted(set(pk) - set(_PACKET_ENTRIES))
        if unknown:
            raise UsageError(
                f"packet file {path}: unknown packet entry {unknown[0]!r} "
                f"(accepted: {', '.join(_PACKET_ENTRIES)})"
            )
        shape = {
            key: _finite(float(pk.get(key, default)), f"packet file {path}: {key}")
            for key, default in _PACKET_ENTRIES.items()
        }
        return _lattice(float(lat["q0"]), int(lat["j_min"]), int(lat["j_max"])), dict(
            mass=_mass(config.get("mass", "1")),
            phase_order=int(config.get("phase_order", 16)),
            **shape,
        )
    except OSError as exc:
        raise UsageError(f"cannot read packet file {path}: {exc.strerror}") from None
    except KeyError as exc:
        raise UsageError(f"packet file {path}: missing entry {exc}") from None
    except (AttributeError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UsageError(f"packet file {path}: {exc}") from None


def _poly_json(value):
    if isinstance(value, QScalar):
        return value.to_json()
    if isinstance(value, Poly) and len(value.sectors) == 1:
        return coord_poly_to_json(value)
    # generic multi-sector dump
    return {
        "sectors": [s.kind for s in value.sectors],
        "convention": value.convention,
        "terms": [
            {
                "exps": [list(tr) for tr in triples],
                "t": t,
                "coeff": coeff.to_json(),
            }
            for (triples, t), coeff in sorted(value.terms.items())
        ],
    }


def cmd_parse(args) -> int:
    node = dsl.parse_expression(args.expr)
    print(dsl.to_sexp(node))
    try:
        same = dsl.parse_expression(dsl.print_expression(node)) == node
    except dsl.SyntaxErr:
        same = False
    if not same:
        print("warning: print/parse round trip failed", file=sys.stderr)
    return 0


def cmd_expand(args) -> int:
    value = dsl.evaluate(dsl.parse_expression(args.expr))
    if args.json:
        print(json.dumps(_poly_json(value), sort_keys=True))
    else:
        print(value)
    return 0


def cmd_eval(args) -> int:
    value = dsl.evaluate(dsl.parse_expression(args.expr))
    q0 = _parse_q(args.q)
    try:
        if isinstance(value, QScalar):
            v = value.eval(q0)
            print(f"{v.real!r} {v.imag!r}")
            return 0
        rows = []
        for (triples, t), coeff in sorted(value.terms.items()):
            v = coeff.eval(q0)
            rows.append(
                {
                    "exps": [list(tr) for tr in triples],
                    "t": t,
                    "value": [v.real, v.imag],
                }
            )
    except OverflowError:  # a power of q0 past the float range
        raise UsageError(f"the value leaves the float range at --q {args.q}") from None
    print(json.dumps(rows, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    try:
        report = run_suite(
            args.suite,
            seed=args.seed,
            q0=_parse_q(args.q),
            N=_order(args.N, "--N", dsl.MAX_ORDER),
            K=_order(args.K, "--K", dsl.MAX_ORDER),
            j_min=-args.grid,
            j_max=args.grid,
        )
    except ValueError as exc:  # a bad configuration; cases report their own errors
        raise UsageError(f"bad verify configuration: {exc}") from None
    except OverflowError:  # a power of q0 past the float range
        raise UsageError(f"the suite leaves the float range at --q {args.q}") from None
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    elif args.csv:
        print("suite,case,ok,detail")
        for c in report.cases:
            detail = c.detail.replace(",", ";")
            print(f"{report.suite},{c.name.replace(',', ';')},{int(c.ok)},{detail}")
    else:
        print(report.render())
    return report.exit_code


def cmd_propagator(args) -> int:
    branch = 1 if args.branch == "retarded" else -1
    order = _order(args.order, cap=dsl.MAX_ORDER)
    prop = propagator_momentum(args.family, branch, order, _mass(args.mass))
    if args.json:
        print(json.dumps(prop.to_json(), sort_keys=True))
    else:
        for power, poly in sorted(prop.expanded().items(), reverse=True):
            print(f"(E {'+' if branch > 0 else '-'} i eps)^{power} : {poly}")
    return 0


def cmd_expectation(args) -> int:
    t = _finite(args.t, "--t")
    lat, kwargs = _read_packet(args.packet)
    import numpy as np

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            wp = gaussian_packet(lat, **kwargs)
            wp.coefficients_at(t)  # rejects a t the phase series does not reach
            out = {
                "t": t,
                "norm_check": wp.norm_check(t),
                "boundary_mass": wp.boundary_mass(),
            }
            for a in ("+", "3", "-"):
                p = wp.expectation_momentum(a, t)
                x = wp.expectation_position(a, t)
                out[f"P^{a}"] = [p.real, p.imag]
                out[f"X^{a}"] = [x.real, x.imag]
    except PacketError as exc:
        raise UsageError(f"packet file {args.packet}: {exc}") from None
    except (OverflowError, FloatingPointError):  # a value past the float range
        raise UsageError(
            f"packet file {args.packet}: the packet leaves the float range "
            f"at q0 = {lat.q0}"
        ) from None
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_heine(args) -> int:
    q0 = _parse_q(args.q)
    mass = _finite(args.mass, "--mass")
    if q0 in (1.0, -1.0) or mass == 0:
        raise UsageError("the phase report needs --q not in {1, -1} and a nonzero --mass")
    order = _order(args.order)
    t = _finite(args.t, "--t")
    samples = [(0.8, 1.1, 0.9), (1.3, 0.7, 1.1)]
    try:
        rows = heine_phase_report(order, q0, t, mass, samples)
        text = json.dumps(rows, sort_keys=True, allow_nan=False)
    except (OverflowError, ValueError):  # k! past k = 170, or a nan or inf row
        raise UsageError(
            f"the phase report leaves the float range at --order {order}, --q {args.q}"
        ) from None
    print(text)
    return 0


#: the largest ``sample --grid``: time, memory and CSV size grow as grid^3
_MAX_SAMPLE_GRID = 16


def cmd_sample(args) -> int:
    from .lattice import StructuredFn, log_gaussian

    if not args.width > 0:
        raise UsageError(f"--width must be positive, got {args.width}")
    _finite(args.center, "--center")
    if args.grid > _MAX_SAMPLE_GRID:
        raise UsageError(f"--grid must be <= {_MAX_SAMPLE_GRID}, got {args.grid}")
    lat = _lattice(_parse_q(args.q), -args.grid, args.grid)
    env = log_gaussian(lat, args.center, args.width)
    axis = lat.axis_values()
    pts = [*axis, *-axis]  # sign + then -, j ascending within each
    f = StructuredFn.from_envelopes(lat, "x", (env, env, env))
    values = f.values_on(pts, pts, pts)
    try:
        with open(args.out, "w") as fh:
            fh.write("x1,x2,x3,re,im\n")
            for (x1, x2, x3), v in zip(product(pts, repeat=3), values.flat):
                if v != 0:
                    fh.write(f"{x1},{x2},{x3},{v.real},{v.imag}\n")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qeuclid",
        description="Star-product calculus on the q-deformed Euclidean space",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an expression and print its AST")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("expand", help="evaluate an expression symbolically")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("eval", help="evaluate coefficients numerically at q")
    p.add_argument("expr")
    p.add_argument("--q", default="1.1", help="deformation parameter (rational or float)")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("--suite", default="all",
                   choices=["qarith", "ncalgebra", "starcalc", "qcalculus",
                            "qexp", "schrodinger", "all"])
    p.add_argument("--q", default="11/10")
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--grid", type=int, default=12, help="lattice half-width")
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("propagator", help="momentum-space propagator series")
    p.add_argument("--family", default="KR",
                   choices=["KR", "KL", "KRstar", "KLstar"])
    p.add_argument("--branch", default="retarded",
                   choices=["retarded", "advanced"])
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--mass", default="1")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_propagator)

    p = sub.add_parser("expectation", help="wave-packet expectation values")
    p.add_argument("--packet", required=True, help="packet JSON file")
    p.add_argument("--t", type=float, default=0.0)
    p.set_defaults(fn=cmd_expectation)

    p = sub.add_parser("heine", help="per-order phase-factor comparison report")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--q", default="11/10")
    p.add_argument("--t", type=float, default=0.3)
    p.add_argument("--mass", type=float, default=1.0)
    p.set_defaults(fn=cmd_heine)

    p = sub.add_parser("sample", help="sample a Gaussian on the lattice to CSV")
    p.add_argument("--q", default="11/10")
    p.add_argument("--grid", type=int, default=8)
    p.add_argument("--center", type=float, default=0.0)
    p.add_argument("--width", type=float, default=1.2)
    p.add_argument("--out", default="lattice.csv")
    p.set_defaults(fn=cmd_sample)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except dsl.SyntaxErr as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, dsl.EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
