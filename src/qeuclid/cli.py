"""Command-line surface.

Subcommands: parse, expand, eval, verify, propagator, expectation, heine,
sample.
Exit codes: 0 on success, 1 on verification failures, 2 on usage or syntax
errors, reported on one line of stderr.  JSON output is canonical (sorted
keys, no timestamps), so fixed seed and configuration reproduce
byte-identical reports.

Each command checks its arguments first and then imports the layers it
runs: ``parse`` needs only ``dsl`` and ``qarith``, a bad argument is
reported before any other qeuclid module loads, and numpy loads only where
a lattice is sampled.  Only the invoked command's parser is built; every
command's is built when the first argument names none (``--help``, a bad
command, no command), so help and errors read as they always have.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import product

from . import MAX_ORDER


class UsageError(Exception):
    """Bad command-line input, a DSL evaluation error among them; ``main``
    reports it on one line of stderr, after ``prefix``, and exits 2."""

    prefix = "error"


class ExpressionSyntaxError(UsageError):
    prefix = "syntax error"


def _parse(text: str):
    """The ``dsl`` module and the syntax tree of ``text``."""
    from . import dsl

    try:
        return dsl, dsl.parse_expression(text)
    except dsl.SyntaxErr as exc:
        raise ExpressionSyntaxError(exc) from None


def _evaluate(text: str):
    """The value of the expression ``text``: a ``QScalar`` or a ``Poly``."""
    dsl, node = _parse(text)
    try:
        return dsl.evaluate(node)
    except dsl.EvalError as exc:
        raise UsageError(exc) from None


def _parse_q(text: str) -> float:
    try:
        if "/" in text:
            from fractions import Fraction

            q0 = float(Fraction(text))
        else:
            q0 = float(text)
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
    where = f"bad lattice (q0={q0}, j in [{j_min}, {j_max}])"
    if not q0 > 1:  # QLattice checks it too, but only after numpy has loaded
        raise UsageError(f"{where}: q0 must be > 1")
    from .lattice import QLattice

    try:
        return QLattice(q0, j_min, j_max)
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from None


def _order(order: int, flag: str = "--order", cap: int | None = None, least: int = 0) -> int:
    # keep the error on one short line: int(1e300) alone has 301 digits
    if abs(order) < 10**20:
        shown = order
    else:
        from decimal import Decimal

        shown = f"{Decimal(order):.3g}"
    if order < least:
        raise UsageError(f"{flag} must be >= {least}, got {shown}")
    if cap is not None and order > cap:
        raise UsageError(f"{flag} must be <= {cap}, got {shown}")
    return order


def _integer(value, what: str) -> int:
    # a JSON integer: int() would read true as 1 and truncate 19.9 to 19
    if type(value) is not int:
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return value


def _mass(text) -> Fraction:
    from fractions import Fraction

    try:
        mass = Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        mass = 0
    if not mass > 0:
        raise UsageError(f"mass must be a positive rational, got {text!r}")
    return mass


#: the entries a packet file's ``packet`` object may hold
_PACKET_ENTRIES = ("center_j", "width_j", "odd_fraction")


def _read_packet(path: str):
    """The lattice and the gaussian_packet arguments the packet file holds
    (``gaussian_packet`` owns the defaults of the others); every entry is
    checked before the lattice layer loads."""
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
        kwargs = {key: _finite(float(value), f"packet file {path}: {key}")
                  for key, value in pk.items()}
        if "mass" in config:
            kwargs["mass"] = _mass(config["mass"])
        if "phase_order" in config:
            flag = f"packet file {path}: phase_order"
            kwargs["phase_order"] = _order(_integer(config["phase_order"], flag), flag,
                                           MAX_ORDER)
        j_min, j_max = (_integer(lat[key], f"packet file {path}: {key}")
                        for key in ("j_min", "j_max"))
        return _lattice(float(lat["q0"]), j_min, j_max), kwargs
    except OSError as exc:
        raise UsageError(f"cannot read packet file {path}: {exc.strerror}") from None
    except KeyError as exc:
        raise UsageError(f"packet file {path}: missing entry {exc}") from None
    except (AttributeError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UsageError(f"packet file {path}: {exc}") from None


def _poly_json(value):
    from .qarith import QScalar

    if isinstance(value, QScalar):
        return value.to_json()
    if len(value.sectors) == 1:
        from .starcalc import coord_poly_to_json

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
    dsl, node = _parse(args.expr)
    print(dsl.to_sexp(node))
    try:
        same = dsl.parse_expression(dsl.print_expression(node)) == node
    except dsl.SyntaxErr:
        same = False
    if not same:
        print("warning: print/parse round trip failed", file=sys.stderr)
    return 0


def cmd_expand(args) -> int:
    value = _evaluate(args.expr)
    try:
        text = json.dumps(_poly_json(value), sort_keys=True) if args.json else str(value)
    except ValueError:  # an integer longer than Python converts to a string
        raise UsageError("the value holds an integer too long to print") from None
    print(text)
    return 0


def cmd_eval(args) -> int:
    q0 = _parse_q(args.q)
    value = _evaluate(args.expr)
    from .qarith import QScalar

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
    q0 = _parse_q(args.q)
    N = _order(args.N, "--N", MAX_ORDER)
    K = _order(args.K, "--K", MAX_ORDER)
    # every suite, also those that ignore it: a grid of 0 is a one-exponent
    # window, on which no Jackson derivative or packet is defined
    grid = _order(args.grid, "--grid", least=1)
    from .verify import run_suite

    try:
        report = run_suite(args.suite, seed=args.seed, q0=q0, N=N, K=K, grid=grid)
    except ValueError as exc:  # a bad configuration; cases report their own errors
        raise UsageError(f"bad verify configuration: {exc}") from None
    except OverflowError:  # a power of q0 past the float range
        raise UsageError(f"the suite leaves the float range at --q {args.q}") from None
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report.render())
    return report.exit_code


def cmd_propagator(args) -> int:
    branch = 1 if args.branch == "retarded" else -1
    order = _order(args.order, cap=MAX_ORDER)
    mass = _mass(args.mass)
    from .schrodinger import propagator_momentum

    prop = propagator_momentum(args.family, branch, order, mass)
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

    from .schrodinger import PacketError, gaussian_packet

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            wp = gaussian_packet(lat, **kwargs)
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
    if q0 in (1.0, -1.0) or not mass > 0:
        raise UsageError("the phase report needs --q not in {1, -1} and a positive --mass")
    order = _order(args.order)
    t = _finite(args.t, "--t")
    from .schrodinger import heine_phase_report

    samples = [(0.8, 1.1, 0.9), (1.3, 0.7, 1.1)]
    try:
        rows = heine_phase_report(order, q0, t, mass, samples)
        text = json.dumps(rows, sort_keys=True, allow_nan=False)
    except (OverflowError, ValueError, ZeroDivisionError):  # k! past 170, nan or inf, q0^2 -> 0
        raise UsageError(
            f"the phase report leaves the float range at --order {order}, --q {args.q}"
        ) from None
    print(text)
    return 0


#: the largest ``sample --grid``: time, memory and CSV size grow as grid^3
_MAX_SAMPLE_GRID = 16


def cmd_sample(args) -> int:
    if not args.width > 0:
        raise UsageError(f"--width must be positive, got {args.width}")
    _finite(args.width, "--width")
    _finite(args.center, "--center")
    if args.grid > _MAX_SAMPLE_GRID:
        raise UsageError(f"--grid must be <= {_MAX_SAMPLE_GRID}, got {args.grid}")
    lat = _lattice(_parse_q(args.q), -args.grid, args.grid)
    import numpy as np

    from .lattice import StructuredFn, log_gaussian

    axis = lat.axis_values()
    pts = [*axis.tolist(), *(-axis).tolist()]  # sign + then -, j ascending within each
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            env = log_gaussian(lat, args.center, args.width)
            f = StructuredFn.from_envelopes(lat, "x", (env, env, env))
            values = f.values_on(pts, pts, pts)
    except FloatingPointError:  # say, a width so small that 1/w^2 overflows
        raise UsageError(
            f"the sample leaves the float range at --center {args.center}, "
            f"--width {args.width}"
        ) from None
    # Python floats print the shortest repr, as numpy's float64 scalars do,
    # and far faster; each axis point is formatted once
    labels = [repr(x) for x in pts]
    rows = zip(product(labels, repeat=3), values.real.ravel().tolist(),
               values.imag.ravel().tolist())
    try:
        with open(args.out, "w") as fh:
            fh.write("x1,x2,x3,re,im\n")
            fh.writelines(f"{x1},{x2},{x3},{re},{im}\n"
                          for (x1, x2, x3), re, im in rows if re or im)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None
    print(f"wrote {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as a ``UsageError``, on one line of stderr;
    the subcommand parsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


#: the commands, in the order ``qeuclid --help`` lists them
COMMANDS = ("parse", "expand", "eval", "verify", "propagator", "expectation", "heine",
            "sample")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subparser of ``command`` only, or of every
    command when ``command`` names none: only then can a help or error
    message list them all."""
    ap = _Parser(
        prog="qeuclid",
        description="Star-product calculus on the q-deformed Euclidean space",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    wanted = {command} if command in COMMANDS else set(COMMANDS)

    if "parse" in wanted:
        p = sub.add_parser("parse", help="parse an expression and print its AST")
        p.add_argument("expr")
        p.set_defaults(fn=cmd_parse)

    if "expand" in wanted:
        p = sub.add_parser("expand", help="evaluate an expression symbolically")
        p.add_argument("expr")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=cmd_expand)

    if "eval" in wanted:
        p = sub.add_parser("eval", help="evaluate coefficients numerically at q")
        p.add_argument("expr")
        p.add_argument("--q", default="1.1", help="deformation parameter (rational or float)")
        p.set_defaults(fn=cmd_eval)

    if "verify" in wanted:
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
        p.set_defaults(fn=cmd_verify)

    if "propagator" in wanted:
        p = sub.add_parser("propagator", help="momentum-space propagator series")
        p.add_argument("--family", default="KR",
                       choices=["KR", "KL", "KRstar", "KLstar"])
        p.add_argument("--branch", default="retarded",
                       choices=["retarded", "advanced"])
        p.add_argument("--order", type=int, default=6)
        p.add_argument("--mass", default="1")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=cmd_propagator)

    if "expectation" in wanted:
        p = sub.add_parser("expectation", help="wave-packet expectation values")
        p.add_argument("--packet", required=True, help="packet JSON file")
        p.add_argument("--t", type=float, default=0.0)
        p.set_defaults(fn=cmd_expectation)

    if "heine" in wanted:
        p = sub.add_parser("heine", help="per-order phase-factor comparison report")
        p.add_argument("--order", type=int, default=6)
        p.add_argument("--q", default="11/10")
        p.add_argument("--t", type=float, default=0.3)
        p.add_argument("--mass", type=float, default=1.0)
        p.set_defaults(fn=cmd_heine)

    if "sample" in wanted:
        p = sub.add_parser("sample", help="sample a Gaussian on the lattice to CSV")
        p.add_argument("--q", default="11/10")
        p.add_argument("--grid", type=int, default=8)
        p.add_argument("--center", type=float, default=0.0)
        p.add_argument("--width", type=float, default=1.2)
        p.add_argument("--out", default="lattice.csv")
        p.set_defaults(fn=cmd_sample)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # the command comes first; anything else (--help, a bad name, none)
        # is answered by the parser of every command
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
