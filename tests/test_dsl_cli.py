import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qeuclid
from qeuclid import dsl
from qeuclid.cli import COMMANDS, build_parser, main
from qeuclid.qarith import QScalar, I, LAMBDA
from qeuclid.starcalc import coord_variable, star_product


#: the import root of the qeuclid under test, handed on to the subprocesses
SRC = os.path.dirname(os.path.dirname(qeuclid.__file__))


def run_python(*args, timeout=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )
    # the "error" warnings filter does not reach a subprocess: fail on any warning
    assert "Warning" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(*argv, timeout=None):
    return run_python("-m", "qeuclid.cli", *argv, timeout=timeout)


def test_parse_examples():
    node = dsl.parse_expression("star(x-, x+)")
    assert node == ("star", ("coord", "x-"), ("coord", "x+"))
    node = dsl.parse_expression("d[+] |> star(x+, x+)")
    assert node[0] == "apply" and node[1] == "d"


def test_parse_error_position():
    with pytest.raises(dsl.SyntaxErr) as err:
        dsl.parse_expression("star(x-,")
    assert err.value.position == 8


def test_print_parse_roundtrip():
    for src in (
        "star(x-, x+)",
        "d[+] |> star(x+, x+)",
        "conj(star(x3, p-))",
        "translate[plusbar](x3)",
        "invert[minus](x+)",
        "exp[x_ip](2)",
        "q^-2*x+ + 3/2*x3",
        "dinv[3](x3)",
    ):
        node = dsl.parse_expression(src)
        assert dsl.parse_expression(dsl.print_expression(node)) == node


@pytest.mark.parametrize(
    "src, text",
    [
        ("i", "i"),
        ("q", "q"),
        ("q^0", "1"),
        ("q^-3", "q^-3"),
        ("q^7", "q^7"),
        ("0", "(0)"),
        ("7", "7"),
        ("3/4", "3/4"),
        ("6/4", "3/2"),
    ],
)
def test_print_literal_forms(src, text):
    """The printed text of each literal form the parser makes, which
    parses back to the same node."""
    node = dsl.parse_expression(src)
    assert node[0] == "lit"
    assert dsl.print_expression(node) == text
    assert dsl.parse_expression(text) == node


@pytest.mark.parametrize(
    "src",
    [
        "x3 * d[+](x+)",
        "-(x3 + x+)",
        "-(x3 * x+)",
        "-d[3](x3) * (x3 + 1/2)",
        "x3 - (x+ - x-)",
        "x3 + (x+ + x-)",
        "x3 * (x+ * x-)",
        "(d[+] |> x+) + x3 * (x- - q^-1)",
        "star(x+, d[-] |> x3) - -x3",
    ],
)
def test_print_parse_roundtrip_brackets(src, capsys):
    node = dsl.parse_expression(src)
    assert dsl.parse_expression(dsl.print_expression(node)) == node
    assert main(["parse", "--", src]) == 0
    out, err = capsys.readouterr()
    assert out.strip() == dsl.to_sexp(node) and err == ""


@pytest.mark.parametrize("name", dsl.FORMS)
def test_call_form_offsets_and_round_trips(name):
    """Every call form of the table: a bad bracket word (an unknown one, an
    empty bracket, the end of input), or a bracket on a form that takes
    none, is reported at its own offset; each valid spelling prints in
    canonical form, an omitted bracket as its default word, and parses back
    to the same tree."""
    form = dsl.FORMS[name]
    args = ", ".join("2" if arg == "order" else "x3" for arg in form.args)
    for src in (f"{name}[nope]({args})", f"{name}[]({args})", f"{name}["):
        with pytest.raises(dsl.SyntaxErr) as err:
            dsl.parse_expression(src)
        assert err.value.position == len(name) + bool(form.words), (src, str(err.value))
    spellings = [(word, f"[{word}]") for word in form.words]
    if form.default:
        spellings.append((form.default, ""))
    if not form.words:
        spellings.append((None, ""))
    for word, bracket in spellings:
        node = dsl.parse_expression(f"{name}{bracket}({args})")
        head = f"{name}[{word}]" if word else name
        text = f"{head} |> {args}" if form.operator else f"{head}({args})"
        assert dsl.print_expression(node) == text
        assert dsl.parse_expression(text) == node
        if form.operator:
            assert dsl.parse_expression(f"{name}{bracket} |> {args}") == node


def test_evaluate_star():
    value = dsl.evaluate(dsl.parse_expression("star(x-, x+)"))
    xm, xp, x3 = (coord_variable(v) for v in ("x-", "x+", "x3"))
    assert value == star_product(xm, xp)
    value = dsl.evaluate(dsl.parse_expression("star(x-, x+) - star(x+, x-)"))
    assert value == x3.mul_pointwise(x3).scale(LAMBDA)


def test_evaluate_scalars():
    from fractions import Fraction

    v = dsl.evaluate(dsl.parse_expression("q^2 + 3/2 - i"))
    want = QScalar.q(2) + QScalar.from_rational(Fraction(3, 2)) - I
    assert v == want


def test_evaluate_runs_only_the_scalar_operation_asked(monkeypatch):
    """A scalar binary node computes its own operation alone: q + q^2 makes
    no subtraction and no product."""
    node = dsl.parse_expression("q + q^2")
    calls = []
    for name in ("__sub__", "__mul__"):
        def spy(a, b, name=name, original=getattr(QScalar, name)):
            calls.append(name)
            return original(a, b)

        monkeypatch.setattr(QScalar, name, spy)
    value = dsl.evaluate(node)
    seen = list(calls)
    monkeypatch.undo()
    assert seen == []
    assert value == QScalar.q(1) + QScalar.q(2)


def test_cli_expand_and_exit_codes():
    code, out, _ = run_cli("expand", "star(x-, x+)")
    assert code == 0 and "x+*x-" in out
    code, _, err = run_cli("parse", "star(x-,")
    assert code == 2 and "syntax error" in err
    code, out, _ = run_cli("parse", "d[+] |> star(x+, x+)")
    assert code == 0 and out.startswith("(apply d +")


def test_cli_verify_json_deterministic():
    code1, out1, _ = run_cli("verify", "--suite", "qarith", "--json", "--seed", "7")
    code2, out2, _ = run_cli("verify", "--suite", "qarith", "--json", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports
    report = json.loads(out1)
    assert report["n_failures"] == 0


def _failed_and_repros(text):
    """The [FAIL] lines of a rendered report and the repro lines under them."""
    lines = [line.strip() for line in text.splitlines()]
    failed = [line for line in lines if line.startswith("[FAIL]")]
    repros = [line[len("repro: "):] for line in lines if line.startswith("repro: ")]
    return failed, repros


def test_cli_verify_repro_reproduces_failure():
    """A failing case prints a command that runs the failing configuration:
    under "all" the whole run, whose one random stream feeds every suite.
    At q = 2 and grid 30 the dense Jackson case fails on a nan residual,
    which must print no numpy warning."""
    for suite, q, grid in (("qcalculus", "1.5", "8"), ("all", "1.5", "8"),
                           ("qcalculus", "2", "30")):
        code, out, _ = run_cli("verify", "--suite", suite, "--q", q, "--grid", grid)
        failed, repros = _failed_and_repros(out)
        assert code == 1 and failed and len(repros) == len(failed)
        argv = repros[0].split()
        assert argv[:2] == ["qeuclid", "verify"], repros[0]
        code2, out2, _ = run_cli(*argv[1:])
        assert code2 == code
        assert _failed_and_repros(out2) == (failed, repros), suite


def test_cli_verify_qexp_at_order_8_is_bounded():
    """The addition-theorem and inverse-exponential cases share one order
    cap, so a large --N stays cheap."""
    code, out, _ = run_cli("verify", "--suite", "qexp", "--N", "8", timeout=10)
    assert code == 0, out
    assert "addition theorem below shell (capped at N=6)" in out
    assert "inverse exponential collapses to 1 below shell (capped at N=6)" in out


def test_cli_propagator_json():
    code, out, _ = run_cli(
        "propagator", "--family", "KR", "--branch", "retarded", "--order", "3", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 3 and len(data["series"]) == 4


def test_cli_expectation(tmp_path):
    config = {
        "lattice": {"q0": 1.1, "j_min": -10, "j_max": 10},
        "mass": "2",
        "phase_order": 16,
        "packet": {"center_j": 0.2, "width_j": 0.8, "odd_fraction": 0.3},
    }
    path = tmp_path / "packet.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli("expectation", "--packet", str(path), "--t", "0.1")
    assert code == 0, err
    data = json.loads(out)
    assert data["norm_check"] <= 1e-10
    assert "P^3" in data and "X^3" in data


def test_cli_expectation_takes_its_defaults_from_gaussian_packet(tmp_path, capsys):
    """A packet file naming no packet entry, mass or phase order prints the
    values of ``gaussian_packet(lattice)``, bit for bit: the builder owns
    every default."""
    from qeuclid.lattice import QLattice
    from qeuclid.schrodinger import gaussian_packet

    path = tmp_path / "packet.json"
    path.write_text(json.dumps({"lattice": {"q0": 1.1, "j_min": -8, "j_max": 8}, "packet": {}}))
    assert main(["expectation", "--packet", str(path), "--t", "0.1"]) == 0
    wp = gaussian_packet(QLattice(1.1, -8, 8))
    want = {"t": 0.1, "norm_check": wp.norm_check(0.1), "boundary_mass": wp.boundary_mass()}
    for a in ("+", "3", "-"):
        p, x = wp.expectation_momentum(a, 0.1), wp.expectation_position(a, 0.1)
        want[f"P^{a}"], want[f"X^{a}"] = [p.real, p.imag], [x.real, x.imag]
    assert json.loads(capsys.readouterr().out) == want


def test_cli_heine_and_sample(tmp_path):
    code, out, _ = run_cli("heine", "--order", "3", "--t", "0.2")
    assert code == 0
    rows = json.loads(out)
    assert {r["k"] for r in rows} == {0, 1, 2, 3}
    out_csv = tmp_path / "g.csv"
    code, _, _ = run_cli("sample", "--grid", "3", "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,re,im" and len(lines) - 1 == (2 * 7) ** 3


def test_main_entry_direct(capsys):
    assert main(["expand", "exp[x_ip](1)"]) == 0
    captured = capsys.readouterr()
    assert "p+" in captured.out


def _help(run, argv) -> str:
    out = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stdout(out):
        run(argv)
    assert exc.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_is_the_full_parsers(command):
    """``main`` builds only the invoked command's parser; its help is the
    one the parser of every command prints, and ``--help`` lists them all."""
    assert _help(main, [command, "--help"]) == _help(build_parser().parse_args,
                                                     [command, "--help"])
    assert f" {command} " in _help(main, ["--help"])


#: expressions whose syntax tree is n levels high
NESTED = {
    "parens": lambda n: "(" * (n - 1) + "x3" + ")" * (n - 1),
    "conj": lambda n: "conj(" * (n - 1) + "x3" + ")" * (n - 1),
    "sum": lambda n: " + ".join(["x3"] * n),
}


_WINDOW = {"q0": 1.1, "j_min": -10, "j_max": 10}
#: packet files refused with a line that names the offending entry: the
#: file's content and a part of that line
PACKET_FILE_ERRORS = {
    "top_array": ([1], "the top-level value must be a JSON object, got an array"),
    "top_null": (None, "the top-level value must be a JSON object, got null"),
    "lattice_array": ({"lattice": [], "packet": {}},
                      "the lattice value must be a JSON object, got an array"),
    "packet_array": ({"lattice": _WINDOW, "packet": []},
                     "the packet value must be a JSON object, got an array"),
    "packet_null": ({"lattice": _WINDOW, "packet": None},
                    "the packet value must be a JSON object, got null"),
    "string_q0": ({"lattice": {**_WINDOW, "q0": "1.1"}, "packet": {}},
                  "q0 must be a JSON number, got a string"),
    "boolean_q0": ({"lattice": {**_WINDOW, "q0": True}, "packet": {}},
                   "q0 must be a JSON number, got a boolean"),
    "string_width_j": ({"lattice": _WINDOW, "packet": {"width_j": "0.9"}},
                       "width_j must be a JSON number, got a string"),
    "boolean_center_j": ({"lattice": _WINDOW, "packet": {"center_j": True}},
                         "center_j must be a JSON number, got a boolean"),
    "boolean_mass": ({"lattice": _WINDOW, "mass": True, "packet": {}},
                     "mass must be a positive rational, got true"),
    "undefined_mass": ({"lattice": _WINDOW, "mass": "1/0", "packet": {}},
                       "undefined_mass.json: mass must be a positive rational"),
    "unknown_top_entry": ({"lattice": _WINDOW, "phase_ordr": 20, "packet": {}},
                          "unknown top-level entry 'phase_ordr'"),
    "unknown_lattice_entry": ({"lattice": {**_WINDOW, "qo": 1.2}, "packet": {}},
                              "unknown lattice entry 'qo'"),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--q", "1", "--out", "{tmp}/g.csv"],
        ["expectation", "--packet", "{tmp}/missing.json"],
        ["expectation", "--packet", "{tmp}/no_j_min.json"],
        ["eval", "star(x-, x+)", "--q", "0"],
        ["eval", "star(x3, x+) - q^2 * star(x+, x3)", "--q", "0"],
        ["heine", "--q", "1"],
        ["propagator", "--order", "-1"],
        ["propagator", "--mass", "0"],
        ["propagator", "--mass", "abc"],
        ["propagator", "--mass", "1/0"],
        ["expectation", "--packet", "{tmp}/zero_mass.json", "--t", "0.1"],
        ["verify", "--suite", "qcalculus", "--q", "1"],
        ["verify", "--suite", "schrodinger", "--grid", "-3"],
        # suites that read no lattice refuse a negative window too
        ["verify", "--suite", "qarith", "--grid", "-2"],
        ["verify", "--suite", "qcalculus", "--grid", "-1"],
        ["verify", "--suite", "qexp", "--N", "-1"],
        *(["expand", nested(dsl.MAX_DEPTH + 1)] for nested in NESTED.values()),
        *([cmd, "1/0"] for cmd in ("parse", "expand", "eval")),
        ["expand", "exp[bar_x_ip](1) + exp[x_ip](1)"],
        ["expand", "star(exp[bar_x_ip](1), exp[x_ip](1))"],
        ["expand", "dinv[+](p3)"],
        ["expectation", "--packet", "{tmp}/negative_order.json", "--t", "0.1"],
        ["expectation", "--packet", "{tmp}/zero_width.json"],
        ["expectation", "--packet", "{tmp}/negative_width.json", "--t", "1.0"],
        ["expectation", "--packet", "{tmp}/unknown_entry.json"],
        ["sample", "--grid", "3", "--width", "0", "--out", "{tmp}/g.csv"],
        ["heine", "--order", "100"],
        ["heine", "--order", "200"],
        ["sample", "--grid", "17", "--out", "{tmp}/g.csv"],
        ["sample", "--grid", "2", "--out", "{tmp}/missing/g.csv"],
        ["eval", "q^-5", "--q", "1e-300"],
        ["eval", "q", "--q", "nan"],
        ["sample", "--q", "inf", "--grid", "2", "--out", "{tmp}/g.csv"],
        ["verify", "--suite", "qarith", "--q", "0"],
        ["expand", f"exp[x_ip]({dsl.MAX_ORDER + 1})"],
        ["propagator", "--order", str(dsl.MAX_ORDER + 1)],
        ["sample", "--q", "1e300", "--grid", "2", "--out", "{tmp}/g.csv"],
        ["sample", "--center", "nan", "--grid", "2", "--out", "{tmp}/g.csv"],
        ["verify", "--suite", "qarith", "--q", "1e300"],
        ["verify", "--suite", "qexp", "--N", str(dsl.MAX_ORDER + 1)],
        ["expectation", "--packet", "{tmp}/huge_q0.json", "--t", "0.1"],
        ["expectation", "--packet", "{tmp}/plain.json", "--t", "nan"],
        ["expectation", "--packet", "{tmp}/plain.json", "--t", "inf"],
        ["heine", "--t", "nan"],
        ["heine", "--mass", "nan"],
        ["heine", "--mass", "inf"],
        ["expectation", "--packet", "{tmp}/one_exponent.json", "--t", "0.05"],
        ["expectation", "--packet", "{tmp}/tiny_width.json"],
        ["expectation", "--packet", "{tmp}/nan_odd_fraction.json"],
        ["expectation", "--packet", "{tmp}/infinite_order.json"],
        ["expectation", "--packet", "{tmp}/huge_order.json", "--t", "0.05"],
        ["expectation", "--packet", "{tmp}/true_phase_order.json"],
        ["expectation", "--packet", "{tmp}/fractional_phase_order.json"],
        ["expectation", "--packet", "{tmp}/fractional_j_min.json"],
        ["expectation", "--packet", "{tmp}/true_j_max.json"],
        ["sample", "--grid", "2", "--out", "{tmp}/g.csv", "--width", "inf"],
        # finite flags whose samples leave the float range
        ["sample", "--grid", "2", "--out", "{tmp}/g.csv", "--width", "1e-320"],
        ["sample", "--grid", "2", "--out", "{tmp}/g.csv", "--width", "1e-160"],
        ["sample", "--grid", "2", "--out", "{tmp}/g.csv", "--center", "1e308"],
        # argparse errors: one line, without the usage block
        ["verify", "--suite", "nope"],
        ["verify", "--bogus"],
        ["propagator", "--order", "x"],
        [],
        # a one-exponent window, which no Jackson derivative or packet reads
        ["verify", "--suite", "qcalculus", "--grid", "0"],
        # q0^2 underflows to 0 in the product form's denominator
        ["heine", "--order", "3", "--q", "1e-200", "--t", "1"],
        ["heine", "--order", "3", "--q", "1e-300", "--t", "1"],
        # integers longer than Python converts between str and int: a
        # literal, an exponent and an order, and a product too long to print
        *([cmd, text] for cmd in ("parse", "expand")
          for text in ("9" * 5000, "q^" + "9" * 5000, f"exp[x_ip]({'9' * 5000})")),
        ["expand", "9" * 3000 + "*" + "9" * 3000],
        ["expand", "--json", "9" * 3000 + "*" + "9" * 3000],
        # a mass must be positive, on every command that takes one
        ["propagator", "--mass", "-1"],
        ["heine", "--mass", "-1"],
        ["expectation", "--packet", "{tmp}/negative_mass.json", "--t", "0.1"],
        # a packet file is read entry by entry, and each refusal names its entry
        *(["expectation", "--packet", f"{{tmp}}/{name}.json"] for name in PACKET_FILE_ERRORS),
    ],
)
def test_cli_bad_input_exits_2(tmp_path, argv):
    window = _WINDOW
    packet = {"center_j": 0.3, "width_j": 0.9}
    files = {
        "no_j_min": {"lattice": {"q0": 1.1, "j_max": 10}, "packet": {}},
        "zero_mass": {"lattice": window, "mass": "0", "packet": {}},
        "negative_mass": {"lattice": window, "mass": "-2", "packet": {}},
        "negative_order": {"lattice": window, "phase_order": -3, "packet": packet},
        "zero_width": {"lattice": window, "packet": {**packet, "width_j": 0}},
        "negative_width": {"lattice": window, "packet": {**packet, "width_j": -0.9}},
        "unknown_entry": {"lattice": window, "packet": {**packet, "centre_j": 0.5}},
        "huge_q0": {"lattice": {"q0": 1e100, "j_min": -2, "j_max": 2},
                    "packet": {"center_j": 0.0, "width_j": 0.5}},
        "plain": {"lattice": window, "packet": packet},
        "one_exponent": {"lattice": {"q0": 1.1, "j_min": 0, "j_max": 0}, "packet": packet},
        "tiny_width": {"lattice": window, "packet": {**packet, "width_j": 1e-300}},
        "nan_odd_fraction": {"lattice": window, "packet": {**packet, "odd_fraction": math.nan}},
        "infinite_order": {"lattice": window, "phase_order": math.inf, "packet": packet},
        "huge_order": {"lattice": {"q0": 1.2, "j_min": -1, "j_max": 0}, "mass": "3/2",
                       "packet": {"width_j": 0.59}, "phase_order": 10**300},
        # integer entries are JSON integers: int() would run true as 1, 19.9 as 19
        "true_phase_order": {"lattice": window, "phase_order": True, "packet": packet},
        "fractional_phase_order": {"lattice": window, "phase_order": 19.9, "packet": packet},
        "fractional_j_min": {"lattice": {**window, "j_min": -8.7}, "packet": packet},
        "true_j_max": {"lattice": {**window, "j_max": True}, "packet": packet},
    }
    files.update((name, config) for name, (config, _) in PACKET_FILE_ERRORS.items())
    for name, config in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    code, out, err = run_cli(*(a.format(tmp=tmp_path) for a in argv))
    lines = [ln for ln in err.splitlines() if ln.strip()]
    assert code == 2 and out == "" and len(lines) == 1, err
    assert not (tmp_path / "g.csv").exists()
    if not argv:  # a bare qeuclid
        return
    if argv[-1] in ("nan", "inf") and argv[-2] in ("--t", "--mass", "--width"):
        assert argv[-2] in lines[0], err
    name = os.path.basename(argv[2]) if argv[0] == "expectation" else ""
    if name.startswith(("true_", "fractional_")):
        entry = name.removesuffix(".json").split("_", 1)[1]
        assert f"{entry} must be an integer" in lines[0], err
    if argv[0] == "sample" and argv[-1] in ("1e-320", "1e-160", "1e308"):
        assert "float range" in lines[0], err
    if name.removesuffix(".json") in PACKET_FILE_ERRORS:
        assert PACKET_FILE_ERRORS[name.removesuffix(".json")][1] in lines[0], err
    if argv[-1].endswith("nan_odd_fraction.json"):
        assert "odd_fraction must be finite" in lines[0], err
    if argv[-3:-2] == ["{tmp}/huge_order.json"]:
        assert f"phase_order must be <= {dsl.MAX_ORDER}" in lines[0], err
        # short without the temporary directory, whose path length varies
        assert len(lines[0].replace(str(tmp_path), "")) < 120, err


#: run in a fresh interpreter: importing the package loads no layer, each
#: command loads only the layers it runs and checks its arguments first (a
#: bad argument loads no layer at all), the symbolic commands and suites
#: never load numpy, no command loads dataclasses or inspect, and the
#: re-exported names load their layer on first access
SYMBOLIC_SCRIPT = """
import contextlib, io, sys
import qeuclid

def loaded():
    return {m.split(".", 1)[1] for m in sys.modules if m.startswith("qeuclid.")}

def run(argv, code=0):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code, argv

SLOW_IMPORTS = {"dataclasses", "inspect"}
assert not SLOW_IMPORTS & set(sys.modules), SLOW_IMPORTS & set(sys.modules)
assert loaded() == set() and "numpy" not in sys.modules, loaded()
from qeuclid.cli import main
for argv in (
    ["eval", "star(x-, x+)", "--q", "0"],
    ["sample", "--q", "1", "--out", "no-such-dir/g.csv"],
    ["propagator", "--order", "-1"],
    ["heine", "--q", "1"],
    ["expectation", "--packet", "no-such-dir/packet.json"],
):
    run(argv, 2)
assert loaded() == {"cli"} and "numpy" not in sys.modules, loaded()
run(["parse", "star(x-, x+)"])
run(["parse", "star(x-,"], 2)
run(["parse", "exp[nope](2)"], 2)
assert loaded() == {"cli", "dsl", "qarith"} and "numpy" not in sys.modules, loaded()
run(["verify", "--suite", "qarith"])
assert "starcalc" not in loaded(), loaded()
run(["expand", "star(x-, x+)"])
run(["eval", "star(x-, x+)"])
assert not loaded() & {"qcalculus", "qexp", "schrodinger"}, loaded()
for argv in (
    ["propagator", "--order", "2"],
    ["heine", "--order", "3"],
    ["verify", "--suite", "ncalgebra"],
):
    run(argv)
    assert "numpy" not in sys.modules, argv
assert not loaded() & {"qcalculus", "qexp"}, loaded()
assert not SLOW_IMPORTS & set(sys.modules), SLOW_IMPORTS & set(sys.modules)
assert qeuclid.QLattice is qeuclid.lattice.QLattice
from qeuclid import StructuredFn
assert StructuredFn is qeuclid.lattice.StructuredFn
try:
    qeuclid.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute")
for name in qeuclid.__all__:
    getattr(qeuclid, name)
"""


def test_symbolic_commands_load_no_numpy():
    code, out, err = run_python("-c", SYMBOLIC_SCRIPT)
    assert code == 0 and out == "" and err == "", err


#: run in a fresh interpreter: the lattice commands never load numpy.ma,
#: whose first import (through np.unique) costs a cold process about 15 ms
LATTICE_SCRIPT = """
import contextlib, io, json, os, sys, tempfile
from qeuclid.cli import main

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "packet.json")
    with open(path, "w") as fh:
        json.dump({"lattice": {"q0": 1.1, "j_min": -6, "j_max": 6}, "mass": "2",
                   "phase_order": 20,
                   "packet": {"center_j": 0.3, "width_j": 0.9, "odd_fraction": 0.35}}, fh)
    for argv in (["expectation", "--packet", path, "--t", "0.1"],
                 ["verify", "--suite", "qcalculus"]):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
assert "numpy.ma" not in sys.modules
"""


def test_lattice_commands_load_no_numpy_ma():
    code, out, err = run_python("-c", LATTICE_SCRIPT)
    assert code == 0 and out == "" and err == "", err


@pytest.mark.parametrize("center", ["0", "0.5"])
def test_sample_csv_matches_row_by_row_formula(tmp_path, center, capsys):
    """``sample`` writes the bytes of the row-by-row loop over numpy scalars
    that it replaced."""
    from itertools import product

    from qeuclid.lattice import QLattice, StructuredFn, log_gaussian

    path = tmp_path / "g.csv"
    assert main(["sample", "--grid", "3", "--center", center, "--out", str(path)]) == 0
    lat = QLattice(1.1, -3, 3)
    env = log_gaussian(lat, float(center), 1.2)
    axis = lat.axis_values()
    pts = [*axis, *-axis]
    js = lat.js()
    values = StructuredFn.from_envelopes(lat, "x", (env, env, env)).values_on(js, js, js)
    want = "x1,x2,x3,re,im\n" + "".join(
        f"{x1},{x2},{x3},{v.real},{v.imag}\n"
        for (x1, x2, x3), v in zip(product(pts, repeat=3), values.flat)
        if v != 0
    )
    assert path.read_text() == want


@pytest.mark.parametrize("shape", NESTED)
def test_nesting_cap(shape):
    x3 = coord_variable("x3")
    want = x3.scale(QScalar.from_rational(dsl.MAX_DEPTH)) if shape == "sum" else x3
    assert dsl.evaluate(dsl.parse_expression(NESTED[shape](dsl.MAX_DEPTH))) == want


# -- DSL fuzz through the CLI ---------------------------------------------------------


def call_forms(sub):
    """Strings of every call form of ``dsl.FORMS``: with each bracket word,
    and with no bracket where one may be omitted; ``sub`` for each
    expression argument and orders up to 3; an operator also in its
    pipeline form.  With ``sub`` None, only the forms that take no
    expression."""
    forms = []
    for name, form in dsl.FORMS.items():
        if sub is None and "expr" in form.args:
            continue
        brackets = [f"[{word}]" for word in form.words]
        if form.default or not form.words:
            brackets.append("")
        bracket = st.sampled_from(brackets)
        args = [st.integers(0, 3).map(str) if arg == "order" else sub for arg in form.args]
        forms.append(st.tuples(bracket, *args).map(
            lambda c, name=name: f"{name}{c[0]}({', '.join(c[1:])})"))
        if form.operator:
            forms.append(st.tuples(bracket, sub).map(
                lambda c, name=name: f"{name}{c[0]} |> {c[1]}"))
    return forms


#: the leaves of the grammar: coordinates, literals (zero denominators
#: included) and the call forms without expression arguments
LEAVES = st.one_of(
    st.sampled_from([*dsl.COORDS, "i", "q"]),
    st.integers(0, 5).map(str),
    st.tuples(st.integers(0, 5), st.integers(0, 4)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
    st.integers(-3, 3).map(lambda e: f"q^{e}"),
    *call_forms(None),
)


def dsl_text(depth: int):
    """Strings of the grammar's productions, nested at most ``depth`` deep."""
    if depth == 0:
        return LEAVES
    sub = dsl_text(depth - 1)
    return st.one_of(
        LEAVES,
        sub.map(lambda a: f"({a})"),
        sub.map(lambda a: f"-{a}"),
        st.tuples(sub, st.sampled_from((" + ", " - ", " * ")), sub).map("".join),
        *call_forms(sub),
    )


#: token soup: the grammar's tokens in any order, mostly syntax errors
TOKEN_SOUP = st.lists(
    st.sampled_from([*dsl.COORDS, *dsl.FORMS,
                     *dict.fromkeys(word for form in dsl.FORMS.values() for word in form.words),
                     "i", "q", "^", "2", "1/2", "(", ")", "[", "]", ",", "+", "-", "*", "|>"]),
    max_size=8,
).map(" ".join)


def run_dsl_commands(src: str):
    """``parse``, ``expand`` and ``eval`` of one string in-process: no
    exception escapes ``main``, exit codes stay in {0, 1, 2} and exit 2
    prints one line."""
    for argv in (["parse", "--", src], ["expand", "--", src],
                 ["eval", "--q", "11/10", "--", src]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())


@given(dsl_text(4))
@settings(max_examples=300)
def test_dsl_fuzz_grammar(src):
    run_dsl_commands(src)


@given(TOKEN_SOUP)
@settings(max_examples=200)
def test_dsl_fuzz_token_soup(src):
    run_dsl_commands(src)


# -- packet files through ``expectation`` ---------------------------------------------

#: an entry the packet file leaves out
MISSING = object()
#: wrong types, non-finite numbers and missing entries
JUNK = st.sampled_from(
    [MISSING, None, "x", "", [], {}, True, [1.1], float("nan"), float("inf"), -float("inf")]
)
#: packet files that ``expectation`` accepts, on windows up to +-6
GOOD_PACKET_FILE = st.fixed_dictionaries(
    {
        "lattice": st.fixed_dictionaries({
            "q0": st.sampled_from([1.1, 1.2, 1.5]),
            "j_min": st.integers(-6, 0),
            "j_max": st.integers(0, 6),
        }),
        "packet": st.fixed_dictionaries({}, optional={
            "center_j": st.floats(-1.0, 1.0),
            "width_j": st.floats(0.5, 1.5),
            "odd_fraction": st.floats(0.0, 0.5),
        }),
    },
    optional={
        "mass": st.sampled_from(["1", "2", "3/2", 2, 0.5]),
        "phase_order": st.integers(0, 24),
    },
)
#: where a packet file can go wrong: an entry (or the whole file, at ())
#: and a value that replaces it
BAD_ENTRY = st.tuples(
    st.sampled_from([
        (), ("lattice",), ("lattice", "q0"), ("lattice", "j_min"), ("lattice", "j_max"),
        ("packet",), ("packet", "center_j"), ("packet", "width_j"),
        ("packet", "odd_fraction"), ("packet", "centre_j"), ("mass",), ("phase_order",),
        ("phase_ordr",), ("lattice", "qo"),
    ]),
    JUNK | st.sampled_from(
        [0, -1, 7, 1e-300, 1e300, 1.0, 0.5, 2.5, "0", "-2", "1/0", "abc", "1e400", "20", -3,
         10**30]
    ),
)


def corrupt(config: dict, bad: list) -> object:
    """``config`` with each ``(path, value)`` of ``bad`` put in place."""
    for path, value in bad:
        if not path:
            config = value
            continue
        if not isinstance(config, dict):
            continue
        node = config
        for key in path[:-1]:
            node = node.get(key)
            if not isinstance(node, dict):
                break
        else:
            if value is MISSING:
                node.pop(path[-1], None)
            else:
                node[path[-1]] = value
    return None if config is MISSING else config


PACKET_FILE = st.builds(corrupt, GOOD_PACKET_FILE, st.lists(BAD_ENTRY, max_size=2))

NUMBER, INTEGER = (int, float), (int,)
#: the documented packet file: each entry and the JSON kinds its value may
#: take, per object; ``type`` tells a bool from a number
DOCUMENTED = {
    "lattice": {"q0": NUMBER, "j_min": INTEGER, "j_max": INTEGER},
    "packet": {"center_j": NUMBER, "width_j": NUMBER, "odd_fraction": NUMBER},
    "mass": NUMBER + (str,),
    "phase_order": INTEGER,
}


def documented(value, kinds=DOCUMENTED) -> bool:
    """Whether ``value`` is a JSON object holding only entries ``kinds``
    names, each of a kind it allows (a nested object checked alike)."""
    if isinstance(kinds, tuple):
        return type(value) in kinds
    return type(value) is dict and all(
        key in kinds and documented(entry, kinds[key]) for key, entry in value.items())


@pytest.fixture(scope="module")
def packet_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("packets")


@given(PACKET_FILE, st.sampled_from(["0", "0.05"]))
@settings(max_examples=250)
def test_expectation_fuzz_packet_files(packet_dir, config, t):
    """``expectation`` on packet files with windows up to +-6, with up to
    two entries (or the whole file) replaced by wrong types, non-finite
    numbers, out-of-range values or nothing, or an unknown entry added: no
    exception escapes ``main``, exit codes stay in {0, 1, 2}, exit 2 prints
    one line, and a file that exits 0 is a documented one."""
    fd, path = tempfile.mkstemp(suffix=".json", dir=packet_dir)
    with os.fdopen(fd, "w") as fh:
        fh.write(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["expectation", "--packet", path, "--t", t])
    assert code in (0, 1, 2), (config, code)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, (config, err.getvalue())
    if code == 0:
        assert documented(config), config
