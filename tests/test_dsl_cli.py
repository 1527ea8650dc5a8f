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
from qeuclid.cli import main
from qeuclid.qarith import QScalar, LAMBDA
from qeuclid.qexp import VARIANTS
from qeuclid.starcalc import coord_variable, star_product


#: the import root of the qeuclid under test, handed on to the subprocesses
SRC = os.path.dirname(os.path.dirname(qeuclid.__file__))


def run_python(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(*argv):
    return run_python("-m", "qeuclid.cli", *argv)


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


def test_evaluate_star():
    value = dsl.evaluate(dsl.parse_expression("star(x-, x+)"))
    xm, xp, x3 = (coord_variable(v) for v in ("x-", "x+", "x3"))
    assert value == star_product(xm, xp)
    value = dsl.evaluate(dsl.parse_expression("star(x-, x+) - star(x+, x-)"))
    assert value == x3.mul_pointwise(x3).scale(LAMBDA)


def test_evaluate_scalars():
    v = dsl.evaluate(dsl.parse_expression("q^2 + 3/2 - i"))
    want = QScalar.q(2) + QScalar.from_rational(3, 0).scale(
        __import__("fractions").Fraction(1, 2)
    ) - QScalar.i()
    # simpler: build directly
    from fractions import Fraction
    from qeuclid.qarith import GRat

    want = QScalar.q(2) + QScalar.from_rational(Fraction(3, 2)) - QScalar.i()
    assert v == want


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


#: expressions whose syntax tree is n levels high
NESTED = {
    "parens": lambda n: "(" * (n - 1) + "x3" + ")" * (n - 1),
    "conj": lambda n: "conj(" * (n - 1) + "x3" + ")" * (n - 1),
    "sum": lambda n: " + ".join(["x3"] * n),
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
    ],
)
def test_cli_bad_input_exits_2(tmp_path, argv):
    window = {"q0": 1.1, "j_min": -10, "j_max": 10}
    packet = {"center_j": 0.3, "width_j": 0.9}
    files = {
        "no_j_min": {"lattice": {"q0": 1.1, "j_max": 10}, "packet": {}},
        "zero_mass": {"lattice": window, "mass": "0", "packet": {}},
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
    }
    for name, config in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
    code, out, err = run_cli(*(a.format(tmp=tmp_path) for a in argv))
    lines = [ln for ln in err.splitlines() if ln.strip()]
    assert code == 2 and out == "" and len(lines) == 1, err
    assert not (tmp_path / "g.csv").exists()
    if argv[-1] in ("nan", "inf") and argv[-2] in ("--t", "--mass"):
        assert argv[-2] in lines[0], err
    if argv[-1].endswith("nan_odd_fraction.json"):
        assert "odd_fraction must be finite" in lines[0], err


#: run in a fresh interpreter: the package and the symbolic commands and
#: suites never load numpy; the lattice names load it on first access
SYMBOLIC_SCRIPT = """
import contextlib, io, sys
import qeuclid
assert "qeuclid.lattice" not in sys.modules and "numpy" not in sys.modules
from qeuclid.cli import main
for argv in (
    ["parse", "star(x-, x+)"],
    ["expand", "star(x-, x+)"],
    ["eval", "star(x-, x+)"],
    ["propagator", "--order", "2"],
    ["heine", "--order", "3"],
    ["verify", "--suite", "qarith"],
    ["verify", "--suite", "ncalgebra"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
assert qeuclid.QLattice is qeuclid.lattice.QLattice
from qeuclid import StructuredFn
assert StructuredFn is qeuclid.lattice.StructuredFn
try:
    qeuclid.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute")
"""


def test_symbolic_commands_load_no_numpy():
    code, out, err = run_python("-c", SYMBOLIC_SCRIPT)
    assert code == 0 and out == "" and err == "", err


@pytest.mark.parametrize("shape", NESTED)
def test_nesting_cap(shape):
    x3 = coord_variable("x3")
    want = x3.scale(QScalar.from_rational(dsl.MAX_DEPTH)) if shape == "sum" else x3
    assert dsl.evaluate(dsl.parse_expression(NESTED[shape](dsl.MAX_DEPTH))) == want


# -- DSL fuzz through the CLI ---------------------------------------------------------

#: the leaves of the grammar: coordinates, literals (zero denominators
#: included) and exponentials of order at most 3
LEAVES = st.one_of(
    st.sampled_from([*dsl.COORDS, "i", "q"]),
    st.integers(0, 5).map(str),
    st.tuples(st.integers(0, 5), st.integers(0, 4)).map(lambda nd: f"{nd[0]}/{nd[1]}"),
    st.integers(-3, 3).map(lambda e: f"q^{e}"),
    st.tuples(st.sampled_from(VARIANTS), st.integers(0, 3)).map(
        lambda vn: f"exp[{vn[0]}]({vn[1]})"
    ),
)
KINDS = ("plus", "plusbar", "minus", "minusbar")


def dsl_text(depth: int):
    """Strings of the grammar's productions, nested at most ``depth`` deep."""
    if depth == 0:
        return LEAVES
    sub = dsl_text(depth - 1)
    op = st.tuples(st.sampled_from(dsl.OPS), st.sampled_from(dsl.INDICES))
    return st.one_of(
        LEAVES,
        sub.map(lambda a: f"({a})"),
        sub.map(lambda a: f"-{a}"),
        sub.map(lambda a: f"conj({a})"),
        st.tuples(sub, st.sampled_from((" + ", " - ", " * ")), sub).map("".join),
        st.tuples(sub, sub).map(lambda ab: f"star({ab[0]}, {ab[1]})"),
        st.tuples(st.sampled_from(("translate", "invert")), st.sampled_from(KINDS), sub)
        .map(lambda c: f"{c[0]}[{c[1]}]({c[2]})"),
        st.tuples(op, sub).map(lambda o: f"{o[0][0]}[{o[0][1]}]({o[1]})"),
        st.tuples(op, sub).map(lambda o: f"{o[0][0]}[{o[0][1]}] |> {o[1]}"),
    )


#: token soup: the grammar's tokens in any order, mostly syntax errors
TOKEN_SOUP = st.lists(
    st.sampled_from([*dsl.COORDS, *dsl.OPS, *dsl.CALLS, *dsl.INDICES, *VARIANTS, *KINDS,
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
        "mass": st.sampled_from(["1", "2", "3/2", "-2", 2, 0.5]),
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
    ]),
    JUNK | st.sampled_from(
        [0, -1, 7, 1e-300, 1e300, 1.0, 0.5, 2.5, "0", "1/0", "abc", "1e400", "20", -3, 10**30]
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


@pytest.fixture(scope="module")
def packet_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("packets")


@given(PACKET_FILE, st.sampled_from(["0", "0.05"]))
@settings(max_examples=250)
def test_expectation_fuzz_packet_files(packet_dir, config, t):
    """``expectation`` on packet files with windows up to +-6, with up to
    two entries (or the whole file) replaced by wrong types, non-finite
    numbers, out-of-range values or nothing: no exception escapes ``main``,
    exit codes stay in {0, 1, 2} and exit 2 prints one line."""
    fd, path = tempfile.mkstemp(suffix=".json", dir=packet_dir)
    with os.fdopen(fd, "w") as fh:
        fh.write(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["expectation", "--packet", path, "--t", t])
    assert code in (0, 1, 2), (config, code)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, (config, err.getvalue())
