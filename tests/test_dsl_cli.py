import json
import os
import subprocess
import sys

import pytest

import qeuclid
from qeuclid import dsl
from qeuclid.cli import main
from qeuclid.qarith import QScalar, LAMBDA
from qeuclid.starcalc import coord_variable, star_product


#: the import root of the qeuclid under test, handed on to the subprocesses
SRC = os.path.dirname(os.path.dirname(qeuclid.__file__))


def run_cli(*argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qeuclid.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


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
    assert code == 0 and out_csv.exists()


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
    ],
)
def test_cli_bad_input_exits_2(tmp_path, argv):
    config = {"lattice": {"q0": 1.1, "j_max": 10}, "packet": {}}
    (tmp_path / "no_j_min.json").write_text(json.dumps(config))
    config = {"lattice": {"q0": 1.1, "j_min": -10, "j_max": 10}, "mass": "0", "packet": {}}
    (tmp_path / "zero_mass.json").write_text(json.dumps(config))
    code, out, err = run_cli(*(a.format(tmp=tmp_path) for a in argv))
    lines = [ln for ln in err.splitlines() if ln.strip()]
    assert code == 2 and out == "" and len(lines) == 1, err


@pytest.mark.parametrize("shape", NESTED)
def test_nesting_cap(shape):
    x3 = coord_variable("x3")
    want = x3.scale(QScalar.from_rational(dsl.MAX_DEPTH)) if shape == "sum" else x3
    assert dsl.evaluate(dsl.parse_expression(NESTED[shape](dsl.MAX_DEPTH))) == want
