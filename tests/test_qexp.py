from qeuclid.qarith import I, q_factorial
from qeuclid.starcalc import Poly, P_SECTOR, X_SECTOR, coord_variable
from qeuclid.qexp import (
    VARIANTS,
    build_exponential,
    exponential_to_json,
    q_invert,
    q_translate,
    u_operator,
)

N = 3


def test_order_zero_is_one():
    for variant in VARIANTS:
        e = build_exponential(variant, 0)
        assert e.body == Poly.one((X_SECTOR, P_SECTOR), e.body.convention)


def test_low_order_terms():
    e = build_exponential("x_ip", 1)
    want = Poly.one((X_SECTOR, P_SECTOR))
    for xmono, pmono in (((1, 0, 0), (0, 0, 1)), ((0, 1, 0), (0, 1, 0)), ((0, 0, 1), (1, 0, 0))):
        want = want + Poly.monomial((X_SECTOR, P_SECTOR), (xmono, pmono), 0, I)
    assert e.body == want
    e2 = build_exponential("x_ip", 2)
    coeff = e2.body.terms[(((2, 0, 0), (0, 0, 2)), 0)]
    assert coeff == (I * I) / q_factorial(2, 4)


def test_conjugation_table():
    lhs = build_exponential("bar_x_ip", N).body.conjugate()
    assert lhs == build_exponential("bar_ipinv_x", N).body


def test_exponential_json():
    data = exponential_to_json(build_exponential("x_ip", 2))
    assert data["variant"] == "x_ip"
    assert data["order"] == 2
    assert any(t["x"] == [2, 0, 0] for t in data["terms"])


def test_translation_classical_limit():
    x3 = coord_variable("x3")
    T = q_translate(x3, "plus").polynomial
    v = T.eval_classical(1.0, ((0.3, 0.7, -0.2), (0.11, 0.5, 0.9)))
    assert abs(v - (0.7 + 0.5)) < 1e-12


def test_inversion_values_and_classical():
    xp = coord_variable("x+")
    assert q_invert(Poly.one((X_SECTOR,)), "minus") == Poly.one((X_SECTOR,))
    g = q_invert(xp, "minus")
    assert abs(g.eval_classical(1.0, ((0.4, 0.2, 0.6),)) + 0.4) < 1e-12
    gb = q_invert(xp, "minusbar")
    assert abs(gb.eval_classical(1.0, ((0.4, 0.2, 0.6),)) + 0.4) < 1e-12


def test_u_operators_mutually_inverse(rand_poly):
    f = rand_poly(deg=2, nterm=3, with_t=False)
    assert u_operator(u_operator(f, True), False) == f
