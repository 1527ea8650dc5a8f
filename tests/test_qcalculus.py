import json

import numpy as np
import pytest

from qeuclid.qarith import QScalar, ONE, LAMBDA, q_number
from qeuclid.starcalc import Poly, X_SECTOR, coord_upper, coord_variable, conjugate
from qeuclid.qcalculus import (
    ConventionError,
    DerivativeLabel,
    apply_derivative,
    braiding_operator,
    d,
    integration_adjoint,
    inverse_partial,
    jackson_derivative,
)
from qeuclid.lattice import (
    AxisFn,
    LatticeFn,
    QLattice,
    StructuredFn,
    STerm,
    log_gaussian,
    odd_log_gaussian,
)
from qeuclid.verify import run_suite

xp, x3, xm, tv = (coord_variable(v) for v in ("x+", "x3", "x-", "t"))


def test_jackson_derivative_monomials():
    assert jackson_derivative(xp, "x+", 4) == Poly.one((X_SECTOR,))
    sq = xp.mul_pointwise(xp)
    assert jackson_derivative(sq, "x+", 4) == xp.scale(ONE + QScalar.q(4))
    assert jackson_derivative(xp, "x3", 2).is_zero()


def test_derivative_examples():
    f = x3.mul_pointwise(x3)
    assert apply_derivative(d("-"), f) == xp.scale(LAMBDA * q_number(2, 2))
    t2 = tv.mul_pointwise(tv)
    assert apply_derivative(d("0"), t2) == tv.scale(QScalar.from_rational(2))
    r = apply_derivative(d("-", "hat", "left_bar"), xm.with_convention("Wt"))
    assert r == Poly.one((X_SECTOR,), "Wt")


def test_kronecker_pairing():
    for a in ("+", "3", "-"):
        for b in ("+", "3", "-"):
            r = apply_derivative(d(a), coord_upper("x", b))
            want = Poly.one((X_SECTOR,)) if a == b else Poly.zero((X_SECTOR,))
            assert r == want


def test_convention_guard():
    with pytest.raises(ConventionError):
        apply_derivative(d("+", "hat", "left_bar"), xp)


def test_hat_family_is_substituted(rand_poly):
    sigma = {"+": "-", "3": "3", "-": "+", "0": "0"}
    for _ in range(10):
        f = rand_poly()
        for a in ("+", "3", "-", "0"):
            lhs = apply_derivative(d(sigma[a], "hat", "left_bar"), f.subs_q_inverse_swap())
            assert lhs == apply_derivative(d(a), f).subs_q_inverse_swap()


def test_variant_scalars(rand_poly):
    f = rand_poly()
    assert apply_derivative(d("+", "hat"), f) == apply_derivative(d("+"), f).scale(QScalar.q(6))
    assert apply_derivative(d("0", "hat"), f) == apply_derivative(d("0"), f)


def test_right_actions_are_conjugation_transports(rand_poly):
    for _ in range(8):
        f = rand_poly()
        lhs = conjugate(apply_derivative(d("+", position="upper"), f))
        rhs = -apply_derivative(d("+", side="right_bar"), conjugate(f))
        assert lhs == rhs


def test_inverse_partial_examples():
    one = Poly.one((X_SECTOR,))
    assert inverse_partial(d("+"), one) == xp
    want = xp.mul_pointwise(xp).scale(ONE / q_number(2, 4))
    assert inverse_partial(d("+"), xp) == want


def test_inverse_roundtrips(rand_poly):
    for _ in range(8):
        f = rand_poly()
        for a in ("+", "3", "-", "0"):
            assert apply_derivative(d(a), inverse_partial(d(a), f)) == f
    fw = rand_poly()
    X = inverse_partial(d("3", side="right_bar"), fw)
    assert apply_derivative(d("3", side="right_bar"), X) == fw
    fwt = rand_poly(conv="Wt")
    for a in ("+", "3", "-"):
        F = inverse_partial(d(a, "hat", "left_bar"), fwt)
        assert apply_derivative(d(a, "hat", "left_bar"), F) == fwt


# -- lattice layer -------------------------------------------------------------


@pytest.fixture(scope="module")
def lat():
    return QLattice(1.1, -16, 16)


def _mix(lat, rng):
    c, w = rng.uniform(-0.6, 0.6), rng.uniform(0.8, 1.2)
    of = rng.uniform(-0.6, 0.6)
    base = log_gaussian(lat, c, w)
    odd = odd_log_gaussian(lat, c, w)
    return AxisFn(lambda x: base(x) + of * odd(x))


def test_structured_matches_symbolic(lat, rand_poly):
    pts = np.array([lat.q0**j for j in (-2, 0, 3)])
    ptsm = np.concatenate([pts, -pts])
    for _ in range(6):
        f, g = rand_poly(with_t=False), rand_poly(with_t=False)
        sf = StructuredFn.from_poly(lat, f)
        sg = StructuredFn.from_poly(lat, g)
        lhs = sf.star(sg).values_on(ptsm, ptsm, ptsm)
        rhs = StructuredFn.from_poly(lat, f.star(g)).values_on(ptsm, ptsm, ptsm)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
        lhs = sf.conjugate().values_on(ptsm, ptsm, ptsm)
        rhs = StructuredFn.from_poly(lat, conjugate(f)).values_on(ptsm, ptsm, ptsm)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_leibniz_closure_on_class_data(lat):
    rng = np.random.default_rng(3)
    f = StructuredFn(lat, "x", [STerm(0.7 + 0.2j, (1, 1, 0), (_mix(lat, rng), _mix(lat, rng), None))])
    g = StructuredFn(lat, "x", [STerm(1.0 - 0.4j, (1, 0, 1), (None, _mix(lat, rng), _mix(lat, rng)))])
    pts = np.array([lat.q0**j for j in (-3, 0, 2)])
    ptsm = np.concatenate([pts, -pts])
    for a in ("+", "3", "-"):
        lhs = apply_derivative(d(a), f.star(g)).values_on(ptsm, ptsm, ptsm)
        rhs = apply_derivative(d(a), f).star(g).values_on(ptsm, ptsm, ptsm)
        for c in ("+", "3", "-"):
            Of = braiding_operator(a, c, f, "plain")
            rhs = rhs + Of.star(apply_derivative(d(c), g)).values_on(ptsm, ptsm, ptsm)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(1.0, np.max(np.abs(lhs)))


def test_stokes(lat):
    rng = np.random.default_rng(4)
    f = StructuredFn(lat, "x", [STerm(1.0, (0, 0, 0), (_mix(lat, rng), _mix(lat, rng), _mix(lat, rng)))])
    for a in ("+", "3", "-"):
        for variant, side in (("plain", "left"), ("hat", "left_bar")):
            r = apply_derivative(d(a, variant, side, "upper"), f).integral_all_space()
            assert abs(r) <= 1e-10


def test_integration_by_parts(lat):
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(3):
        f = StructuredFn(lat, "x", [
            STerm(complex(rng.normal(), rng.normal()),
                  tuple(int(v) for v in rng.integers(0, 3, 3)),
                  (_mix(lat, rng), _mix(lat, rng), None))])
        g = StructuredFn(lat, "x", [
            STerm(complex(rng.normal(), rng.normal()),
                  tuple(int(v) for v in rng.integers(0, 3, 3)),
                  (None, _mix(lat, rng), _mix(lat, rng)))])
        for a in ("+", "3", "-"):
            L = f.star_integral(apply_derivative(d(a, "plain", "left", "upper"), g))
            R = integration_adjoint(a, f, "plain", "upper").star_integral(g)
            worst = max(worst, abs(L - R) / max(1.0, abs(L)))
        fh = StructuredFn(lat, "x", [
            STerm(complex(rng.normal(), rng.normal()),
                  tuple(int(v) for v in rng.integers(0, 3, 3)),
                  (None, _mix(lat, rng), _mix(lat, rng)))])
        gh = StructuredFn(lat, "x", [
            STerm(complex(rng.normal(), rng.normal()),
                  tuple(int(v) for v in rng.integers(0, 3, 3)),
                  (_mix(lat, rng), _mix(lat, rng), None))])
        for a in ("+", "3", "-"):
            L = fh.star_wt(apply_derivative(d(a, "hat", "left_bar", "upper"), gh)).integral_all_space()
            R = integration_adjoint(a, fh, "hat", "upper").star_wt(gh).integral_all_space()
            worst = max(worst, abs(L - R) / max(1.0, abs(L)))
    assert worst <= 1e-9


def test_star_integral_matches_materialized_product(lat):
    rng = np.random.default_rng(7)

    def term(envs):
        exps = tuple(int(v) for v in rng.integers(0, 3, 3))
        return STerm(complex(rng.normal(), rng.normal()), exps, envs)

    # W class data (left polynomial on the last slot, right on the first),
    # with negative degrees from a Jackson derivative on an enveloped slot
    g0 = StructuredFn(lat, "x", [term((None, _mix(lat, rng), _mix(lat, rng))) for _ in range(3)])
    f = g0.conjugate().jackson_d(0, 1, 2)
    g = apply_derivative(d("-"), g0)
    assert any(min(t.exps) < 0 for t in f.terms)
    fh, gh = f.conjugate(), g.conjugate()  # the Wt classes
    for lhs, rhs in (
        (f.star_integral(g), f.star(g).integral_all_space()),
        (fh.star_integral(gh, mirror=True), fh.star_wt(gh).integral_all_space()),
    ):
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_equal_dilation_chains_merge(lat):
    rng = np.random.default_rng(8)
    f = StructuredFn(lat, "x", [
        STerm(0.3 - 1.1j, (2, 0, 1), (_mix(lat, rng), _mix(lat, rng), None)),
        STerm(0.8 + 0.5j, (0, 0, 3), (None, _mix(lat, rng), _mix(lat, rng))),
    ])
    assert (f.scale_slot(0, 1, 2).scale_slot(0, 1, -2) - f).is_zero()


def test_verify_qcalculus_report_is_json():
    json.dumps(run_suite("qcalculus").to_json(), sort_keys=True)


def test_conjugation_of_integrals(lat):
    rng = np.random.default_rng(6)
    for _ in range(4):
        f = StructuredFn(lat, "x", [
            STerm(complex(rng.normal(), rng.normal()), (0, 0, 0),
                  (_mix(lat, rng), _mix(lat, rng), _mix(lat, rng)))])
        lhs = np.conjugate(f.integral_all_space())
        rhs = f.conjugate().integral_all_space()
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    # complex envelope values, which conjugation has to reach
    env = log_gaussian(lat, 0.2, 1.0, amplitude=0.6 - 0.8j)
    f = StructuredFn(lat, "x", [STerm(0.5 + 0.1j, (2, 0, 2), (env, env, env))])
    lhs = np.conjugate(f.integral_all_space())
    rhs = f.conjugate().integral_all_space()
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_boundary_rejection(lat):
    flat = StructuredFn(lat, "x", [STerm(1.0, (0, 0, 0), (None, None, None))])
    assert flat.boundary_mass() > 1e-3  # non-decaying data is detectable


def test_dense_lattice_roundtrip(lat):
    env = log_gaussian(lat, 0.0, 1.4)
    f = LatticeFn.sample(lat, "x", lambda a, b, c: env(a) * env(b) * env(c))
    s = StructuredFn.from_envelopes(lat, "x", (env, env, env))
    assert abs(f.integral_all_space() - s.integral_all_space()) <= 1e-12 * abs(
        s.integral_all_space()
    )
    odd = odd_log_gaussian(lat, 0.0, 1.6)
    g = LatticeFn.sample(lat, "x", lambda a, b, c: env(a) * odd(b) * env(c))
    assert abs(g.integral_all_space()) <= 1e-12
    for a in ("+", "3", "-"):
        r = apply_derivative(d(a, "plain", "left", "upper"), f).integral_all_space()
        assert abs(r) <= 1e-10


def test_dense_csv_export(lat, tmp_path):
    small = QLattice(1.2, -2, 2)
    env = log_gaussian(small, 0.0, 1.0)
    f = LatticeFn.sample(small, "x", lambda a, b, c: env(a) * env(b) * env(c))
    out = tmp_path / "fn.csv"
    f.to_csv(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,x3,re,im"
    assert len(lines) > 10
