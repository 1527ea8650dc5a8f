import numpy as np
import pytest

from qeuclid.qarith import QScalar, ONE, LAMBDA, q_number
from qeuclid.starcalc import Poly, X_SECTOR, coord_variable, conjugate
from qeuclid.qcalculus import (
    ConventionError,
    DerivativeLabel,
    apply_derivative,
    braiding_operator,
    d,
    integration_adjoint,
    inverse_partial,
)
from qeuclid.lattice import (
    AxisFn,
    QLattice,
    StructuredFn,
    STerm,
    _LogGaussian,
    log_gaussian,
)

xp, x3, xm, tv = (coord_variable(v) for v in ("x+", "x3", "x-", "t"))


def test_derivative_examples():
    f = x3.mul_pointwise(x3)
    assert apply_derivative(d("-"), f) == xp.scale(LAMBDA * q_number(2, 2))
    t2 = tv.mul_pointwise(tv)
    assert apply_derivative(d("0"), t2) == tv.scale(QScalar.from_rational(2))
    r = apply_derivative(d("-", "hat", "left_bar"), xm.with_convention("Wt"))
    assert r == Poly.one((X_SECTOR,), "Wt")


def test_derivative_label_is_a_value():
    label = DerivativeLabel("+")
    assert (label.variant, label.side, label.position) == ("plain", "left", "lower")
    assert label == d("+", "plain", "left", "lower") and hash(label) == hash(d("+"))
    assert label != d("+", position="upper") and label != d("-")
    with pytest.raises(AttributeError):
        label.index = "3"
    for args, field in ((("1",), "index"), (("+", "tilde"), "variant"),
                        (("+", "plain", "up"), "side"), (("+", "plain", "left", "mid"), "position")):
        with pytest.raises(ValueError, match=f"bad {field}"):
            DerivativeLabel(*args)


def test_convention_guard(lat):
    with pytest.raises(ConventionError):
        apply_derivative(d("+", "hat", "left_bar"), xp)
    sx = StructuredFn.from_poly(lat, xp)
    with pytest.raises(ConventionError):
        apply_derivative(d("+", "hat", "left_bar"), sx)
    sxt = StructuredFn(lat, "x", sx.terms, "Wt")
    for combine in (sx.__add__, sx.star, sx.star_integral):
        with pytest.raises(ValueError, match="convention mismatch"):
            combine(sxt)


def test_hat_family_is_substituted(rand_poly):
    sigma = {"+": "-", "3": "3", "-": "+", "0": "0"}
    for sector, positions in (("x", ("lower",)), ("p", ("upper", "lower"))):
        for _ in range(10):
            f = rand_poly(sector=sector)
            for a in ("+", "3", "-", "0"):
                for pos in positions:
                    hat = d(sigma[a], "hat", "left_bar", pos)
                    lhs = apply_derivative(hat, f.subs_q_inverse_swap())
                    assert lhs == apply_derivative(d(a, position=pos), f).subs_q_inverse_swap()


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
    for side, conv in (("right_bar", "W"), ("right", "Wt")):
        g = rand_poly(conv=conv)
        for variant in ("plain", "hat"):
            for a in ("+", "3", "-", "0"):
                lab = d(a, variant, side)
                assert apply_derivative(lab, inverse_partial(lab, g)) == g


@pytest.mark.parametrize("label, conv", [(d("-"), "W"), (d("-", "hat", "left_bar"), "Wt"),
                                         (d("+", "hat", "left_bar"), "Wt")])
def test_d_minus_inverse_roundtrips_up_to_x3_degree_12(rand_poly, label, conv):
    """The d- series (d+ for the hatted bar action, through the mirror)
    inverts its derivative exactly at every x3 degree up to 12, seven terms
    deep there; the random carriers above stay at degree 3 per slot."""
    for b in range(13):
        f = rand_poly(deg=2, nterm=2, conv=conv) + Poly.monomial(
            (X_SECTOR,), ((b % 3, b, 2 - b % 3),), b % 2, QScalar.q(b - 6), conv)
        assert apply_derivative(label, inverse_partial(label, f)) == f, b


# -- lattice layer -------------------------------------------------------------


@pytest.fixture(scope="module")
def lat():
    return QLattice(1.1, -16, 16)


def _mix(lat, rng):
    c, w = rng.uniform(-0.6, 0.6), rng.uniform(0.8, 1.2)
    return log_gaussian(lat, c, w, odd_fraction=rng.uniform(-0.6, 0.6))


def test_structured_matches_symbolic(lat, rand_poly):
    js = np.array([-2, 0, 3])
    for conv in ("W", "Wt"):
        for _ in range(6):
            f, g = rand_poly(with_t=False, conv=conv), rand_poly(with_t=False, conv=conv)
            sf = StructuredFn.from_poly(lat, f)
            sg = StructuredFn.from_poly(lat, g)
            lhs = sf.star(sg).values_on(js, js, js)
            rhs = StructuredFn.from_poly(lat, f.star(g)).values_on(js, js, js)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
            lhs = sf.conjugate().values_on(js, js, js)
            rhs = StructuredFn.from_poly(lat, conjugate(f)).values_on(js, js, js)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_leibniz_closure_on_class_data(lat):
    rng = np.random.default_rng(3)
    f = StructuredFn(lat, "x", [STerm(0.7 + 0.2j, (1, 1, 0), (_mix(lat, rng), _mix(lat, rng), None))])
    g = StructuredFn(lat, "x", [STerm(1.0 - 0.4j, (1, 0, 1), (None, _mix(lat, rng), _mix(lat, rng)))])
    js = np.array([-3, 0, 2])
    for a in ("+", "3", "-"):
        lhs = apply_derivative(d(a), f.star(g)).values_on(js, js, js)
        rhs = apply_derivative(d(a), f).star(g).values_on(js, js, js)
        for c in ("+", "3", "-"):
            Of = braiding_operator(a, c, f, "plain")
            rhs = rhs + Of.star(apply_derivative(d(c), g)).values_on(js, js, js)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(1.0, np.max(np.abs(lhs)))


def test_stokes(lat):
    rng = np.random.default_rng(4)
    envs = (_mix(lat, rng), _mix(lat, rng), _mix(lat, rng))
    for a in ("+", "3", "-"):
        for variant, side, conv in (("plain", "left", "W"), ("hat", "left_bar", "Wt")):
            f = StructuredFn.from_envelopes(lat, "x", envs, convention=conv)
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
                  (None, _mix(lat, rng), _mix(lat, rng)))], "Wt")
        gh = StructuredFn(lat, "x", [
            STerm(complex(rng.normal(), rng.normal()),
                  tuple(int(v) for v in rng.integers(0, 3, 3)),
                  (_mix(lat, rng), _mix(lat, rng), None))], "Wt")
        for a in ("+", "3", "-"):
            L = fh.star(apply_derivative(d(a, "hat", "left_bar", "upper"), gh)).integral_all_space()
            R = integration_adjoint(a, fh, "hat", "upper").star(gh).integral_all_space()
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
    # the conjugates are the Wt classes
    fh, gh = (StructuredFn(lat, "x", h.conjugate().terms, "Wt") for h in (f, g))
    for lhs, rhs in (
        (f.star_integral(g), f.star(g).integral_all_space()),
        (fh.star_integral(gh), fh.star(gh).integral_all_space()),
    ):
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_equal_dilation_chains_merge(lat):
    rng = np.random.default_rng(8)
    f = StructuredFn(lat, "x", [
        STerm(0.3 - 1.1j, (2, 0, 1), (_mix(lat, rng), _mix(lat, rng), None)),
        STerm(0.8 + 0.5j, (0, 0, 3), (None, _mix(lat, rng), _mix(lat, rng))),
    ])
    assert (f.scale_slot(0, 1, 2).scale_slot(0, 1, -2) - f).is_zero()


def test_conjugation_of_integrals(lat):
    rng = np.random.default_rng(6)
    for _ in range(4):
        f = StructuredFn(lat, "x", [
            STerm(complex(rng.normal(), rng.normal()), (0, 0, 0),
                  (_mix(lat, rng), _mix(lat, rng), _mix(lat, rng)))])
        lhs = np.conjugate(f.integral_all_space())
        rhs = f.conjugate().integral_all_space()
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    # a complex mix of the three envelopes, which conjugation has to reach,
    # lives in the coefficient
    env = log_gaussian(lat, 0.2, 1.0)
    f = StructuredFn(lat, "x", [STerm((0.5 + 0.1j) * (0.6 - 0.8j) ** 3, (2, 0, 2),
                                      (env, env, env))])
    lhs = np.conjugate(f.integral_all_space())
    rhs = f.conjugate().integral_all_space()
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_boundary_rejection(lat):
    flat = StructuredFn(lat, "x", [STerm(1.0, (0, 0, 0), (None, None, None))])
    assert flat.boundary_mass() > 1e-3  # non-decaying data is detectable


def test_dense_lattice_roundtrip(lat):
    """integral_all_space against the nested Jackson sum written out: samples
    on each slot's integration points of both signs, times their weights."""
    js = [lat.integration_js(slot) for slot in range(3)]
    weights = [np.tile(lat.integration_weights(slot), 2) for slot in range(3)]
    env, wide = log_gaussian(lat, 0.0, 1.4), _LogGaussian(lat.q0, 0.0, 1.6, 0.0)
    odd = AxisFn(lambda x: np.sign(x) * wide(x))  # no leaf is sign-odd
    # x1 odd(x1) is even: its negative branch needs both signs sampled right
    s = StructuredFn(lat, "x", [STerm(1.0, (0, 0, 0), (env, env, env)),
                                STerm(0.5, (1, 2, 0), (odd, env, env))])
    brute = np.einsum("ijk,i,j,k->", s.values_on(*js), *weights)
    assert abs(brute - s.integral_all_space()) <= 1e-12 * abs(s.integral_all_space())
    g = StructuredFn.from_envelopes(lat, "x", (env, odd, env))
    assert abs(g.integral_all_space()) <= 1e-12
