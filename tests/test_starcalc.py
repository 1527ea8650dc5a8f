import json

import pytest

from qeuclid.qarith import QScalar, I, LAMBDA
from qeuclid.starcalc import (
    Metric,
    Poly,
    X_SECTOR,
    SectorMismatch,
    conjugate,
    coord_upper,
    coord_variable,
    coord_poly_from_json,
    coord_poly_to_json,
    lower_index,
    raise_index,
    star_product,
)

xp, x3, xm = (coord_variable(v) for v in ("x+", "x3", "x-"))


def test_unit_and_sector_guard():
    one = Poly.one((X_SECTOR,))
    assert star_product(xp, one) == xp
    with pytest.raises(SectorMismatch):
        star_product(xp, coord_variable("p3"))
    with pytest.raises(SectorMismatch):
        star_product(xp, xm.with_convention("Wt"))


def test_momentum_relation():
    pp, pm, p3 = (coord_variable(v) for v in ("p+", "p-", "p3"))
    want = star_product(pm, pp) + p3.mul_pointwise(p3).scale(LAMBDA)
    assert star_product(pp, pm) == want


def test_associativity(rand_poly):
    for _ in range(25):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert star_product(star_product(a, b), c) == star_product(a, star_product(b, c))


def test_conjugation_values():
    assert conjugate(xp) == xm.scale(-QScalar.q(1))
    assert conjugate(xm) == xp.scale(-QScalar.q(-1))
    assert conjugate(x3) == x3
    assert conjugate(x3.scale(I)) == x3.scale(-I)


def test_conjugation_involution_antimult(rand_poly):
    for _ in range(20):
        f, g = rand_poly(), rand_poly()
        assert conjugate(conjugate(f)) == f
        assert conjugate(star_product(f, g)) == star_product(conjugate(g), conjugate(f))


def test_metric_entries_and_inverse():
    assert Metric.entry("+", "-") == -QScalar.q(1)
    assert Metric.entry("-", "+") == -QScalar.q(-1)
    assert Metric.entry("3", "3").is_one()
    assert Metric.entry("+", "+").is_zero()
    for a in Metric.indices:
        b, g = Metric.lower(a)
        b2, g2 = Metric.raise_(b)
        assert (a, True) == (b2, (g * g2).is_one())


def test_raise_lower_roundtrip():
    comps = {a: coord_upper("x", a) for a in Metric.indices}
    assert raise_index(lower_index(comps)) == comps


def test_classical_limit(rand_poly):
    vals = ((0.3 + 0.2j, -0.8, 1.4),)
    for _ in range(10):
        f, g = rand_poly(), rand_poly()
        lhs = star_product(f, g).eval_classical(1.0, vals, 0.7)
        rhs = f.mul_pointwise(g).eval_classical(1.0, vals, 0.7)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_wt_star_is_substituted_w_star(rand_poly):
    for _ in range(10):
        f = rand_poly(conv="Wt")
        g = rand_poly(conv="Wt")
        direct = star_product(f, g)
        via_sub = star_product(f.subs_q_inverse_swap(), g.subs_q_inverse_swap())
        assert direct == via_sub.subs_q_inverse_swap()


def test_json_roundtrip_byte_stable(rand_poly):
    for _ in range(10):
        f = rand_poly()
        s1 = json.dumps(coord_poly_to_json(f), sort_keys=True)
        back = coord_poly_from_json(json.loads(s1))
        assert back == f
        assert json.dumps(coord_poly_to_json(back), sort_keys=True) == s1
