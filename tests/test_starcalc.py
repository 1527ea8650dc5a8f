import json
from itertools import product

import pytest

from qeuclid.qarith import QScalar, I, ONE, LAMBDA, q_factorial, q_number
from qeuclid import starcalc
from qeuclid.starcalc import (
    Metric,
    P_SECTOR,
    Poly,
    Sector,
    X_SECTOR,
    SectorMismatch,
    conjugate,
    coord,
    coord_variable,
    coord_poly_from_json,
    coord_poly_to_json,
    star_product,
)
from qeuclid.schrodinger import psq, psq_power, psq_star_power

xp, x3, xm = (coord_variable(v) for v in ("x+", "x3", "x-"))


def test_unit_and_sector_guard():
    one = Poly.one((X_SECTOR,))
    assert star_product(xp, one) == xp
    with pytest.raises(SectorMismatch):
        star_product(xp, coord_variable("p3"))
    with pytest.raises(SectorMismatch):
        star_product(xp, xm.with_convention("Wt"))


def test_sector_is_a_value():
    s = Sector("x", "y")
    assert s == Sector("x", "y") and hash(s) == hash(Sector("x", "y"))
    assert s != X_SECTOR and s != Sector("p", "y") and X_SECTOR == Sector("x", "x")
    with pytest.raises(AttributeError):
        s.kind = "p"
    with pytest.raises(ValueError, match="unknown sector kind 'y'"):
        Sector("y", "y")


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
        b2, g2 = Metric.lower(b)  # raising: g^AB = g_AB
        assert (a, True) == (b2, (g * g2).is_one())


@pytest.mark.parametrize("convention", ("W", "Wt"))
def test_coord_at_either_index_position(convention):
    # x^A and p_A are the sectors' own variables; the other position is the
    # partner's variable times the metric entry, X_A = g_AB X^B, X^A = g^AB X_B
    native = {"x": "upper", "p": "lower"}
    partner = {"+": "-", "3": "3", "-": "+"}
    for kind, index, position in product("xp", "+3-", ("upper", "lower")):
        own = coord_variable(kind + index, convention)
        b = partner[index]
        if position == native[kind]:
            assert coord(kind, index, position, convention) == own
            continue
        g = Metric.entry(index, b)
        assert coord(kind, index, position, convention) == coord_variable(kind + b, convention).scale(g)
        # lowering twice gives the index back: g_AB X^B = X_A and g^AB X_B = X^A
        assert coord(kind, b, position, convention).scale(g) == own
    with pytest.raises(ValueError, match="bad position 'uper'"):
        coord("p", "+", "uper", convention)
    # p^2 = p^A p_A through this ordering's star of its coordinates, and its
    # star powers, are the expansion read in this ordering: the W series
    # itself, or its mirror in Wt (the twisted plane waves read it so)
    p = {a: coord("p", a, "lower", convention) for a in Metric.indices}
    p2 = Metric.contract(lambda b, a: p[b].star(p[a]))

    def expansion(k):
        w = psq_power(k)
        return w if convention == "W" else w.subs_q_inverse_swap()

    assert p2 == expansion(1)
    power = Poly.one((P_SECTOR,), convention)
    for k in range(4):
        assert power == expansion(k)
        power = power.star(p2)
    if convention == "W":
        assert psq() == p2
        assert all(psq_star_power(k) == psq_power(k) for k in range(4))


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


def test_star_coeff_is_the_falling_factorial_quotient():
    """The monomial star coefficient against the paper's form
    lam^k [[c1]]...[[c1-k+1]] [[a2]]...[[a2-k+1]] / [[k]]! in base q^4, and
    its q -> 1/q image for the mirror sign: equal values and equal JSON."""

    def falling(n, k):
        out = ONE
        for j in range(k):
            out = out * q_number(n - j, 4)
        return out

    for c1, a2 in product(range(9), repeat=2):
        for k in range(min(c1, a2) + 1):
            want = LAMBDA**k * falling(c1, k) * falling(a2, k) / q_factorial(k, 4)
            for m, image in ((1, want), (-1, want.subs_q_inverse())):
                got = starcalc._star_coeff(c1, a2, k, m)
                assert got == image and got.to_json() == image.to_json(), (c1, a2, k, m)
