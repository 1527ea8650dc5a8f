import pytest

from qeuclid.qarith import QScalar, ONE, LAMBDA
from qeuclid.ncalgebra import (
    NCPoly,
    XP,
    X3,
    XM,
    X0,
    nc_multiply,
    normal_order,
    weyl_map,
    weyl_unmap,
    star_via_weyl,
)
from qeuclid.starcalc import Poly, X_SECTOR, star_product


def test_nc_multiply_concatenates():
    a = NCPoly.word(XP)
    b = NCPoly.word(X3)
    assert nc_multiply(a, b) == NCPoly.word(XP, X3)
    assert nc_multiply(NCPoly.one(), b) == b
    mixed = NCPoly.word(XM) + NCPoly.word(X3)
    assert nc_multiply(mixed, a) == NCPoly.word(XM, XP) + NCPoly.word(X3, XP)


def test_defining_rewrites():
    assert normal_order(NCPoly.word(X3, XP)) == NCPoly.word(XP, X3, coeff=QScalar.q(2))
    want = NCPoly.word(XP, XM) + NCPoly.word(X3, X3, coeff=LAMBDA)
    assert normal_order(NCPoly.word(XM, XP)) == want
    # X0 commutes through, then the lambda rule applies
    got = normal_order(NCPoly.word(X0, XM, XP))
    want = NCPoly.word(XP, XM, X0) + NCPoly.word(X3, X3, X0, coeff=LAMBDA)
    assert got == want


def test_normal_order_idempotent(rand_poly):
    for _ in range(10):
        F = weyl_map(rand_poly(deg=4))
        once = normal_order(F)
        assert normal_order(once) == once


def test_confluence_and_degree(rnd, rand_poly):
    for _ in range(30):
        prod = nc_multiply(weyl_map(rand_poly(deg=3, nterm=3)),
                           weyl_map(rand_poly(deg=3, nterm=3)))
        left = normal_order(prod, "W", "leftmost")
        right = normal_order(prod, "W", "rightmost")
        assert left == right
        assert left.total_degrees() <= prod.total_degrees()


def test_weyl_map_example():
    f = Poly.monomial((X_SECTOR,), ((2, 1, 0),), 1, ONE)
    F = weyl_map(f)
    assert F == NCPoly.word(XP, XP, X3, X0)
    assert weyl_map(Poly.one((X_SECTOR,))) == NCPoly.one()


def test_unmap_rejects_unordered():
    with pytest.raises(ValueError):
        weyl_unmap(NCPoly.word(X3, XP), X_SECTOR, "W")


def test_wt_convention_ordering():
    got = normal_order(NCPoly.word(XP, X3), "Wt")
    assert got == NCPoly.word(X3, XP, coeff=QScalar.q(-2))


def test_oracle_vs_star(rand_poly):
    for _ in range(25):
        f, g = rand_poly(deg=4, nterm=3), rand_poly(deg=4, nterm=3)
        assert star_via_weyl(f, g) == star_product(f, g)
    for _ in range(10):
        f = rand_poly(deg=3, nterm=3, conv="Wt")
        g = rand_poly(deg=3, nterm=3, conv="Wt")
        assert star_via_weyl(f, g) == star_product(f, g)


def test_ncpoly_json_roundtrip(rand_poly):
    F = weyl_map(rand_poly(deg=3))
    assert NCPoly.from_json(F.to_json()) == F
