import gc
from math import comb

import pytest

from qeuclid.qarith import QScalar, ONE, LAMBDA
from qeuclid import ncalgebra
from qeuclid.ncalgebra import (
    LETTERS,
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
    is_normal_ordered,
    _INSERT_TABLES,
)
from qeuclid.starcalc import Poly, X_SECTOR, star_product
from qeuclid.verify import run_suite


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


def test_confluence_and_degree(rand_poly):
    for conv in ("W", "Wt"):
        for _ in range(30):
            prod = nc_multiply(weyl_map(rand_poly(deg=3, nterm=3, conv=conv)),
                               weyl_map(rand_poly(deg=3, nterm=3, conv=conv)))
            left = normal_order(prod, conv, "leftmost")
            right = normal_order(prod, conv, "rightmost")
            assert left == right
            assert left.total_degrees() <= prod.total_degrees()


@pytest.mark.parametrize("conv", ["W", "Wt"])
def test_long_words(conv):
    # X-^8 X+^8 and its mirror: 64 inversions and up to 8 lam terms per word
    xm = Poly.monomial((X_SECTOR,), ((0, 0, 8),), 0, ONE, conv)
    xp = Poly.monomial((X_SECTOR,), ((8, 0, 0),), 0, ONE, conv)
    for f, g in ((xm, xp), (xp, xm)):
        prod = nc_multiply(weyl_map(f), weyl_map(g))
        want = star_product(f, g)
        for strategy in ("leftmost", "rightmost"):
            got = normal_order(prod, conv, strategy)
            assert weyl_unmap(got, X_SECTOR, conv) == want


def sorted_pairs(degree: int) -> int:
    """The (sorted word, letter) pairs with a word of at most ``degree``
    letters: a sorted word is its four letter counts."""
    return len(LETTERS) * comb(degree + len(LETTERS), len(LETTERS))


def test_insertion_tables_hold_sorted_pairs(monkeypatch):
    degrees = []

    def recording(f, *args):
        degrees.extend(f.total_degrees())
        return normal_order(f, *args)

    monkeypatch.setattr(ncalgebra, "normal_order", recording)
    for table in _INSERT_TABLES.values():
        table.clear()
    run_suite("ncalgebra", seed=2024)
    for conv in ("W", "Wt"):
        test_long_words(conv)
    # s x is never longer than the input word it comes from; test_long_words
    # calls normal_order directly, on words of 16 letters
    top = max(degrees + [16])
    for (conv, _), table in _INSERT_TABLES.items():
        assert table, conv
        for s, x in table:
            assert is_normal_ordered(s, conv) and x in LETTERS and len(s) < top
        assert len(table) <= sorted_pairs(top - 1)
    sizes = {key: len(table) for key, table in _INSERT_TABLES.items()}
    test_long_words("W")
    assert {key: len(table) for key, table in _INSERT_TABLES.items()} == sizes


def test_strategies_keep_separate_tables():
    for table in _INSERT_TABLES.values():
        table.clear()
    prod = NCPoly.word(XM, XM, XP, X3, XP)
    left = normal_order(prod, "W", "leftmost")
    assert _INSERT_TABLES["W", True] and not _INSERT_TABLES["W", False]
    assert normal_order(prod, "W", "rightmost") == left
    assert _INSERT_TABLES["W", False] and not _INSERT_TABLES["Wt", True]


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="strategy"):
        normal_order(NCPoly.word(XM, XP), "W", "leftmots")


def test_oracle_leaves_no_cyclic_garbage(rand_poly):
    # the insertion tables hold no cycles, and what a call builds beside
    # them must be freed by reference counting alone
    f, g = rand_poly(deg=4, nterm=3), rand_poly(deg=4, nterm=3)
    gc.collect()
    gc.disable()
    try:
        assert star_via_weyl(f, g) == star_product(f, g)
        assert gc.collect() == 0
    finally:
        gc.enable()


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
