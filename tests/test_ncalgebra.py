import gc
from math import comb

import pytest

from qeuclid.qarith import QScalar, ONE, LAMBDA
from qeuclid import ncalgebra
from qeuclid.ncalgebra import (
    LETTERS,
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
    a = {(XP,): ONE}
    b = {(X3,): ONE}
    assert nc_multiply(a, b) == {(XP, X3): ONE}
    assert nc_multiply({(): ONE}, b) == b
    mixed = {(XM,): ONE, (X3,): ONE}
    assert nc_multiply(mixed, a) == {(XM, XP): ONE, (X3, XP): ONE}


def test_nc_multiply_drops_cancelled_words():
    # (X+ + X+ X+)(X+ X+ - X+) = X+^4 - X+^2: the two X+^3 products cancel
    a = {(XP,): ONE, (XP, XP): ONE}
    b = {(XP, XP): ONE, (XP,): -ONE}
    assert nc_multiply(a, b) == {(XP,) * 4: ONE, (XP, XP): -ONE}


@pytest.mark.parametrize("conv", ["W", "Wt"])
@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_normal_order_of_a_relation_is_empty(conv, strategy):
    # X- X+ - X+ X- - lam X3 X3 is zero in the algebra: every word cancels
    relation = {(XM, XP): ONE, (XP, XM): -ONE, (X3, X3): -LAMBDA}
    assert normal_order(relation, conv, strategy) == {}


def test_defining_rewrites():
    assert normal_order({(X3, XP): ONE}) == {(XP, X3): QScalar.q(2)}
    want = {(XP, XM): ONE, (X3, X3): LAMBDA}
    assert normal_order({(XM, XP): ONE}) == want
    # X0 commutes through, then the lambda rule applies
    got = normal_order({(X0, XM, XP): ONE})
    want = {(XP, XM, X0): ONE, (X3, X3, X0): LAMBDA}
    assert got == want


def test_normal_order_idempotent(rand_poly):
    for _ in range(10):
        F = weyl_map(rand_poly(deg=4))
        once = normal_order(F)
        assert normal_order(once) == once


def test_confluence_and_degree(rand_poly):
    for conv in ("W", "Wt"):
        for _ in range(30):
            F = weyl_map(rand_poly(deg=3, nterm=3, conv=conv))
            G = weyl_map(rand_poly(deg=3, nterm=3, conv=conv))
            prod = nc_multiply(F, G)
            left = normal_order(prod, conv, "leftmost")
            right = normal_order(prod, conv, "rightmost")
            assert left == right
            assert {len(w) for w in left} <= {len(w) for w in prod}
            for combination in (F, G, prod, left, right):
                assert not any(c.is_zero() for c in combination.values())


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
        degrees.extend(len(w) for w in f)
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
    prod = {(XM, XM, XP, X3, XP): ONE}
    left = normal_order(prod, "W", "leftmost")
    assert _INSERT_TABLES["W", True] and not _INSERT_TABLES["W", False]
    assert normal_order(prod, "W", "rightmost") == left
    assert _INSERT_TABLES["W", False] and not _INSERT_TABLES["Wt", True]


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="strategy"):
        normal_order({(XM, XP): ONE}, "W", "leftmots")


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
    assert F == {(XP, XP, X3, X0): ONE}
    assert weyl_map(Poly.one((X_SECTOR,))) == {(): ONE}


def test_unmap_rejects_unordered():
    with pytest.raises(ValueError):
        weyl_unmap({(X3, XP): ONE}, X_SECTOR, "W")


def test_wt_convention_ordering():
    got = normal_order({(XP, X3): ONE}, "Wt")
    assert got == {(X3, XP): QScalar.q(-2)}


def test_oracle_vs_star(rand_poly):
    for _ in range(25):
        f, g = rand_poly(deg=4, nterm=3), rand_poly(deg=4, nterm=3)
        assert star_via_weyl(f, g) == star_product(f, g)
    for _ in range(10):
        f = rand_poly(deg=3, nterm=3, conv="Wt")
        g = rand_poly(deg=3, nterm=3, conv="Wt")
        assert star_via_weyl(f, g) == star_product(f, g)
