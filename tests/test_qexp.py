from itertools import product

import pytest

from qeuclid.qarith import I, I_INV, ONE, q_factorial
from qeuclid import qarith, qexp
from qeuclid.qcalculus import apply_derivative, d, inverse_partial
from qeuclid.starcalc import Poly, P_SECTOR, X_SECTOR, coord_variable
from qeuclid.qexp import (
    CONJUGATE_PAIRS,
    FAMILIES,
    VARIANTS,
    XP_SECTORS,
    Y_SECTOR,
    Family,
    addition_theorem_residual,
    build_exponential,
    counit_residuals,
    eigen_residual,
    exponential_to_json,
    hopf_antipode_residuals,
    inverse_exponential_residual,
    q_invert,
    q_translate,
    q_translate_oracle_plus,
    u_operator,
)
from qeuclid.verify import run_suite

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


def _printed_ipinv_x(order: int) -> Poly:
    """exp(1/i p | x) as printed: upper-index momenta paired with lower-index
    positions, resolved through the metric.  At position exponents (a, b, c)
    the coefficient is q^{2(c-a)} (1/i)^{a+b+c} over
    [[c]]_{q^4}! [[b]]_{q^2}! [[a]]_{q^4}!, on momentum exponents (c, b, a)."""
    terms = {}
    for total in range(order + 1):
        for a in range(total + 1):
            for b in range(total - a + 1):
                c = total - a - b
                denom = q_factorial(c, 4) * q_factorial(b, 2) * q_factorial(a, 4)
                coeff = ((I_INV ** total) / denom).shift(2 * (c - a))
                terms[(((a, b, c), (c, b, a)), 0)] = coeff
    return Poly(XP_SECTORS, terms, "W")


@pytest.mark.parametrize("order", range(7))
def test_ipinv_x_matches_printed_formula(order):
    """ipinv_x is built as conj(x_ip); the printed formula is an independent route."""
    assert build_exponential("ipinv_x", order).body == _printed_ipinv_x(order)


def test_family_table_names_the_parsers_six_families():
    """The expression parser checks names against ``qarith.VARIANTS``, which
    must name the families of qexp's table, in its order, each the partner
    of its partner."""
    assert qarith.VARIANTS == tuple(FAMILIES)
    assert all(FAMILIES[f.partner].partner == v for v, f in FAMILIES.items())
    assert sorted(sum(CONJUGATE_PAIRS, ())) == sorted(VARIANTS)


@pytest.mark.parametrize("variant, partner", CONJUGATE_PAIRS)
def test_conjugation_table(variant, partner):
    lhs = build_exponential(variant, N).body.conjugate()
    assert lhs == build_exponential(partner, N).body


@pytest.mark.parametrize("variant", VARIANTS)
def test_momentum_residual_fails_with_the_familys_own_rule(monkeypatch, variant):
    """i d_p^A acts on a family with its conjugate partner's rule: with the
    family's own rule instead, the momentum residual below the shell is
    nonzero at N = 4."""
    family = FAMILIES[variant]
    monkeypatch.setitem(FAMILIES, variant, Family(family.mirror, family.rule, variant))
    e = build_exponential(variant, 4)
    assert any(not eigen_residual(e, a, 1).is_zero() for a in ("+", "3", "-"))


_MOMENTUM_CASE = "momentum derivatives: exponentials are eigenfunctions (N=3)"
_CONJUGATION_CASE = "conjugation table: conj exp(x|ip) = exp(1/i p|x)"


@pytest.mark.parametrize("variant, row, case", [
    ("bar_x_ip", Family(("x_ip", 0), ("hat", "left_bar", "r"), "bar_x_ip"), _MOMENTUM_CASE),
    ("star_x_ipinv", Family(("ipinv_x", 6), ("plain", "left_bar", "r"), "star_ip_x"),
     _CONJUGATION_CASE),
], ids=["own rule", "wrong plain partner"])
def test_verify_eigen_and_conjugation_cases_can_fail(monkeypatch, variant, row, case):
    """A family's own rule in place of its partner's fails the momentum case;
    a twisted family mirrored from the wrong plain family fails the
    conjugation case."""
    monkeypatch.setitem(FAMILIES, variant, row)
    failed = {c.name for c in run_suite("qexp").failures}
    assert case in failed


def test_qexp_suite_builds_each_series_once(monkeypatch):
    """A qexp run builds each of the six families once, for the cases that
    read them, and x_ip three more times inside the addition-theorem and
    inverse-exponential residuals: 9 builds."""
    calls, build = [], qexp.build_exponential

    def spy(variant, order):
        calls.append(variant)
        return build(variant, order)

    monkeypatch.setattr(qexp, "build_exponential", spy)
    assert run_suite("qexp").exit_code == 0
    assert sorted(calls) == sorted(VARIANTS + ("x_ip",) * 3)


def test_qexp_suite_build_failure_fails_only_the_cases_reading_it(monkeypatch):
    """A build that raises fails the cases that read the family and no other."""
    build = qexp.build_exponential

    def broken(variant, order):
        if variant == "star_ip_x":
            raise ArithmeticError("broken build")
        return build(variant, order)

    monkeypatch.setattr(qexp, "build_exponential", broken)
    assert [c.name for c in run_suite("qexp").failures] == [
        "eigen residuals vanish below shell (all variants, N=3)",
        "normalization at x=0 and p=0",
        _CONJUGATION_CASE,
        _MOMENTUM_CASE,
    ]


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


def _plusbar_by_plain_exponential(f: Poly) -> Poly:
    """f(x (+bar) y) as exp(x | d_y) |> f(y): the plain family, with plain
    left derivatives, each derivative word applied rightmost letter first."""
    order = max(sum(triples[0]) for triples, _ in f.terms)
    # relabel: the plain derivative formulas read only the commutative monomials
    work = f.rename_sectors((Y_SECTOR,)).with_convention("W")
    total = Poly.zero((X_SECTOR, Y_SECTOR), "W")
    for np_, n3, nm in product(range(order + 1), repeat=3):
        g = work
        for idx in ["+"] * np_ + ["3"] * n3 + ["-"] * nm:
            g = apply_derivative(d(idx), g)
        if g.is_zero():
            continue
        denom = q_factorial(np_, 4) * q_factorial(n3, 2) * q_factorial(nm, 4)
        g = g.scale(ONE / denom).insert_sector(0, X_SECTOR)
        total = total + g.mul_slot_var(0, 0, np_).mul_slot_var(0, 1, n3).mul_slot_var(0, 2, nm)
    # relabel back: a translation of commutative monomials keeps f's tag
    return total.with_convention(f.convention)


@pytest.mark.parametrize("conv", ["W", "Wt"])
def test_plusbar_matches_plain_exponential_route(rand_poly, conv):
    """The mirrored printed formula against an independent route."""
    checked = 0
    while checked < 15:
        f = rand_poly(deg=3, nterm=4, with_t=False, conv=conv).filter_terms(
            lambda key: sum(key[0][0]) <= 3
        )
        if f.is_zero():
            continue
        assert q_translate(f, "plusbar").polynomial == _plusbar_by_plain_exponential(f)
        checked += 1


def test_inversion_values_and_classical():
    xp = coord_variable("x+")
    assert q_invert(Poly.one((X_SECTOR,)), "minus") == Poly.one((X_SECTOR,))
    g = q_invert(xp, "minus")
    assert abs(g.eval_classical(1.0, ((0.4, 0.2, 0.6),)) + 0.4) < 1e-12
    gb = q_invert(xp, "minusbar")
    assert abs(gb.eval_classical(1.0, ((0.4, 0.2, 0.6),)) + 0.4) < 1e-12


def test_u_operators_mutually_inverse(rand_poly):
    """U^-1 is the mirror image of U, and both compositions are the identity."""

    def u_inverse(g):
        return u_operator(g.subs_q_inverse_swap()).subs_q_inverse_swap()

    for conv in ("W", "Wt"):
        f = rand_poly(deg=2, nterm=3, with_t=False, conv=conv)
        assert u_operator(u_inverse(f)) == f
        assert u_inverse(u_operator(f)) == f


def _mono(triple, conv="W"):
    return Poly.monomial((X_SECTOR,), (triple,), 0, ONE, conv)


#: (series, its run on a degree-12 monomial, Jackson derivatives it takes):
#: each series steps term k from term k - 1, two derivatives per term plus
#: the step that finds the first zero term, and the translation takes one
#: derivative chain per slot
SERIES_STEPS = [
    ("d- inverse", lambda: inverse_partial(d("-"), _mono((2, 12, 1))), 2 * 7),
    ("hatted d+ inverse",
     lambda: inverse_partial(d("+", "hat", "left_bar"), _mono((1, 12, 2), "Wt")), 2 * 7),
    ("U", lambda: u_operator(_mono((6, 1, 6))), 2 * 7),
    ("inversion", lambda: q_invert(_mono((1, 12, 1))), 2 * 7 + 2 * 8),
    ("translation", lambda: q_translate(_mono((2, 6, 2))), 2 + 3 * 2 + 9 * 6),
]


@pytest.mark.parametrize("run, calls", [case[1:] for case in SERIES_STEPS],
                         ids=[case[0] for case in SERIES_STEPS])
def test_each_series_term_steps_from_the_last(monkeypatch, run, calls):
    """The exact series take Jackson derivatives linear in their length,
    not one chain from the input per term (56, 56, 114 and 846 calls)."""
    counted = []
    jackson_d = Poly.jackson_d
    monkeypatch.setattr(Poly, "jackson_d",
                        lambda self, *args: counted.append(args) or jackson_d(self, *args))
    run()
    assert len(counted) == calls


def test_sector_map_images_each_monomial_once(monkeypatch):
    """The inverse exponential inverts the y sector of exp(x | exp(y|ip) *
    ip), whose monomials recur under many (x, p) monomials: each distinct
    monomial is inverted once per kind, and the residual still vanishes."""
    seen = []
    invert = qexp.q_invert

    def spy(g, kind="minus"):
        seen.append((kind, *g.terms))
        return invert(g, kind)

    monkeypatch.setattr(qexp, "q_invert", spy)
    assert inverse_exponential_residual(3).is_zero()
    assert seen and len(seen) == len(set(seen))


@pytest.mark.parametrize("triple", [(1, 6, 1), (0, 6, 0), (6, 1, 0), (0, 2, 6)])
def test_translation_and_hopf_laws_at_slot_degree_6(rand_poly, triple):
    """At slot degree 6, past the 4 that the other checks reach, the printed
    translation equals the exponential route, and the counit and antipode
    laws hold exactly, barred and unbarred."""
    f = _mono(triple) + rand_poly(deg=2, nterm=2, with_t=False)
    assert q_translate(f, "plus").polynomial == q_translate_oracle_plus(f).polynomial
    for barred in (False, True):
        assert all(r.is_zero() for r in counit_residuals(f, barred)), barred
        assert all(r.is_zero() for r in hopf_antipode_residuals(f, barred)), barred


def test_hopf_residuals_build_only_below_their_shell(monkeypatch):
    """The inverse exponential's star merge sees only its 104 terms below the
    shell at order 4 (2,338 when every term was built and filtered), and the
    addition theorem translates only monomials below the shell."""
    merged = []
    merge = Poly.merge_sectors_star

    def merge_spy(self, i, j):
        merged.extend(self.terms)
        return merge(self, i, j)

    monkeypatch.setattr(Poly, "merge_sectors_star", merge_spy)
    assert inverse_exponential_residual(4).is_zero()
    assert len(merged) == 104
    assert all(sum(tr[0]) + sum(tr[1]) <= 3 for tr, _ in merged)

    translated = []
    translate = qexp.q_translate

    def translate_spy(f, kind="plus"):
        translated.extend(tr[0] for tr, _ in f.terms)
        return translate(f, kind)

    monkeypatch.setattr(qexp, "q_translate", translate_spy)
    assert addition_theorem_residual(4).is_zero()
    assert translated and max(sum(m) for m in translated) == 3


def test_hopf_residuals_catch_the_wrong_partner(monkeypatch):
    """Each residual can fail: the unbarred inversion or translation in place
    of the barred one leaves terms below the shell."""
    invert, translate = qexp.q_invert, qexp.q_translate
    monkeypatch.setattr(qexp, "q_invert", lambda g, kind="minus": invert(g, "minus"))
    assert not inverse_exponential_residual(3).is_zero()
    monkeypatch.setattr(qexp, "q_invert", invert)
    monkeypatch.setattr(qexp, "q_translate", lambda f, kind="plus": translate(f, "plus"))
    assert not addition_theorem_residual(3).is_zero()


@pytest.mark.parametrize("residual", [addition_theorem_residual,
                                      inverse_exponential_residual])
def test_hopf_residuals_vanish_at_order_6(residual):
    assert residual(6).is_zero()
