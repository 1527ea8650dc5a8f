import cmath
import json
import math
import os
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qeuclid import schrodinger
from qeuclid.qarith import GRat, QScalar, I, LAMBDA_PLUS
from qeuclid.qcalculus import DerivativeLabel, apply_derivative, right_transport
from qeuclid.starcalc import Poly, P_SECTOR, coord, to_phase_space
from qeuclid.qexp import CONJUGATE_PAIRS, FAMILIES, XP_SECTORS, Family, _star_on
from qeuclid.schrodinger import (
    PLANE_WAVES,
    Hamiltonian,
    MomentumPropagator,
    PacketError,
    PlaneWave,
    WavePacket,
    build_plane_wave,
    cq_coefficient,
    cq_recurrence_residual,
    cq_value,
    gaussian_packet,
    heine_phase_report,
    phase_factor,
    phase_factor_construction_residual,
    phase_group_law_residual,
    plane_wave_printed,
    propagator_defining_residual,
    propagator_momentum,
    psq,
    psq_power,
    psq_star_power,
    schrodinger_energy_residuals,
    zwischen_reorder_residual,
)
from qeuclid.verify import run_suite
from qeuclid import lattice
from qeuclid.lattice import QLattice, StructuredFn, STerm, TableView

MASS = Fraction(2)


def test_cq_values():
    assert cq_coefficient(0, 0).is_one()
    assert cq_coefficient(1, 0) == -LAMBDA_PLUS
    assert cq_coefficient(1, 1) == QScalar.q(-2)
    with pytest.raises(ValueError):
        cq_coefficient(1, 2)


def test_cq_numeric_evaluator():
    for k in range(7):
        for l in range(k + 1):
            exact = cq_coefficient(k, l).eval(1.17)
            assert abs(exact - cq_value(k, l, 1.17)) <= 1e-12 * max(1.0, abs(exact))


def test_psq_powers():
    assert psq_power(0) == Poly.one((P_SECTOR,))
    want = Poly.monomial((P_SECTOR,), ((1, 0, 1),), 0, -LAMBDA_PLUS) + Poly.monomial(
        (P_SECTOR,), ((0, 2, 0),), 0, QScalar.q(-2)
    )
    assert psq_power(1) == want


def test_plane_wave_time_slice_is_exponential():
    from qeuclid.qexp import build_exponential

    w = build_plane_wave("u_lower", 3, 2, MASS)
    t0_slice = w.body.filter_terms(lambda key: key[1] == 0)
    assert t0_slice == build_exponential("x_ip", 3).body


def test_plane_wave_conjugation_pairs():
    """The plane waves on conjugate exponentials are conjugate: u_lower and
    u_upper, and ustar_lower and ustar_upper."""
    wave_of = {variant: family for family, variant in PLANE_WAVES.items()}
    pairs = [(wave_of[a], wave_of[b]) for a, b in CONJUGATE_PAIRS if a in wave_of]
    assert len(pairs) == 2
    for family, partner in pairs:
        u = build_plane_wave(family, 2, 2, MASS)
        assert u.body.conjugate() == build_plane_wave(partner, 2, 2, MASS).body


def test_reordering_rule():
    for k in (1, 2, 3):
        for n in ((1, 1, 1), (0, 2, 1), (2, 0, 3)):
            assert zwischen_reorder_residual(k, n).is_zero()


def test_phase_group_law():
    a = phase_factor(+1, 2, MASS, Fraction(1, 2))
    b = phase_factor(-1, 2, MASS, Fraction(1, 2))
    prod = a.star(b) - Poly.one((P_SECTOR,))
    assert prod.filter_terms(lambda key: sum(key[0][0]) <= 4).is_zero()


def _random_wave(family: str, N: int, K: int, rnd) -> PlaneWave:
    """A plane wave of ``family``'s rule on a random (x, p) body inside the
    truncation box (spatial degree <= N, t-degree <= K), one term on the top
    corner (degree N, t^K) among them, in the family's ordering."""
    def triple(total):
        a = rnd.randint(0, total)
        b = rnd.randint(0, total - a)
        return a, b, total - a - b

    convention = build_plane_wave(family, 0, 0, MASS).body.convention
    body = Poly.zero(XP_SECTORS, convention)
    for i in range(8):
        total, t = (N, K) if i == 0 else (rnd.randint(0, N), rnd.randint(0, K))
        coeff = QScalar.monomial(rnd.randint(-2, 2), GRat(Fraction(rnd.randint(1, 3)),
                                                          Fraction(rnd.randint(-1, 1))))
        body = body + Poly.monomial(XP_SECTORS, (triple(total), triple(rnd.randint(0, 2))),
                                    t, coeff, convention)
    return PlaneWave(family, N, K, MASS, body)


@pytest.mark.parametrize("N, K", [(3, 2), (6, 3)])
@pytest.mark.parametrize("family", PLANE_WAVES)
def test_residuals_are_the_full_residuals_below_the_shell(family, N, K):
    """On a random body, each half of the pair equals the full residual,
    built on the whole body, cut to its shell: spatial degree <= N-2 and
    t-degree <= K-1 for the Schrodinger residual, spatial degree <= N-2 for
    the energy residual.  Both are nonzero here, and the full residuals hold
    terms above the shell, so a cut too deep or too shallow fails."""
    w = _random_wave(family, N, K, random.Random(f"{family} {N} {K}"))
    _, side, star_side = FAMILIES[PLANE_WAVES[family]].rule
    h = Hamiltonian(MASS)
    acted = h.apply(w.body, side)
    dt = apply_derivative(DerivativeLabel("0", "plain", side, "lower"), w.body, 0).scale(I)
    # the W p^2, read in a twisted family's Wt ordering through its mirror
    p2 = psq() if w.body.convention == "W" else psq().subs_q_inverse_swap()
    p2 = to_phase_space(p2, "p").scale(QScalar.from_rational(Fraction(1, 2) / MASS))
    fulls = (dt - acted, acted - _star_on(w.body, p2, star_side))
    shells = (lambda key: sum(key[0][0]) <= N - 2 and key[1] <= K - 1,
              lambda key: sum(key[0][0]) <= N - 2)
    for got, full, shell in zip(schrodinger_energy_residuals(w), fulls, shells):
        cut = full.filter_terms(shell)
        assert got == cut and not got.is_zero()
        assert full != cut


def test_group_law_residual_stars_only_the_pairs_below_the_shell():
    """At order 3 the full product phase(t1) * phase(t2) has 28 terms, 10 of
    momentum degree <= 6; the residual plus phase(t1 + t2) is exactly those
    10, and the residual itself vanishes."""
    t1, t2 = Fraction(1, 3), Fraction(1, 5)
    full = phase_factor(-1, 3, MASS, t1).star(phase_factor(-1, 3, MASS, t2))
    cut = full.filter_terms(lambda key: sum(key[0][0]) <= 6)
    assert (len(cut.terms), len(full.terms)) == (10, 28)
    residual = phase_group_law_residual(3, MASS, t1, t2)
    assert residual.is_zero()
    assert residual + phase_factor(-1, 3, MASS, t1 + t2) == cut


@pytest.mark.parametrize("family", ["KR", "KL", "KRstar", "KLstar"])
def test_propagator_residual_is_empty_when_the_identity_holds(monkeypatch, family):
    """The defining residual is {} for both branches at orders 0 to 8, and
    nonzero from order 1 on when the series carries the other p^2 sign."""
    for branch in (1, -1):
        for order in range(9):
            prop = propagator_momentum(family, branch, order, MASS)
            assert propagator_defining_residual(prop) == {}, (branch, order)
    coefficient = MomentumPropagator.coefficient
    monkeypatch.setattr(MomentumPropagator, "coefficient",
                        lambda self, k: coefficient(self, k).scale(Fraction(-1) ** k))
    for branch in (1, -1):
        for order in range(1, 9):
            prop = propagator_momentum(family, branch, order, MASS)
            assert propagator_defining_residual(prop), (branch, order)


def test_phase_factor_rejects_a_negative_order():
    with pytest.raises(ValueError):
        phase_factor(-1, -1, MASS)
    with pytest.raises(ValueError):
        build_plane_wave("u_lower", 3, -1, MASS)


def test_propagator_rejects_a_negative_order():
    with pytest.raises(ValueError):
        propagator_momentum("KR", 1, -1, MASS)


def test_printed_plane_wave_rejects_a_negative_order():
    for orders in ((3, -1), (-1, 2)):
        with pytest.raises(ValueError):
            plane_wave_printed(*orders, MASS)


_RESIDUALS_CASE = "Schrodinger / momentum / energy residuals below shell"
_PACKET_CASE = "wave packet suite: norms, <P>, <X> (1e-10)"


def _failed(suite: str) -> dict:
    return {c.name: c.detail for c in run_suite(suite).failures}


def test_verify_residuals_case_fails_with_a_wrong_mass_in_h0(monkeypatch):
    """H0 with mass 2m leaves both halves of the Schrodinger / energy pair
    of every family nonzero, and the verify case fails."""
    monkeypatch.setattr(Hamiltonian, "prefactor",
                        lambda self: QScalar.from_rational(Fraction(-1, 4) / self.mass))
    for family in PLANE_WAVES:
        w = build_plane_wave(family, 3, 2, MASS)
        assert not any(r.is_zero() for r in schrodinger_energy_residuals(w)), family
    assert _failed("schrodinger")[_RESIDUALS_CASE] == "u_lower schrodinger"


@pytest.mark.parametrize("family", PLANE_WAVES)
def test_verify_residuals_case_fails_with_the_partners_star_side(monkeypatch, family):
    """A plane wave whose exponential takes its conjugate partner's star
    side fails the residuals case, at that family."""
    variant = PLANE_WAVES[family]
    row = FAMILIES[variant]
    partner_star_side = FAMILIES[row.partner].rule[2]
    monkeypatch.setitem(FAMILIES, variant,
                        Family(row.mirror, row.rule[:2] + (partner_star_side,), row.partner))
    assert _failed("schrodinger")[_RESIDUALS_CASE].startswith(family + " ")


def test_verify_packet_case_fails_with_a_mutated_table_view_rule(monkeypatch):
    """A slot-0 scaling off by one power of q0 in table views changes the
    <X^3> pairing but not its carrier route, and the packet case fails."""
    scale_slot = TableView.scale_slot
    monkeypatch.setattr(TableView, "scale_slot", lambda self, s, slot, q_exp: scale_slot(
        self, s, slot, q_exp + (slot == 0)))
    assert _failed("schrodinger") == {
        _PACKET_CASE: "<X^3> pairing differs from the carrier route"}


def test_schrodinger_suite_builds_each_plane_wave_once(monkeypatch):
    calls, build = [], schrodinger.build_plane_wave

    def spy(family, *orders):
        calls.append(family)
        return build(family, *orders)

    monkeypatch.setattr(schrodinger, "build_plane_wave", spy)
    assert not _failed("schrodinger")
    assert sorted(calls) == sorted(PLANE_WAVES)


def test_schrodinger_suite_applies_h0_once_per_plane_wave(monkeypatch):
    """The Schrodinger and energy residuals share one H0 image of each
    plane-wave body.  Only calls on (x, p) carriers count; the centrality
    and reality cases act on one-sector polynomials."""
    bodies, apply = [], Hamiltonian.apply

    def spy(self, f, *args):
        if f.sectors == XP_SECTORS:
            bodies.append(f)
        return apply(self, f, *args)

    monkeypatch.setattr(Hamiltonian, "apply", spy)
    assert not _failed("schrodinger")
    assert len(bodies) == len(PLANE_WAVES)


def test_recurrence_and_star_power_refuse_orders_outside_their_domain():
    with pytest.raises(ValueError):
        cq_recurrence_residual(0, 0)
    with pytest.raises(ValueError):
        psq_star_power(-1)
    assert cq_recurrence_residual(1, 0).is_zero()
    assert psq_star_power(0) == psq_power(0)


def test_propagators():
    for fam, sign in (("KR", 1), ("KL", -1)):
        assert propagator_momentum(fam, 1, 6, MASS).psq_sign() == sign
    k0 = propagator_momentum("KR", 1, 0, MASS)
    assert k0.expanded()[-1] == Poly.scalar((P_SECTOR,), I)


def test_propagator_json():
    data = propagator_momentum("KL", -1, 2, MASS).to_json()
    assert data["branch"] == "advanced"
    assert len(data["series"]) == 3


def test_heine_report_and_construction():
    rows = heine_phase_report(4, 1.1, 0.3, 2.0, [(0.8, 1.1, 0.9)])
    assert {r["k"] for r in rows} == set(range(5))
    # the two forms agree trivially at k = 0 and genuinely deviate from
    # k = 1 on (the finite-sum reading of the reciprocal Pochhammer fails
    # already there); the report states the discrepancy, asserting neither
    assert all(r["abs_discrepancy"] == 0.0 for r in rows if r["k"] == 0)
    assert all(r["abs_discrepancy"] > 1e-12 for r in rows if r["k"] >= 1)
    assert phase_factor_construction_residual(3, MASS).is_zero()


# -- wave packets --------------------------------------------------------------


@pytest.fixture(scope="module")
def packet():
    lat = QLattice(1.1, -12, 12)
    return gaussian_packet(
        lat, MASS, center_j=0.3, width_j=0.9, odd_fraction=0.35, phase_order=20
    )


def test_packet_norm(packet):
    assert packet.norm_check(0.0) <= 1e-12
    assert packet.boundary_mass() < 1e-12
    assert packet.norm_check(0.2) <= 1e-10


def test_momentum_expectations(packet):
    assert abs(packet.expectation_momentum("3", 0.0).imag) <= 1e-10


def test_position_expectations(packet):
    drift = (
        packet.expectation_position("3", 0.2) - packet.expectation_position("3", 0.0)
    )
    assert abs(drift) > 1e-6  # position genuinely evolves


@pytest.mark.parametrize("index", ["0", "x", ""])
def test_expectations_refuse_a_non_spatial_index(monkeypatch, index):
    """Both expectation values take a spatial index only and refuse any
    other, naming it, before any pairing."""
    wp = gaussian_packet(QLattice(1.1, -6, 6))
    monkeypatch.setattr(WavePacket, "_pairing", lambda *a: pytest.fail("paired"))
    for method in (wp.expectation_momentum, wp.expectation_position):
        with pytest.raises(ValueError, match=f"got {index!r}"):
            method(index)


@pytest.mark.parametrize("build", [
    lambda m: Hamiltonian(m),
    lambda m: build_plane_wave("u_lower", 1, 1, m),
    lambda m: propagator_momentum("KR", 1, 2, m),
    lambda m: gaussian_packet(QLattice(1.1, -6, 6), m),
], ids=["Hamiltonian", "build_plane_wave", "propagator_momentum", "gaussian_packet"])
@pytest.mark.parametrize("mass", [Fraction(-2), Fraction(0)], ids=["-2", "0"])
def test_builders_refuse_a_mass_that_is_not_positive(build, mass):
    """One mass rule: H0 and every builder that takes a mass refuse m <= 0
    with the error it raises for its other bad inputs (a ``PacketError``,
    a ``ValueError``, for a packet)."""
    with pytest.raises(ValueError, match=f"mass must be positive, got {mass}"):
        build(mass)


def test_position_term_is_the_right_bar_action_on_the_bra(packet):
    """The position term is computed as -i s conj(Int c*(t) * (d' |> c(t)))
    (d' the mirror left label, s real).  Here it is restated as it is
    derived: i Int ((c*)(t) <|bar d_p^A) * c(t), the right-bar action applied
    to c*(t) itself.  The two are equal up to rounding and the window's
    truncation, which on this packet is negligible."""
    for t in (0.0, 0.1, 0.2):
        ct, cst = packet.coefficients_at(t)
        for a in ("+", "3", "-"):
            for position in ("upper", "lower"):
                label = DerivativeLabel(a, "plain", "right_bar", position)
                want = 1j * apply_derivative(label, cst).star_integral(ct)
                got = packet._position_term(a, t, position)
                assert abs(got - want) <= 1e-13 * abs(want), (a, position, t, got, want)


def _criterion_10_packet():
    return gaussian_packet(
        QLattice(1.1, -12, 12), MASS, center_j=0.3, width_j=0.9, odd_fraction=0.35,
        phase_order=20,
    )


def test_six_position_values_make_three_star_integrals(monkeypatch):
    """T(A, lower) and T(A-bar, upper) transport to one left label, so <X^A>
    for all three indices at both positions pairs c*(t) three times."""
    wp = _criterion_10_packet()
    calls, star_integral = [], StructuredFn.star_integral

    def spy(self, other):
        calls.append(len(other.terms))
        return star_integral(self, other)

    monkeypatch.setattr(StructuredFn, "star_integral", spy)
    for a in ("+", "3", "-"):
        for position in ("upper", "lower"):
            wp.expectation_position(a, 0.1, position)
    assert len(calls) == 3, calls


def test_position_transports_are_kept_per_index_and_position(monkeypatch):
    """The six <X> values at t = 0 and again at t = 0.1 transport each
    (index, position) once: at most six ``right_transport`` calls in all,
    and every value equals a fresh packet's, bit for bit."""
    from qeuclid import qcalculus

    wp = _criterion_10_packet()
    calls, right_transport = [], qcalculus.right_transport

    def spy(label, kind):
        calls.append(label)
        return right_transport(label, kind)

    monkeypatch.setattr(qcalculus, "right_transport", spy)
    asked = [(a, t, position) for t in (0.0, 0.1) for a in ("+", "3", "-")
             for position in ("upper", "lower")]
    got = [wp.expectation_position(*query) for query in asked]
    assert 0 < len(calls) <= 6, calls
    for query, value in zip(asked, got):
        assert value == _criterion_10_packet().expectation_position(*query), query


#: every packet value: (method, index, position), the norm first
PACKET_QUERIES = [("norm", None, None)] + [
    (method, a, position)
    for method in ("expectation_momentum", "expectation_position")
    for a in ("+", "3", "-")
    for position in ("upper", "lower")
]


def _ask(wp, query, t):
    method, a, position = query
    return wp.norm(t) if a is None else getattr(wp, method)(a, t, position)


@pytest.mark.parametrize("t", [0.0, 0.1])
def test_packet_values_do_not_depend_on_query_order(t):
    """Each norm, <P^A> and <X^A> is bit-identical whether it is asked first
    on a fresh packet or after all the others, which sum c(t)'s kept slot
    tables first.  After either order the bra c*(t) keeps no slot table
    and one row set, rows 0 to one past its own coupled degree (0 to 11 at
    t = 0.1, 0 to 1 at t = 0, where it has degree 0 only), though <P^+>
    pairs a ket one degree above the norm's."""
    top = {0.0: 1, 0.1: 11}[t]
    for query in PACKET_QUERIES:
        fresh = _criterion_10_packet()
        first = _ask(fresh, query, t)
        wp = _criterion_10_packet()
        for other in PACKET_QUERIES:
            if other != query:
                _ask(wp, other, t)
        assert _ask(wp, query, t) == first, query
        for packet in (fresh, wp):
            cst = packet.coefficients_at(t)[1]
            assert not cst._tables and cst._rows[0].shape[0] == top + 1, query


def test_normalized_packet_sums_nothing_anew_at_t0(monkeypatch):
    """``gaussian_packet`` hands the normalized packet what its norm kept:
    c(0) starts with c's unshifted ket table and c*(0) with c*'s rows, each
    times 1/sqrt(n).  No t = 0 query sums or widens either: the one table
    summed at t = 0 is c(0)'s on the outer window shifted by 4, which only
    the <X^A> labels read, and no row set is contracted."""
    wp = _criterion_10_packet()
    c0, cst0 = wp.coefficients_at(0.0)
    table, rows = c0._tables[0, (-1, 1, 0, 4)], cst0._rows
    slot_sums, sums = lattice._slot_sums, []

    def spy(f, outer, start, span, shift=0, reach=(0, 0)):
        sums.append((f is c0, shift))
        return slot_sums(f, outer, start, span, shift, reach)

    monkeypatch.setattr(lattice, "_slot_sums", spy)
    monkeypatch.setattr(lattice, "_contracted_rows", None)
    for query in PACKET_QUERIES:
        _ask(wp, query, 0.0)
    assert sums == [(True, 4)], sums
    assert c0._tables[0, (-1, 1, 0, 4)] is table and cst0._rows is rows
    assert list(c0._tables) == [(0, (-1, 1, 0, 4)), (4, (-1, -1, 0, 4))]


def test_normalized_packet_is_the_packet_of_its_coefficients():
    """A normalized packet's values equal those of a packet built afresh
    from its coefficients s c: within 1e-15 relative at t = 0, where it
    pairs the tables and rows its norm kept, times s, and bit for bit at
    t = 0.1, where both build c(t) and c*(t) from s c."""
    wp = _criterion_10_packet()
    fresh = WavePacket(StructuredFn(wp.c.lattice, "p", wp.c.terms), MASS, wp.phase_order,
                       wp.support_j)
    for t in (0.0, 0.1):
        for query in PACKET_QUERIES:
            got, want = _ask(wp, query, t), _ask(fresh, query, t)
            if t:
                assert got == want, (t, query, got, want)
            else:
                assert abs(got - want) <= 1e-15 * abs(want), (t, query, got, want)


#: the benchmark's packet pool: packets on lattices of base 1.1, each with
#: reference values recorded by name (``name`` or ``name:index``)
PACKET_POOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "data", "packet_pool.json")


def _pool_value(wp, t: float, key: str) -> list:
    """The value a pool reference records under ``key``: c(t)'s term count
    (build), the integral of c*(t) * c(t), the norm check at t or 0, or
    <P^A> (p_...) or <X^A> (x_...) at t (_t) or 0 (_0), at the lower index
    if the name ends in _lower and else at the upper one."""
    name, _, a = key.partition(":")
    ct, cst = wp.coefficients_at(t)
    if name == "build":
        return [float(len(ct.terms))]
    if name in ("norm_t", "norm_0"):
        return [wp.norm_check(t if name == "norm_t" else 0.0)]
    if name == "star_integral":
        v = cst.star_integral(ct)
    else:
        what, when, *lower = name.split("_")
        ask = wp.expectation_momentum if what == "p" else wp.expectation_position
        v = ask(a, t if when == "t" else 0.0, position="lower" if lower else "upper")
    return [v.real, v.imag]


def test_packet_pool_references_hold():
    """Every reference of the benchmark's packet pool, 25 for each of its
    24 packets (the lower-index <P^A> at t = 0, which no benchmark op
    reads, among them), is met through the public API within the pool's
    1e-10, relative past magnitude 1."""
    with open(PACKET_POOL) as fh:
        packets = json.load(fh)["packets"]
    checked = 0
    for i, spec in enumerate(packets):
        wp = gaussian_packet(QLattice(1.1, -spec["half_width"], spec["half_width"]),
                             Fraction(spec["mass"]), center_j=spec["center_j"],
                             width_j=spec["width_j"], odd_fraction=spec["odd_fraction"],
                             phase_order=spec["phase_order"])
        for key, ref in spec["ref"].items():
            got = _pool_value(wp, spec["t"], key)
            assert len(got) == len(ref) and all(
                abs(g - r) <= 1e-10 * max(1.0, abs(r)) for g, r in zip(got, ref)), (i, key, got, ref)
            checked += 1
    assert checked == 600


@pytest.mark.parametrize("half_width", [6, 12])
def test_table_routed_pairings_match_the_carrier_route(half_width):
    """Every pairing of a criterion-10 packet at t = 0, 0.05 and 0.1 (the
    norm, p^A * c(t) at every index and position, and the left label d' of
    every <X^A> term) pairs a table view of c(t).  Each agrees within 1e-13
    relative with c*(t) paired against the ket built as a carrier: the
    coordinate's star product, or ``apply_derivative`` on c(t)."""
    wp = gaussian_packet(QLattice(1.1, -half_width, half_width), MASS, center_j=0.3,
                         width_j=0.9, odd_fraction=0.35, phase_order=20)
    ops = [None] + [(a, position) for a in ("+", "3", "-") for position in ("upper", "lower")]
    ops += [right_transport(DerivativeLabel(a, "plain", "right_bar", position), "p")[0]
            for a in ("+", "3", "-") for position in ("upper", "lower")]
    for t in (0.0, 0.05, 0.1):
        got = [wp._pairing(t, op) for op in ops]
        ct, cst = wp.coefficients_at(t)
        for op, value in zip(ops, got):
            if op is None:
                ket = ct
            elif isinstance(op, tuple):
                ket = StructuredFn.from_poly(ct.lattice, coord("p", *op)).star(ct)
            else:
                ket = apply_derivative(op, ct)
            want = cst.star_integral(ket)
            assert abs(value - want) <= 1e-13 * abs(want), (t, op, value, want)


def test_empty_ket_pairs_to_zero_without_a_table(monkeypatch):
    """d'+ lowers the degree of the envelope-free first slot, on which c(0)
    has degree 0 only: the ket is empty as a carrier and as a table view, and
    its pairing is 0 without summing any table."""
    wp = _criterion_10_packet()
    c0, cst0 = wp.coefficients_at(0.0)
    label = DerivativeLabel("+", "plain", "left", "lower")
    assert apply_derivative(label, c0).is_zero()
    ket = apply_derivative(label, TableView(c0))
    assert ket.is_zero()
    monkeypatch.setattr(lattice, "_slot_sums", None)
    assert cst0.star_integral(ket) == 0


def test_zero_view_has_a_table_with_no_degree_rows():
    """The <X^+, upper> label's view of the one-term c(0) is zero: it has no
    degrees, its table has no degree rows, and it pairs to 0j."""
    c0, cst0 = _criterion_10_packet().coefficients_at(0.0)
    view = apply_derivative(_position_labels()[0], TableView(c0))
    assert view.is_zero() and view._degrees(2).size == 0
    assert view._slot_table(3).shape[:2] == (0, 4)
    assert cst0.star_integral(view) == 0j


def test_view_drops_only_reads_that_never_pair():
    """A read whose factor is zero at every degree of the source stays zero
    under every operation, so a view drops it: the <X^+, upper> label's view
    of the one-term c(0) holds no key.  A read only shifted past the
    source's degrees stays, since a later x can shift it back."""
    c0 = _criterion_10_packet().coefficients_at(0.0)[0]
    assert apply_derivative(_position_labels()[0], TableView(c0)).terms == {}
    shifted = TableView(c0).mul_slot_var(0, 0, -1)
    assert shifted.is_zero() and len(shifted.terms) == 1
    assert not shifted.mul_slot_var(0, 0, 1).is_zero()


def _position_labels():
    """The three left labels d' that the six <X^A> values pair, in first-seen
    order: those of <X^+, upper>, <X^+, lower> (shared with <X^-, upper>)
    and <X^3>."""
    return list(dict.fromkeys(
        right_transport(DerivativeLabel(a, "plain", "right_bar", position), "p")[0]
        for a in ("+", "3", "-") for position in ("upper", "lower")))


def _p2_chain(c, label):
    """The table views (p^2)^m * u of c for m = 0, 1, ..., u = [p^2, d'] c,
    each p^2 step one ``left_star`` by the two-term psq."""
    p2 = StructuredFn.from_poly(c.lattice, psq())
    view = TableView(c)
    u = (apply_derivative(label, view).left_star(p2)
         + apply_derivative(label, view.left_star(p2)).scale_q(QScalar.from_rational(-1)))
    while True:
        yield u
        u = u.left_star(p2)


class _Unmerged(tuple):
    """A read key equal only to itself: views built with it merge no reads."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other


def test_p2_chain_reads_grow_linearly(monkeypatch):
    """A view merges reads of one key, so after m p^2 steps on u = [p^2, d']
    c(0) each <X> label's view has at most 4m + 9 reads for m <= 20 (it
    has m + 1, 4m + 9 and 2m + 3; unmerged, the reads triple per step).  At
    t = 0.1 only the mirror label of <X^+, lower> and <X^-, upper> reads a
    key twice: d' c(t) is 6 reads in 5 keys there, so no other packet value
    changes by merging."""
    wp = _criterion_10_packet()
    c0, ct = (wp.coefficients_at(t)[0] for t in (0.0, 0.1))
    for label in _position_labels():
        for m, view in zip(range(21), _p2_chain(c0, label)):
            assert len(view.terms) <= 4 * m + 9, (label, m, len(view.terms))
    keys = {label.index: len(apply_derivative(label, TableView(ct)).terms)
            for label in _position_labels()}
    monkeypatch.setattr(lattice, "_merged", lambda reads: {_Unmerged(key): read
                                                           for key, read in reads})
    reads = {label.index: len(apply_derivative(label, TableView(ct)).terms)
             for label in _position_labels()}
    assert {a: (reads[a], keys[a]) for a in keys} == {"+": (1, 1), "-": (6, 5), "3": (2, 2)}


def test_p2_chain_overflow_is_the_not_finite_error():
    """A chain keeps no scale apart from its reads' factors: for the mirror
    label on the criterion-10 packet, R_m = Int c*(0) * (p^2)^m * u is
    finite up to m = 78, and at m = 79, past the float range, star_integral
    raises its "not finite" error, with no numpy warning before it."""
    c0, cst0 = _criterion_10_packet().coefficients_at(0.0)
    label = _position_labels()[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chain = _p2_chain(c0, label)
        for m, view in zip(range(79), chain):
            assert len(view.terms) <= 4 * m + 9, m  # merged, or the chain outgrows memory
            assert cmath.isfinite(cst0.star_integral(view)), m
        with pytest.raises(FloatingPointError, match="not finite"):
            cst0.star_integral(next(chain))


def test_p2_chain_of_views_matches_the_carrier_route():
    """For m <= 4 and every <X> label, Int c*(0) * (p^2)^m * (d' c(0))
    through table views equals the carrier route, psq star-multiplied m
    times onto d' c(0), within 1e-13 of the larger magnitude.  The label of
    <X^+, upper> lowers c(0)'s only slot-0 degree, so it pairs to 0."""
    c0, cst0 = _criterion_10_packet().coefficients_at(0.0)
    p2 = StructuredFn.from_poly(c0.lattice, psq())
    for label in _position_labels():
        view, carrier = apply_derivative(label, TableView(c0)), apply_derivative(label, c0)
        for m in range(5):
            got, want = cst0.star_integral(view), cst0.star_integral(carrier)
            assert abs(got - want) <= 1e-13 * max(abs(got), abs(want)), (label, m, got, want)
            assert (got == 0) == (label.index == "+"), (label, m, got)
            view, carrier = view.left_star(p2), p2.star(carrier)


@pytest.mark.parametrize("t", [0.1, 0.2])
def test_conjugate_family_is_evolved_by_the_conjugate_phase(packet, t):
    """c*(t) = conj(phase(-) * c) is c* * phase(+): conjugation is
    antimultiplicative, and phase(+), the series of exp(+i t p^2 / 2m), has
    the complex-conjugate coefficients of phase(-)."""
    minus = packet._phase(t)
    plus = StructuredFn(
        minus.lattice, "p", [STerm(m.coeff.conjugate(), m.exps, m.envs) for m in minus.terms]
    )
    ct, cst = packet.coefficients_at(t)
    want = packet.c.conjugate().star(plus)
    js = packet.c.lattice.js()
    got_values, want_values = cst.values_on(js, js, js), want.values_on(js, js, js)
    assert np.max(np.abs(got_values - want_values)) <= 1e-12 * np.max(np.abs(want_values))
    assert abs(cst.star_integral(ct) - want.star_integral(ct)) <= 1e-12


def test_position_velocity_tends_to_momentum_over_mass():
    """d<X^A>/dt / (<P^A>/m) goes to 1 (Ehrenfest) as q0 -> 1.

    The criterion-10 packet in physical units: its j-units are scaled by
    s = ln 1.1 / ln q0.  The velocity is a central difference at t = 0.05."""
    t, h = 0.05, 1e-3
    deviation = {a: [] for a in ("+", "3", "-")}
    for q0 in (1.1, 1.05, 1.03, 1.015, 1.01):
        s = math.log(1.1) / math.log(q0)
        window = round(12 * s)
        wp = gaussian_packet(
            QLattice(q0, -window, window), MASS, center_j=0.3 * s, width_j=0.9 * s,
            odd_fraction=0.35, phase_order=20,
        )
        for a, devs in deviation.items():
            velocity = (
                wp.expectation_position(a, t + h) - wp.expectation_position(a, t - h)
            ) / (2 * h)
            ratio = velocity / (wp.expectation_momentum(a, t) / float(MASS))
            devs.append(abs(ratio - 1))
    for a, devs in deviation.items():
        assert all(d1 > d2 for d1, d2 in zip(devs, devs[1:])), (a, devs)


def test_unconverged_phase_rejected(packet):
    with pytest.raises(PacketError):
        packet.coefficients_at(50.0)


def test_degenerate_packet_rejected():
    lat = QLattice(1.1, -12, 12)
    zero = StructuredFn(lat, "p", [])
    wp = WavePacket(zero, MASS)
    with pytest.raises(PacketError):
        wp.normalized()
