"""Lattice star integrals against a dense Jackson sum of the star product, and
the memory of a process that evaluates many packets."""

import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import qeuclid
from qeuclid import lattice
from qeuclid.lattice import (
    AxisFn, ClassConstraintError, QLattice, STerm, StructuredFn, TableView, _dilate,
    _LogGaussian, _times, log_gaussian,
)
from qeuclid.qcalculus import DerivativeLabel, apply_derivative
from qeuclid.starcalc import coord_variable
from qeuclid.schrodinger import WavePacket, gaussian_packet, psq


def dense_integral(f) -> complex:
    """Jackson sum of f's values over the signed integration points of each
    slot, weighted by the slot's Jackson weights.  The weighted values
    cancel by up to about 1e3 on the random carriers below, so they are
    summed exactly: a float sum of them is off by up to about 1.5e-12."""
    lat = f.lattice
    js = [lat.integration_js(slot) for slot in range(3)]
    weights = [np.tile(lat.integration_weights(slot), 2) for slot in range(3)]
    summands = (f.values_on(*js) * np.einsum("i,j,k->ijk", *weights)).ravel()
    return complex(math.fsum(summands.real), math.fsum(summands.imag))


def _ordered(f, mirror):
    """f's terms as a carrier of the Wt ordering if ``mirror``, else of W."""
    return StructuredFn(f.lattice, f.sector_kind, f.terms, "Wt" if mirror else "W")


@pytest.fixture(scope="module")
def operands():
    """c(t), c*(t) of a small criterion-10-style packet at t = 0.1, and the
    right-bar derivatives of c*(t) that the position expectation integrates,
    at the upper and the lower index.  The lower one has 275 terms, negative
    degrees on both enveloped slots and many middle-slot profiles."""
    lat = QLattice(1.1, -6, 6)
    wp = gaussian_packet(
        lat, Fraction(2), center_j=0.3, width_j=0.9, odd_fraction=0.35, phase_order=20
    )
    ct, cst = wp.coefficients_at(0.1)
    return {
        "c": ct,
        "cstar": cst,
        **{
            name: apply_derivative(DerivativeLabel("+", "plain", "right_bar", position), cst)
            for name, position in (("right_bar", "upper"), ("right_bar_lower", "lower"))
        },
    }


@pytest.mark.parametrize(
    "left, right, mirror",
    [
        ("cstar", "c", False),
        ("c", "cstar", True),
        ("right_bar", "c", False),
        ("c", "right_bar", True),
        ("right_bar_lower", "c", False),
        ("c", "right_bar_lower", True),
    ],
)
def test_star_integral_is_dense_jackson_sum(operands, left, right, mirror):
    a, b = (_ordered(operands[k], mirror) for k in (left, right))
    want = dense_integral(a.star(b))
    got = a.star_integral(b)
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


def _random_envelope(rng, bases):
    """A product of 1-3 leaves: each a base dilated by q0^m, m in -3..3,
    and sign-flipped at random."""
    env = None
    for _ in range(rng.integers(1, 4)):
        leaf = _dilate(bases[rng.integers(len(bases))], int(rng.integers(-3, 4)),
                       int(rng.choice([1, -1])))
        env = _times(env, leaf)
    return env


def _random_operand(rng, lat, bases, coupled, convention):
    """1-12 terms with degrees -2..6 on the enveloped slots and 0..4 on the
    envelope-free ``coupled`` slot; a fifth of the middle envelopes are
    absent (the constant 1)."""
    terms = []
    for _ in range(rng.integers(1, 13)):
        coeff = complex(rng.normal(), rng.normal())
        exps = [int(d) for d in rng.integers(-2, 7, 3)]
        envs = [_random_envelope(rng, bases) for _ in range(3)]
        if rng.random() < 0.2:
            envs[1] = None
        exps[coupled], envs[coupled] = int(rng.integers(0, 5)), None
        terms.append(STerm(coeff, tuple(exps), tuple(envs)))
    return StructuredFn(lat, "p", terms, convention)


def _random_bases(rng, lat):
    """Two real bases, each with a sign-odd part, so that no envelope is
    sign-even or sign-odd and no integral vanishes by parity; the complex
    phases are the terms' coefficients.  Each stays an opaque callable: its
    even and odd parts have different centres and widths, which no one
    log-Gaussian leaf holds."""
    bases = []
    for mix in (0.5, -0.7):
        even = _LogGaussian(lat.q0, rng.uniform(-1, 1), rng.uniform(0.8, 1.6), 0.0)
        odd = _LogGaussian(lat.q0, rng.uniform(-1, 1), rng.uniform(0.8, 1.6), 0.0)
        bases.append(AxisFn(lambda x, even=even, odd=odd, mix=mix: even(x)
                            + mix * np.sign(x) * odd(x)))
    return bases


def test_star_integral_matches_dense_sum_on_random_carriers():
    """Seeded random carrier pairs of both orderings on windows +-3..+-8 and
    on one-exponent windows, whose slot-0 or slot-2 coset is empty.  The
    lattice is the packets' q0 = 1.1: middle-slot degrees reach 20, and at
    q0 = 1.3 such sums cancel by up to 1e16, past what the dense reference
    resolves."""
    rng = np.random.default_rng(2027)
    windows = [(-w, w) for w in range(3, 9)] + [(2, 2), (3, 3)]
    for case in range(56):
        lo, hi = windows[case % len(windows)]
        lat = QLattice(1.1, lo, hi)
        bases = _random_bases(rng, lat)
        mirror = bool(case % 2)
        convention = "Wt" if mirror else "W"
        a = _random_operand(rng, lat, bases, 0 if mirror else 2, convention)
        b = _random_operand(rng, lat, bases, 2 if mirror else 0, convention)
        want = dense_integral(a.star(b))
        got = a.star_integral(b)
        if lo == hi:
            assert want == 0 and got == 0, (case, got, want)
        else:
            assert abs(got - want) <= 1e-12 * abs(want), (case, got, want)


def test_wt_star_integral_is_the_integral_of_its_star_product(operands):
    """A Wt pair, mirrored packet operands or seeded random carriers, is
    integrated through its star product, bit for bit, and neither operand
    keeps a row set or a table."""
    pairs = [(_ordered(operands[left], True), _ordered(operands[right], True))
             for left, right in (("c", "cstar"), ("c", "right_bar"), ("c", "right_bar_lower"))]
    rng = np.random.default_rng(49)
    for lo, hi in ((-4, 4), (-6, 5), (-3, 7)):
        lat = QLattice(1.1, lo, hi)
        bases = _random_bases(rng, lat)
        pairs.append((_random_operand(rng, lat, bases, 0, "Wt"),
                      _random_operand(rng, lat, bases, 2, "Wt")))
    for a, b in pairs:
        got = a.star_integral(b)
        assert got == a.star(b).integral_all_space(), got
        for f in (a, b):
            assert f._rows is None and not f._tables


def test_star_integral_of_an_empty_operand_is_zero(operands):
    """So is the star product: the empty carrier of the operands' ordering."""
    c, acted = operands["c"], operands["right_bar_lower"]
    empty = c - c
    assert empty.is_zero()
    for a, b, mirror in ((empty, c, False), (acted, empty, False),
                         (c, empty, True), (empty, acted, True), (empty, empty, False)):
        a, b = _ordered(a, mirror), _ordered(b, mirror)
        assert a.star_integral(b) == 0j
        product = a.star(b)
        assert product.is_zero() and product.convention == a.convention


@pytest.mark.parametrize("method", ["star", "star_integral"])
def test_star_refuses_an_envelope_on_a_coupled_axis(operands, method):
    """c carries envelopes on slots 1 and 2, c* = conj(c) on slots 0 and 1.
    The W star couples the left operand's slot 2 to the right one's slot 0,
    the Wt star slot 0 to slot 2."""
    c, cst = operands["c"], operands["cstar"]
    for a, b, mirror, side in ((c, c, False, "left"), (cst, cst, False, "right"),
                               (cst, cst, True, "left"), (c, c, True, "right")):
        a, b = _ordered(a, mirror), _ordered(b, mirror)
        with pytest.raises(ClassConstraintError, match=f"^{side} star operand"):
            getattr(a, method)(b)


def test_star_integral_refuses_a_non_finite_result():
    # slot degree 200 at q0 = 1.5: a star-triple factor overflows, and inf * 0 is nan
    lat = QLattice(1.5, -12, 12)
    g = log_gaussian(lat, 0, 1)
    f = StructuredFn(lat, "x", [STerm(1, (0, 200, 3), (g, g, None))])
    h = StructuredFn(lat, "x", [STerm(1, (3, 200, 0), (None, g, g))])
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="not finite"):
        f.star_integral(h)


def test_star_integral_reports_only_its_error():
    # the reproducer above without np.errstate: a numpy RuntimeWarning, raised
    # under the "error" filter, must not come in place of the FloatingPointError
    lat = QLattice(1.5, -12, 12)
    g = log_gaussian(lat, 0, 1)
    f = StructuredFn(lat, "x", [STerm(1, (0, 200, 3), (g, g, None))])
    h = StructuredFn(lat, "x", [STerm(1, (3, 200, 0), (None, g, g))])
    with warnings.catch_warnings(), pytest.raises(FloatingPointError, match="not finite"):
        warnings.simplefilter("error")
        f.star_integral(h)


def test_carrier_refuses_an_unknown_sector_kind():
    with pytest.raises(ValueError, match="unknown sector kind 'y'"):
        StructuredFn(QLattice(1.1), "y", [])


def test_from_poly_refuses_symbolic_time():
    with pytest.raises(ValueError, match="no symbolic time"):
        StructuredFn.from_poly(QLattice(1.1), coord_variable("x+").mul_t())


def test_lattice_and_term_are_values():
    lat = QLattice(1.1)
    assert (lat.j_min, lat.j_max) == (-20, 20)
    assert lat == QLattice(1.1, -20, 20) and hash(lat) == hash(QLattice(1.1, -20, 20))
    assert lat != QLattice(1.1, -20, 19) and lat != QLattice(1.2)
    env = log_gaussian(lat, 0.5, 1.0)
    t = STerm(0.5j, (1, 0, 2), (env, None, env))
    same = STerm(0.5j, tuple([1, 0, 2]), tuple([env, None, env]))
    assert t == same and hash(t) == hash(same)
    assert t != STerm(0.5j, (1, 0, 2), (None, None, env)) and t != STerm(1, (1, 0, 2), t.envs)
    for obj, name in ((lat, "q0"), (lat, "j_max"), (t, "coeff"), (t, "envs")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    for args, message in (((1.0,), "q0 must be > 1"), ((float("nan"),), "q0 must be > 1"),
                          ((1.1, 3, 2), "empty lattice window"),
                          ((1.1, -10000, 0), "is not a normal float")):
        with pytest.raises(ValueError, match=message):
            QLattice(*args)


def test_lattice_window_ends_are_integers():
    """A window end that is not an integer, even an integral float, is
    refused when the lattice is built; Python and numpy integers are read as
    Python integers."""
    for ends in ((-8.5, 8.5), (-8.0, 8.0), (-8, 8.0), ("-8", 8)):
        with pytest.raises(ValueError, match="window ends must be integers"):
            QLattice(1.1, *ends)
    lat = QLattice(1.1, np.int64(-8), np.int32(8))
    assert lat == QLattice(1.1, -8, 8) and type(lat.j_min) is type(lat.j_max) is int


def test_carriers_on_different_lattices_do_not_combine():
    """Packets on lattices of another base or another window refuse to be
    added, star-multiplied, paired or paired through table views, each with
    one error naming both lattices."""
    def packet(lat):
        return gaussian_packet(lat, Fraction(2), center_j=0.3, width_j=0.9, odd_fraction=0.35,
                               phase_order=20)

    wa = packet(QLattice(1.1, -8, 8))
    bra = wa.coefficients_at(0.0)[1]
    x = StructuredFn.from_poly(wa.c.lattice, coord_variable("p+", "W"))
    for lat in (QLattice(1.2, -8, 8), QLattice(1.1, -6, 6)):
        wb = packet(lat)
        y = StructuredFn.from_poly(lat, coord_variable("p+", "W"))
        for combine in (lambda: wa.c + wb.c, lambda: x.star(y), lambda: wa.inner(wb),
                        lambda: bra.star_integral(wb.c), lambda: bra.star_integral(TableView(wb.c)),
                        lambda: TableView(wb.c).left_star(x)):
            with pytest.raises(ValueError, match="^lattice mismatch: QLattice.* vs QLattice"):
                combine()


#: (center_j, width_j, odd_fraction) of three distinct leaves
LEAVES = ((0.3, 0.9, 0.35), (-0.2, 1.1, 0.0), (0.0, 0.7, 1.0))


def test_log_gaussian_leaves_are_values():
    """A log-Gaussian envelope is equal and hashed by its parameters, the
    lattice's q0 included but not its window, and differs when any one
    parameter differs."""
    lat = QLattice(1.1, -8, 8)
    env = log_gaussian(lat, *LEAVES[0])
    same = log_gaussian(QLattice(1.1, -4, 4), *LEAVES[0])
    assert env == same and hash(env) == hash(same)
    assert env != log_gaussian(QLattice(1.2, -8, 8), *LEAVES[0])
    for i in range(3):
        other = list(LEAVES[0])
        other[i] += 0.25
        assert env != log_gaussian(lat, *other), other


def test_equal_leaf_products_are_one_value():
    """A three-leaf product of dilated and sign-flipped leaves,
    built again from new leaf objects in reverse order, compares and hashes
    equal and samples bit-identically: leaves sort by their parameters'
    hash, not by object identity."""
    lat = QLattice(1.1, -8, 8)
    dilations = ((2, 1), (-1, -1), (0, -1))

    def product(order):
        env = None
        for i in order:
            env = _times(env, _dilate(log_gaussian(lat, *LEAVES[i]), *dilations[i]))
        return env

    env, rebuilt = product((0, 1, 2)), product((2, 1, 0))
    assert len(env.leaves) == 3
    assert env == rebuilt and hash(env) == hash(rebuilt)
    assert np.array_equal(env.samples(lat.q0, -5, 5), rebuilt.samples(lat.q0, -5, 5))


def test_inner_of_equal_packets_is_the_norm():
    """Two packets built separately from equal parameters hold equal, not
    identical, envelopes; their pairing is the norm, bit for bit."""
    def build():
        return gaussian_packet(QLattice(1.1, -8, 8), Fraction(2), center_j=0.3, width_j=0.9,
                               odd_fraction=0.35, phase_order=20)

    a, b = build(), build()
    assert a.c.terms[0].envs[1] is not b.c.terms[0].envs[1]
    assert a.c.terms[0].envs[1] == b.c.terms[0].envs[1]
    assert a.inner(b) == a.norm(0.0)


def test_log_gaussian_leaf_keeps_the_formula_bit_for_bit():
    """The envelope formulas as written out before the log-Gaussian became
    a value (the even part e and its mix e + f sign(x) e with a sign-odd
    part, f = -1 zeroing the positive branch), against the leaf at +-q0^j,
    through ``samples`` and ``values_on``."""
    lat = QLattice(1.1, -8, 8)
    lnq = np.log(lat.q0)

    def e(x, c, w):
        j = np.log(np.abs(x)) / lnq
        return np.exp(-((j - c) ** 2) / (2.0 * w * w))

    cases = (
        (log_gaussian(lat, 0.2, 1.0), lambda x: e(x, 0.2, 1.0)),
        (log_gaussian(lat, -0.3, 1.2, -1.0),
         lambda x: e(x, -0.3, 1.2) + -1.0 * (np.sign(x) * e(x, -0.3, 1.2))),
        (log_gaussian(lat, 0.3, 0.9, odd_fraction=0.35),
         lambda x: e(x, 0.3, 0.9) + 0.35 * (np.sign(x) * e(x, 0.3, 0.9))),
    )
    pts = lat.axis_values()
    signed = np.concatenate([pts, -pts])
    for env, want in cases:
        assert np.array_equal(env.samples(lat.q0, lat.j_min, lat.j_max),
                              np.stack([want(pts), want(-pts)]))
        f = StructuredFn.from_envelopes(lat, "x", (None, env, None))
        assert np.array_equal(f.values_on([0], lat.js(), [0])[0, :, 0], want(signed))


def test_values_on_reads_the_samples_its_integrals_sum():
    """``values_on`` is its envelope's ``samples``, bit for bit, at each of
    the 50 signed points of +-12: a log-Gaussian leaf with a sign-odd part
    dilated by q0^m, m = 1, 4, -2, and the opaque 1/(1 + x^2) dilated by
    q0^4.  A dilated point formed as q0^m x rounds twice, and the values at
    it differ from the samples at 22, 18, 14 and 16 of the points."""
    lat = QLattice(1.1, -12, 12)
    leaf = log_gaussian(lat, 0.3, 0.9, odd_fraction=0.35)
    opaque = AxisFn(lambda x: 1.0 / (1.0 + x * x))
    for env in (_dilate(leaf, 1), _dilate(leaf, 4), _dilate(leaf, -2), _dilate(opaque, 4)):
        f = StructuredFn.from_envelopes(lat, "x", (env, None, None))
        got = f.values_on(lat.js(), [0], [0])[:, 0, 0]
        assert np.array_equal(got, env.samples(lat.q0, lat.j_min, lat.j_max).ravel())


def _criterion_10_coefficients(t):
    wp = gaussian_packet(QLattice(1.1, -12, 12), Fraction(2), center_j=0.3, width_j=0.9,
                         odd_fraction=0.35, phase_order=20)
    return wp, *wp.coefficients_at(t)


def test_conjugation_keeps_the_middle_envelopes():
    """An envelope is real, so conjugation only dilates and sign-flips the
    outer ones: on the criterion-10 packet at t = 0.1, c(t) and c*(t) hold
    the same 11 distinct middle envelopes, and c*(t) * c(t) has 220 terms."""
    _, ct, cst = _criterion_10_coefficients(0.1)
    mids = {t.envs[1] for t in ct.terms}
    assert len(mids) == 11 and {t.envs[1] for t in cst.terms} == mids
    assert len(cst.star(ct).terms) == 220


def test_envelope_samples_are_float():
    """After a norm and the expectation values at t = 0.1, every base of
    c(t) and c*(t) keeps a float window, and every envelope reads float
    samples from it."""
    wp, ct, cst = _criterion_10_coefficients(0.1)
    wp.norm(0.1)
    for a in ("+", "3", "-"):
        wp.expectation_momentum(a, 0.1)
        wp.expectation_position(a, 0.1)
    envs = {env for f in (ct, cst) for t in f.terms for env in t.envs if env is not None}
    bases = {base for env in envs for base, *_ in env.leaves}
    assert bases and all(base.vals.dtype == float and base.vals.size for base in bases)
    assert all(env.samples(1.1, -12, 12).dtype == float for env in envs)


@pytest.mark.parametrize("env", [
    lambda lat: AxisFn(lambda x: np.exp(1j * x) / (1.0 + x * x)),
    lambda lat: log_gaussian(lat, 0.2, 1.0, 0.5j),
], ids=["opaque", "log_gaussian"])
@pytest.mark.parametrize("read", [
    lambda f: f.integral_all_space(),
    lambda f: f.values_on([0], [0, 3], [0]),
], ids=["samples", "values"])
def test_a_complex_base_is_refused(env, read):
    """A base returning complex values, read by an integral or by
    ``values_on``, raises the one TypeError: its phase belongs in the term's
    coefficient."""
    lat = QLattice(1.1, -6, 6)
    f = StructuredFn.from_envelopes(lat, "x", (None, env(lat), None))
    with pytest.raises(TypeError, match="^an envelope base is real: put its phase in the "
                                        "coefficient$"):
        read(f)


def test_every_envelope_read_is_log_gaussian(monkeypatch):
    """Whole-lattice sums need to know that each leaf they read is a
    Gaussian.  Behind every integral, boundary mass and star integral of
    the qcalculus and schrodinger suites and of one criterion-10 packet
    group, each envelope an integral reads is made of log-Gaussian leaves
    only: the envelopes of the moments (``_moments``), the middle rows of
    the star integral's tables (``_slot_sums``) and the boundary mass.
    (``values_on`` reads an opaque envelope in the dense Jackson case; it
    integrates nothing.)"""
    from qeuclid.verify import run_suite

    bases = []

    def spy(owner, name, envs_of):
        original = getattr(owner, name)

        def read(*args):
            bases.extend(type(base.fn) for env in envs_of(*args) if env is not None
                         for base, *_ in env.leaves)
            return original(*args)

        monkeypatch.setattr(owner, name, read)

    spy(lattice, "_moments", lambda lat, slot, envs, *_: envs)
    spy(lattice, "_slot_sums", lambda f, outer, *_: f._term_groups(outer).mid_envs)
    spy(StructuredFn, "boundary_mass", lambda f: [env for t in f.terms for env in t.envs])
    for name in ("qcalculus", "schrodinger"):
        assert run_suite(name).exit_code == 0, name
    wp = gaussian_packet(QLattice(1.1, -12, 12), Fraction(2), center_j=0.3, width_j=0.9,
                         odd_fraction=0.35, phase_order=20)
    wp.norm(0.1)
    for a in ("+", "3", "-"):
        wp.expectation_momentum(a, 0.1)
        wp.expectation_position(a, 0.1)
    wp.boundary_mass()
    assert bases and set(bases) == {lattice._LogGaussian}, set(bases)


@pytest.mark.parametrize("j_min", [-1, -2])
def test_boundary_mass_counts_a_one_shell_slot_once(j_min):
    """On j in [j_min, 0] the last slot's sub-lattice is the one shell -1,
    which is both its edges: it holds all of that slot's weight, a share of
    1, not 2."""
    lat = QLattice(1.1, j_min, 0)
    assert lat.integration_js(2).tolist() == [-1]
    assert gaussian_packet(lat).boundary_mass() == 1.0


def test_packet_samples_each_base_once_per_window():
    """The test packet's two envelope bases, wrapped in counting callables,
    are evaluated at most 8 times over a norm and three expectation values
    at t = 0.1: twice per base for the window of c(t), and at most twice
    more when a derivative's dilations widen it."""
    lat = QLattice(1.1, -6, 6)
    wp = gaussian_packet(
        lat, Fraction(2), center_j=0.3, width_j=0.9, odd_fraction=0.35, phase_order=20
    )
    calls = []

    def counted(env):
        if env is None:
            return None

        base = env.leaves[0][0].fn  # the packet's one leaf, undilated

        def fn(x):
            calls.append(np.shape(x))
            return base(x)

        return AxisFn(fn)

    c = StructuredFn(lat, "p", [STerm(t.coeff, t.exps, tuple(map(counted, t.envs)))
                                for t in wp.c.terms])
    counting = WavePacket(c, wp.mass, wp.phase_order, wp.support_j)
    assert counting.norm_check(0.1) <= 1e-10
    for index in ("+", "-"):
        assert counting.expectation_position(index, 0.1) == wp.expectation_position(index, 0.1)
    assert counting.expectation_momentum("+", 0.1) == wp.expectation_momentum("+", 0.1)
    assert 0 < len(calls) <= 8, calls


def test_packet_envelope_is_sampled_once_for_both_slots():
    """The test packet carries one envelope on both enveloped slots.  Wrapped
    in one counting callable per distinct envelope, its base is evaluated at
    most 4 times over a norm and three expectation values at t = 0.1: twice
    for the window of c(t), and at most twice more when a derivative's
    dilations widen it."""
    lat = QLattice(1.1, -6, 6)
    wp = gaussian_packet(
        lat, Fraction(2), center_j=0.3, width_j=0.9, odd_fraction=0.35, phase_order=20
    )
    calls, wrapped = [], {}

    def counted(env):
        if env is not None and env not in wrapped:
            base = env.leaves[0][0].fn  # the packet's one leaf, undilated

            def fn(x):
                calls.append(np.shape(x))
                return base(x)

            wrapped[env] = AxisFn(fn)
        return wrapped.get(env)

    c = StructuredFn(lat, "p", [STerm(t.coeff, t.exps, tuple(map(counted, t.envs)))
                                for t in wp.c.terms])
    assert len(wrapped) == 1
    counting = WavePacket(c, wp.mass, wp.phase_order, wp.support_j)
    assert counting.norm_check(0.1) <= 1e-10
    for index in ("+", "-"):
        assert counting.expectation_position(index, 0.1) == wp.expectation_position(index, 0.1)
    assert counting.expectation_momentum("+", 0.1) == wp.expectation_momentum("+", 0.1)
    assert 0 < len(calls) <= 4, calls


def test_extended_slot_table_equals_a_fresh_build():
    """Each entry of either operand's table, the bra's (outer slot 0) and
    the ket's (outer slot 2), equals its own one-column build; and a ket's
    table for columns 0..s, read from its kept tables, equals, bit for bit,
    the first s + 1 columns of the table summed at once for 0..12: no entry
    depends on the span asked or on the other columns."""
    lat = QLattice(1.1, -8, 8)
    wp = gaussian_packet(
        lat, Fraction(2), center_j=0.3, width_j=0.9, odd_fraction=0.35, phase_order=20
    )
    ct, cst = wp.coefficients_at(0.1)
    for f, outer in ((cst, 0), (ct, 2)):
        whole = lattice._slot_sums(f, outer, 0, 12)
        for v in (0, 5, 12):
            assert np.array_equal(lattice._slot_sums(f, outer, v, v)[:, 0], whole[:, v])
    whole = lattice._slot_sums(ct, 2, 0, 12)
    ket = ct._new(ct.terms)
    for span in (3, 9, 12):
        assert np.array_equal(ket._slot_table(span), whole[:, : span + 1]), span
    assert len(ket._tables) == 3, list(ket._tables)


def test_kept_table_per_extent_is_a_fresh_build(monkeypatch):
    """Each table a W ket keeps, per outer-window shift and extent (first
    column, last column, middle exponents below, above the window), is
    returned whole and equals, bit for bit, the table summed afresh over it;
    two extents on one shift are kept side by side, and asking for an
    extent again returns its kept table without summing it anew."""
    lat = QLattice(1.1, -8, 8)
    ct = gaussian_packet(lat, Fraction(2), center_j=0.3, width_j=0.9, odd_fraction=0.35,
                         phase_order=20).coefficients_at(0.1)[0]
    ket = ct._new(ct.terms)
    asked = [(0, (0, 3, 0, 0)), (0, (-2, 6, 1, 2)), (4, (-1, 2, 0, 4))]
    slot_sums, sums = lattice._slot_sums, []

    def spy(f, *args):
        sums.append(args)
        return slot_sums(f, *args)

    monkeypatch.setattr(lattice, "_slot_sums", spy)
    for shift, (first, last, below, above) in asked + asked:
        got = ket._table(shift, (first, last, below, above))
        want = slot_sums(ct, 2, first, last, shift, (below, above))
        assert np.array_equal(got, want), (shift, first, last, below, above)
    assert sums == [(2, first, last, shift, (below, above))
                    for shift, (first, last, below, above) in asked], sums
    assert list(ket._tables) == asked


def per_k_integral(first, last) -> complex:
    """Int first * last in W as the per-k contraction of both operands'
    slot tables, written out pair by pair of present coupled degrees (u of
    the first operand, v of the last)."""
    lat = first.lattice
    d_first = sorted({t.exps[2] for t in first.terms})
    d_last = sorted({t.exps[0] for t in last.terms})
    s_first = lattice._slot_sums(first, 0, 0, d_last[-1])
    s_last = lattice._slot_sums(last, 2, 0, d_first[-1])
    fall = lattice._falling(max(d_first[-1], d_last[-1]), lat.q0**4)
    lam = lat.q0 - 1.0 / lat.q0
    xs, weights = lat.integration_points(1), lat.integration_weights(1)
    total = 0j
    for k in range(min(d_first[-1], d_last[-1]) + 1):
        for u in (d for d in d_first if d >= k):
            for v in (d for d in d_last if d >= k):
                total += lam**k / fall[k, k] * fall[u, k] * fall[v, k] * np.sum(
                    weights * xs ** (2 * k) * s_first[u, v - k] * s_last[v, u - k])
    return total


@pytest.mark.parametrize("Q", [1.1**4, 1.1**-4])
def test_falling_factorials_are_the_running_products(Q):
    """Row d of the falling-factorial table is, bit for bit, the running
    product of 1, [[d]]_Q, [[d-1]]_Q, ..., [[1]]_Q taken one row at a
    time, and 0 past k = d, for every dmax up to 20."""
    for dmax in range(21):
        qn = np.concatenate([[0.0], np.cumsum(Q ** np.arange(dmax, dtype=float))])
        want = np.zeros((dmax + 1, dmax + 1))
        for d in range(dmax + 1):
            want[d, : d + 1] = np.cumprod(np.concatenate([[1.0], qn[d:0:-1]]))
        got = lattice._falling(dmax, Q)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), dmax


#: (bra, kets in the order they pair with one kept bra): the last ket
#: reaches a coupled degree past the bra's own plus one and past the kets
#: before, so that it widens the bra's row set
PAIRINGS = [
    ("cstar", ("c", "x^3 c")),
    ("right_bar_lower", ("c", "x^3 c")),
]


@pytest.mark.parametrize("bra, kets", PAIRINGS)
def test_pairing_through_kept_rows_is_a_fresh_pairing(operands, bra, kets):
    """One kept bra pairs with kets whose widest coupled degree grows: its
    one row set covers rows 0 to the larger of the widest ket degree so far
    and one past the bra's own, the last ket widens it, and the bra keeps
    no table.  Each pairing equals, bit for bit, the pairing of a fresh copy
    of the bra, and within 1e-14 relative the per-k contraction written out
    above; the rows kept after all the kets equal, bit for bit, the rows a
    fresh bra builds against the widest ket alone."""
    ops = dict(operands, **{"x^3 c": operands["c"].mul_slot_var(0, 0, 3)})

    def fresh(name):
        return ops[name]._new(ops[name].terms)

    kept, tops, widest = fresh(bra), [], 0
    own = kept._degrees(0)[-1]
    for name in kets:
        ket = fresh(name)
        got = kept.star_integral(ket)
        assert kept._rows is not None and not kept._tables
        widest = max(widest, ket._degrees(2)[-1])
        tops.append(kept._rows[0].shape[0] - 1)
        assert tops[-1] == max(widest, own + 1), (name, tops)
        assert got == fresh(bra).star_integral(fresh(name)), name
        want = per_k_integral(fresh(bra), fresh(name))
        assert abs(got - want) <= 1e-14 * abs(want), (name, got, want)
    assert tops[-1] > tops[-2], tops
    alone = fresh(bra)
    alone.star_integral(fresh(kets[-1]))
    (rows, read), (kept_rows, kept_read) = alone._rows, kept._rows
    assert rows.shape == kept_rows.shape
    assert np.array_equal(kept_read, read) and np.array_equal(kept_rows, rows)


def test_pairing_reads_no_entry_that_no_degree_pair_needs(monkeypatch):
    """A bra with coupled degrees {0, 3} against a ket of degree 1 reads the
    ket's table at columns u = d - k for d in {0, 3} and k <= min(d, 1):
    0, 2 and 3.  With nan put, as the tables are summed, at every entry no
    present degree pair reads (into the ket's table at its column 1 and its
    absent degree 0, and into the bra's table at its absent degrees 1 and
    2), the pairing is still the one of fresh carriers, bit for bit, and
    reads those very tables: the ket sums its table once and keeps it, and
    the bra sums its table once, for its rows 0 to 4 (one past its own
    degree), and keeps the rows only."""
    lat = QLattice(1.1, -6, 6)
    g = log_gaussian(lat, 0.3, 0.9, odd_fraction=0.35)
    h, mix = log_gaussian(lat, -0.2, 1.1), 0.6 - 0.8j  # h's complex mix is in the coefficients
    bra_terms = [STerm(mix, (1, 2, 0), (h, g, None)), STerm(0.5j * mix, (0, 1, 3), (g, h, None))]
    ket_terms = [STerm(0.7 * mix, (1, 0, 1), (None, h, g))]

    def pair():
        return StructuredFn(lat, "x", bra_terms), StructuredFn(lat, "x", ket_terms)

    want = per_k_integral(*pair())
    bra, ket = pair()
    fresh = bra.star_integral(ket)
    assert abs(fresh - want) <= 1e-14 * abs(want), (fresh, want)
    bra, ket = pair()
    slot_sums, bra_sums, ket_sums = lattice._slot_sums, [], []

    def poison(f, *args, **kwargs):
        out = slot_sums(f, *args, **kwargs)
        if f is bra:
            bra_sums.append(args)
            out[1:3] = np.nan
        else:  # the ket's column 1 at degree 1, and its absent degree 0
            ket_sums.append(args)
            out[1, 1 - args[1]] = out[0] = np.nan
        return out

    monkeypatch.setattr(lattice, "_slot_sums", poison)
    assert bra.star_integral(ket) == fresh
    assert bra_sums == [(0, 0, 4)], bra_sums
    assert [args[:2] for args in ket_sums] == [(2, -1)], ket_sums
    assert list(ket._tables) == [(0, (-1, 4, 0, 4))]
    assert not bra._tables and bra._rows[0].shape[0] == 5


def per_k_rows(f, top):
    """:func:`lattice._contracted_rows` written out term by term: for k
    ascending, each row e >= k and each present coupled degree d >= k adds
    its term at (e, d - k) and marks that entry read."""
    lat, degrees = f.lattice, f._degrees(0)
    table = lattice._slot_sums(f, 0, 0, top)
    fall = lattice._falling(max(degrees[-1], top), lat.q0**4)
    lam = lat.q0 - 1.0 / lat.q0
    xs, weights = lat.integration_points(1), lat.integration_weights(1)
    rows = np.zeros((top + 1, degrees[-1] + 1, 2, xs.size), dtype=complex)
    read = np.zeros((top + 1, degrees[-1] + 1), dtype=bool)
    for k in range(min(top, degrees[-1]) + 1):
        for e in range(k, top + 1):
            for d in degrees[degrees >= k]:
                coef = lam**k / fall[k, k] * fall[d, k] * fall[e, k]
                rows[e, d - k] += coef * table[d, e - k] * (weights * xs ** (2 * k))
                read[e, d - k] = True
    return rows, read


def test_contracted_rows_are_the_per_k_terms_summed_in_order():
    """On seeded random bras, whose coupled degrees 0..4 leave some absent,
    the contracted rows and their read mask equal, bit for bit, the
    term-by-term sum above, k ascending, for rows 0 to one past the bra's
    own degree and to three past it."""
    rng, gaps = np.random.default_rng(39), 0
    for case in range(12):
        lat = QLattice(1.1, -4 - case % 3, 5)
        f = _random_operand(rng, lat, _random_bases(rng, lat), 2, "W")
        own = f._degrees(0)[-1]
        gaps += len(f._degrees(0)) < own + 1
        for top in (own + 1, own + 3):
            rows, read = lattice._contracted_rows(f, top)
            want_rows, want_read = per_k_rows(f, top)
            assert rows.shape == want_rows.shape and np.array_equal(read, want_read), case
            assert np.array_equal(rows, want_rows), (case, top)
    assert gaps, "no bra with an absent coupled degree"


def test_packet_group_builds_each_table_and_row_once():
    """On one criterion-10 packet, the norm, the three <P^A> and the six
    <X^A> at both positions, at t = 0 and t = 0.1, sum the bra c*(0.1)'s
    table once, in the norm, over the columns 0 to 11, one past c*(0.1)'s
    own coupled degree, on the middle slot's own window, and contract its
    rows 0 to 11 in the same call: p^+ * c(t), whose first-slot degree is
    one higher than c(t)'s, finds its row kept, and no later pairing sums
    or contracts any.  The bra keeps the rows only, no table.  c(0.1) sums
    one table per outer window shift, once: unshifted over columns -1 to
    12, shifted by 4 over columns -1 to 9, each 4 middle exponents past the
    window.  At t = 0 the packet pairs what ``gaussian_packet``'s norm
    kept (rows 0 to 1 of c*(0), c(0)'s unshifted table over columns -1 to
    1), scaled to the normalized packet, and sums only c(0)'s table on the
    shifted window (columns -1 to -1).  Every other ket (six p^A * c(t) and
    three d' |> c(t) per t) is a table view of c(t), so no other carrier is
    summed; at t = 0 one d' |> c(0) is empty and pairs to 0 without a
    table.  The counts are pinned: a pairing that summed a kept table anew,
    rebuilt the rows, or built a ket carrier's table would raise them.  An
    integral read from kept tables and rows equals the one of freshly built
    carriers, bit for bit."""
    wp = gaussian_packet(QLattice(1.1, -12, 12), Fraction(2), center_j=0.3, width_j=0.9,
                         odd_fraction=0.35, phase_order=20)
    slot_sums, contracted_rows = lattice._slot_sums, lattice._contracted_rows
    tables, rows, now, norm = [], [], [], []

    def sums_spy(f, outer, start, span, shift=0, reach=(0, 0)):
        tables.append((now[-1], f, start, span, shift, reach))
        return slot_sums(f, outer, start, span, shift, reach)

    def rows_spy(f, top):
        rows.append((now[-1], norm[-1], f, top))
        return contracted_rows(f, top)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_slot_sums", sums_spy)
        mp.setattr(lattice, "_contracted_rows", rows_spy)
        for t in (0.0, 0.1):
            now.append(t)
            norm.append(True)
            wp.norm(t)
            norm.append(False)
            for a in ("+", "3", "-"):
                for position in ("upper", "lower"):
                    wp.expectation_momentum(a, t, position)
                    wp.expectation_position(a, t, position)
    kets, bras = ({t: wp.coefficients_at(t)[i] for t in now} for i in (0, 1))
    spans = {t: [(start, span, shift, reach) for s, f, start, span, shift, reach in tables
                 if s == t and f is bras[t]] for t in now}
    assert spans == {0.0: [], 0.1: [(0, 11, 0, (0, 0))]}, spans
    views = {t: [(start, span, shift, reach) for s, f, start, span, shift, reach in tables
                 if s == t and f is kets[t]] for t in now}
    assert views == {0.0: [(-1, -1, 4, (0, 4))],
                     0.1: [(-1, 11, 0, (0, 4)), (-1, 9, 4, (0, 4))]}, views
    assert len(tables) == 4, tables
    assert [(t, in_norm, f is bras[t], top) for t, in_norm, f, top in rows] == [
        (0.1, True, True, 11)], rows
    assert [(key, table.shape[1]) for key, table in kets[0.0]._tables.items()] == [
        ((0, (-1, 1, 0, 4)), 3), ((4, (-1, -1, 0, 4)), 1)]
    for t in now:
        assert not bras[t]._tables and bras[t]._rows[0].shape[0] == (2 if t == 0.0 else 12)
    ct, cst = kets[0.1], bras[0.1]
    kept = cst.star_integral(ct)
    fresh = cst._new(cst.terms).star_integral(ct._new(ct.terms))
    assert kept == fresh, (kept, fresh)


def test_packet_coefficients_fold_into_one_group_per_degree():
    """c(0.1) = phase * c has 66 terms (p-)^a (p3)^(2l) (p+)^a e(q0^(2a) p3)
    e(p+), a + l <= 10: the terms of one coupled degree a share the outer
    degree a and the outer envelope, so as the ket (outer slot 2) they fold
    into 11 groups, one per degree, and so do the 66 terms of the bra
    c*(0.1) (outer slot 0).  A seeded random carrier forms one group per
    distinct (coupled degree, outer degree, outer envelope), and each
    group's terms share these three."""
    ct, cst = gaussian_packet(QLattice(1.1, -12, 12), Fraction(2), center_j=0.3, width_j=0.9,
                              odd_fraction=0.35, phase_order=20).coefficients_at(0.1)
    for f, outer in ((ct, 2), (cst, 0)):
        grp = lattice._TermGroups(f, outer)
        assert len(f.terms) == 66 and len(grp.starts) == 11
        assert np.array_equal(grp.degrees, np.arange(11))
        assert np.array_equal(grp.seg, np.arange(11))
    rng = np.random.default_rng(38)
    lat = QLattice(1.1, -5, 5)
    f = _random_operand(rng, lat, _random_bases(rng, lat), 0, "W")
    grp = lattice._TermGroups(f, 2)
    keys = [(t.exps[0], t.exps[2], t.envs[2]) for t in (f.terms[i] for i in grp.order)]
    bounds = list(grp.starts) + [len(keys)]
    runs = [set(keys[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    assert all(len(run) == 1 for run in runs)
    assert len(runs) == len(set(keys)) and len(grp.starts) > 1
    assert [d for d, _, _ in (run.pop() for run in runs)] == sorted(d for d, _, _ in set(keys))


def test_merging_a_carrier_with_itself_doubles_each_term():
    """f + f repeats each of f's terms, the same objects: each key is
    merged once, so the sum is f scaled by 2 term for term, in f's order,
    and f + (-f) cancels every term."""
    f = gaussian_packet(QLattice(1.1, -6, 6), Fraction(2), center_j=0.3, width_j=0.9,
                        odd_fraction=0.35, phase_order=20).coefficients_at(0.1)[0]
    assert len(f.terms) > 1
    assert (f + f).terms == f.scale_complex(2).terms
    assert (f + (-f)).is_zero()


#: each operand-interface call a table view answers, by slot: (name, args)
VIEW_OPS = [(name, slot, arg) for slot in range(3)
            for name, arg in (("jackson_d", 2), ("jackson_d", -4), ("scale_slot", 2),
                              ("scale_slot", -1), ("mul_slot_var", 1))]


@pytest.mark.parametrize("first, then", [(op, VIEW_OPS[(i * 7 + 3) % len(VIEW_OPS)])
                                         for i, op in enumerate(VIEW_OPS)])
def test_table_view_rewrites_the_carrier_table(first, then):
    """Two slot operations on a seeded random W carrier, polynomial on slot
    0: the table view's table (a rewrite of the carrier's kept tables) equals,
    within 1e-12 of its largest entry, the table of the carrier the same
    operations build, at each coupled degree; so does the left star product
    by each coordinate and by the two-term p^2, and the view reports the
    same degrees."""
    rng = np.random.default_rng(35)
    lat = QLattice(1.1, -5, 5)
    bases = _random_bases(rng, lat)
    f = _random_operand(rng, lat, bases, 0, "W")
    view, carrier = TableView(f), f
    for name, slot, arg in (first, then):
        view, carrier = (getattr(g, name)(0, slot, arg) for g in (view, carrier))
    kets = [(view, carrier)] + [
        (view.left_star(x), x.star(carrier))
        for x in [StructuredFn.from_poly(lat, p) for p in (
            *(coord_variable(v, "W") for v in ("p-", "p3", "p+")), psq())]]
    for view, carrier in kets:
        assert np.array_equal(view._degrees(2), carrier._degrees(2))
        got, want = view._slot_table(4), carrier._slot_table(4)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (first, then)


def test_left_star_by_a_sum_is_the_sum_of_left_stars():
    """Two p^2 steps after each slot operation on a seeded random W carrier:
    at each, the view star-multiplied by the two-term p^2 equals the sum of
    the view star-multiplied by each term, each with its own degrees: the
    same read keys and degrees and, within 1e-13 of its largest entry, the
    same table."""
    rng = np.random.default_rng(48)
    lat = QLattice(1.1, -5, 5)
    f = _random_operand(rng, lat, _random_bases(rng, lat), 0, "W")
    p2 = StructuredFn.from_poly(lat, psq())
    assert len(p2.terms) == 2
    for name, slot, arg in VIEW_OPS:
        view = getattr(TableView(f), name)(0, slot, arg)
        for _ in range(2):
            whole = view.left_star(p2)
            parts = [view.left_star(StructuredFn(lat, "p", [t])) for t in p2.terms]
            summed = parts[0] + parts[1]
            assert set(whole.terms) == set(summed.terms), (name, slot, arg)
            assert np.array_equal(whole._degrees(2), summed._degrees(2)), (name, slot, arg)
            got, want = whole._slot_table(4), summed._slot_table(4)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (name, slot, arg)
            view = whole


def test_table_view_refuses_what_it_does_not_represent():
    """A view reads one W carrier polynomial on slot 0, is multiplied from
    the left by envelope-free factors only and adds only to views of the
    same carrier."""
    lat = QLattice(1.1, -4, 4)
    env = log_gaussian(lat, 0.2, 1.0)
    w = StructuredFn(lat, "p", [STerm(1.0, (1, 0, 2), (None, env, env))])
    with pytest.raises(ValueError):
        TableView(_ordered(w, True))
    with pytest.raises(ClassConstraintError):
        TableView(StructuredFn(lat, "p", [STerm(1.0, (1, 0, 2), (env, env, None))]))
    with pytest.raises(ClassConstraintError):
        TableView(w).left_star(w)
    with pytest.raises(ValueError):
        TableView(w) + TableView(w._new(w.terms))


#: run in a fresh interpreter: ten packets with distinct centres, each with
#: one norm and one position expectation at t > 0
MEMORY_SCRIPT = """
import resource
from fractions import Fraction
from qeuclid.lattice import QLattice
from qeuclid.schrodinger import WavePacket, gaussian_packet

lat = QLattice(1.1, -12, 12)
peaks = []
for i in range(10):
    wp = gaussian_packet(lat, Fraction(2), center_j=0.1 + 0.04 * i, width_j=0.9,
                         odd_fraction=0.35, phase_order=20)
    assert wp.norm_check(0.1) <= 1e-10
    wp.expectation_position("+", 0.1)
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(peaks[0], peaks[-1])
"""


def test_memory_bounded_over_many_packets():
    src = os.path.dirname(os.path.dirname(qeuclid.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    first, last = map(int, proc.stdout.split())
    assert last <= 1.05 * first, (first, last)
