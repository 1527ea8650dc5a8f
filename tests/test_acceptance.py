"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from qeuclid.qarith import QScalar, ONE, LAMBDA, q_number
from qeuclid.starcalc import (
    Poly,
    P_SECTOR,
    X_SECTOR,
    conjugate,
    coord_variable,
    star_product,
)
from qeuclid.ncalgebra import star_via_weyl
from qeuclid.qcalculus import apply_derivative, d, integration_adjoint
from qeuclid import qexp
from qeuclid import schrodinger as srd
from qeuclid.lattice import QLattice, StructuredFn, STerm, log_gaussian
from qeuclid.verify import rand_coord_poly

MASS = Fraction(2)


def _report(num, ok, text):
    print(f"CRITERION {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_star_pbw_oracle():
    rnd = random.Random(101)
    t0 = time.time()
    ok = True
    for _ in range(200):
        f = rand_coord_poly(rnd, deg=4, nterm=4)
        g = rand_coord_poly(rnd, deg=4, nterm=4)
        if star_via_weyl(f, g) != star_product(f, g):
            ok = False
            break
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    _report(1, ok, f"star/PBW oracle equivalence, 200 pairs deg<=4, exact ({elapsed:.1f}s < 10s)")


def test_criterion_02_defining_relations():
    xp, x3, xm = (coord_variable(v) for v in ("x+", "x3", "x-"))
    r1 = star_product(x3, xp) - star_product(xp, x3).scale(QScalar.q(2))
    r2 = star_product(x3, xm) - star_product(xm, x3).scale(QScalar.q(-2))
    r3 = star_product(xm, xp) - star_product(xp, xm) - x3.mul_pointwise(x3).scale(LAMBDA)
    ok = r1.is_zero() and r2.is_zero() and r3.is_zero()
    _report(2, ok, "defining coordinate relations, exact")


def test_criterion_03_associativity_and_antimultiplicativity():
    rnd = random.Random(103)
    ok = True
    for _ in range(100):
        a = rand_coord_poly(rnd, deg=3, nterm=3)
        b = rand_coord_poly(rnd, deg=3, nterm=3)
        c = rand_coord_poly(rnd, deg=3, nterm=3)
        if star_product(star_product(a, b), c) != star_product(a, star_product(b, c)):
            ok = False
            break
        if conjugate(star_product(a, b)) != star_product(conjugate(b), conjugate(a)):
            ok = False
            break
    _report(3, ok, "star associativity and conjugation anti-multiplicativity, 100 random, exact")


def test_criterion_04_eigen_residuals_n4():
    t0 = time.time()
    ok = True
    for variant in qexp.VARIANTS:
        e = qexp.build_exponential(variant, 4)
        for a in ("+", "3", "-"):
            if not qexp.below_shell(qexp.eigen_residual(e, a), 4).is_zero():
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    _report(4, ok, f"exponential eigen residuals below shell, N=4, all indices and families, exact ({elapsed:.1f}s < 30s)")


def test_criterion_05_cq_and_psq():
    ok = all(
        srd.cq_recurrence_residual(k, l).is_zero()
        for k in range(1, 13)
        for l in range(k + 1)
    )
    ok = ok and all(srd.psq_power(k) == srd.psq_star_power(k) for k in range(5))
    _report(5, ok, "C coefficients satisfy the recurrence (k<=12) and p^2k equals star powers (k<=4), exact")


def test_criterion_06_plane_waves():
    ok = True
    for N, K in ((2, 2), (3, 3)):
        w = srd.build_plane_wave("u_lower", N, K, MASS)
        if w.body != srd.plane_wave_printed(N, K, MASS):
            ok = False
    N, K = 3, 2
    for fam in srd.PLANE_WAVE_FAMILIES:
        w = srd.build_plane_wave(fam, N, K, MASS)
        if not all(r.is_zero() for r in srd.schrodinger_energy_residuals(w)):
            ok = False
        for a in ("+", "3", "-"):
            if not srd.momentum_residual(w, a).is_zero():
                ok = False
    _report(6, ok, "plane waves match the printed coefficients (N,K<=3); Schrodinger/momentum/energy residuals vanish below shell, exact")


def test_criterion_07_propagators():
    ok = True
    for fam in ("KR", "KL", "KRstar", "KLstar"):
        for br in (1, -1):
            prop = srd.propagator_momentum(fam, br, 6, MASS)
            res = srd.propagator_defining_residual(prop)
            if not set(res.keys()) <= {-7}:
                ok = False
    _report(7, ok, "momentum propagator defining identity (E - p^2/2m) * K = +-i below shell, K<=6, exact")


def test_criterion_08_hopf_and_addition():
    rnd = random.Random(108)
    ok = True
    for _ in range(6):
        f = rand_coord_poly(rnd, deg=4, nterm=2, with_t=False)
        for barred in (False, True):
            r1, r2 = qexp.counit_residuals(f, barred)
            if not (r1.is_zero() and r2.is_zero()):
                ok = False
    for _ in range(3):
        f = rand_coord_poly(rnd, deg=3, nterm=2, with_t=False)
        for barred in (False, True):
            r1, r2 = qexp.hopf_antipode_residuals(f, barred)
            if not (r1.is_zero() and r2.is_zero()):
                ok = False
    ok = ok and qexp.addition_theorem_residual(4).is_zero()
    _report(8, ok, "Hopf axioms (counit and antipode, both pairs) exact; addition theorem exact below shell N=4")


def test_criterion_09_lattice_stokes_by_parts():
    t0 = time.time()
    worst = 0.0
    for q0 in (1.1, 1.5):
        lat = QLattice(q0, -20, 20)
        rng = np.random.default_rng(109)

        def mix():
            c, w = rng.uniform(-0.6, 0.6), rng.uniform(0.8, 1.2)
            return log_gaussian(lat, c, w, odd_fraction=rng.uniform(-0.6, 0.6))

        # Stokes, both families, Gaussian data on all axes
        envs = (mix(), mix(), mix())
        for a in ("+", "3", "-"):
            for variant, side, conv in (("plain", "left", "W"), ("hat", "left_bar", "Wt")):
                f0 = StructuredFn.from_envelopes(lat, "x", envs, convention=conv)
                r = apply_derivative(d(a, variant, side, "upper"), f0).integral_all_space()
                worst = max(worst, abs(r))
        # integration by parts, both families, Gaussian-enveloped class data
        for _ in range(2):
            f = StructuredFn(lat, "x", [
                STerm(complex(rng.normal(), rng.normal()),
                      tuple(int(v) for v in rng.integers(0, 3, 3)),
                      (mix(), mix(), None))])
            g = StructuredFn(lat, "x", [
                STerm(complex(rng.normal(), rng.normal()),
                      tuple(int(v) for v in rng.integers(0, 3, 3)),
                      (None, mix(), mix()))])
            for a in ("+", "3", "-"):
                L = f.star_integral(apply_derivative(d(a, "plain", "left", "upper"), g))
                R = integration_adjoint(a, f, "plain", "upper").star_integral(g)
                worst = max(worst, abs(L - R) / max(1.0, abs(L)))
            fh = StructuredFn(lat, "x", [
                STerm(complex(rng.normal(), rng.normal()),
                      tuple(int(v) for v in rng.integers(0, 3, 3)),
                      (None, mix(), mix()))], "Wt")
            gh = StructuredFn(lat, "x", [
                STerm(complex(rng.normal(), rng.normal()),
                      tuple(int(v) for v in rng.integers(0, 3, 3)),
                      (mix(), mix(), None))], "Wt")
            for a in ("+", "3", "-"):
                L = fh.star(apply_derivative(d(a, "hat", "left_bar", "upper"), gh)).integral_all_space()
                R = integration_adjoint(a, fh, "hat", "upper").star(gh).integral_all_space()
                worst = max(worst, abs(L - R) / max(1.0, abs(L)))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 20.0
    _report(9, ok, f"lattice Stokes and integration by parts, residual {worst:.2e} <= 1e-9 at q0 in {{1.1, 1.5}}, j in [-20, 20] ({elapsed:.1f}s < 20s)")


def test_criterion_10_expectation_suite():
    lat = QLattice(1.1, -12, 12)
    wp = srd.gaussian_packet(
        lat, MASS, center_j=0.3, width_j=0.9, odd_fraction=0.35, phase_order=20
    )
    worst = wp.norm_check(0.0)
    worst = max(worst, wp.norm_check(0.2))
    for a in ("+", "3", "-"):
        p0 = wp.expectation_momentum(a, 0.0)
        p1 = wp.expectation_momentum(a, 0.2)
        worst = max(worst, abs(p1 - p0))
        pl = wp.expectation_momentum(a, 0.2, position="lower")
        worst = max(worst, abs(p1.conjugate() - pl))
        for t in (0.0, 0.2):
            xu = wp.expectation_position(a, t)
            xl = wp.expectation_position(a, t, position="lower")
            worst = max(worst, abs(xu.conjugate() - xl))
    ok = worst <= 1e-10
    _report(10, ok, f"expectation suite: <P> time-independence, <P>/<X> conjugation symmetry, norm check; worst {worst:.2e} <= 1e-10")


def test_criterion_11_classical_limit():
    rnd = random.Random(111)
    worst = 0.0
    vals = ((0.31 + 0.12j, -0.57, 0.83),)
    vals2 = ((0.31 + 0.12j, -0.57, 0.83), (0.21, 0.49, -0.66))
    for _ in range(12):
        f = rand_coord_poly(rnd, deg=3, nterm=3, with_t=False)
        g = rand_coord_poly(rnd, deg=3, nterm=3, with_t=False)
        # star product -> commutative product
        lhs = star_product(f, g).eval_classical(1.0, vals)
        rhs = f.mul_pointwise(g).eval_classical(1.0, vals)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        # derivatives -> classical partials (checked on the monomial rule)
        for slot, a in ((0, "+"), (1, "3"), (2, "-")):
            der = apply_derivative(d(a), f)
            classical = Poly(
                (X_SECTOR,),
                {
                    ((tuple(m - 1 if i == slot else m for i, m in enumerate(tr[0])),), t):
                        coeff.scale(tr[0][slot])
                    for (tr, t), coeff in f.terms.items()
                    if tr[0][slot] > 0
                },
                "W",
            )
            diff = der.eval_classical(1.0, vals) - classical.eval_classical(1.0, vals)
            worst = max(worst, abs(diff) / max(1.0, abs(classical.eval_classical(1.0, vals))))
    # q-translation -> plain shift; q-inversion -> reflection
    for _ in range(6):
        f = rand_coord_poly(rnd, deg=2, nterm=2, with_t=False)
        T = qexp.q_translate(f, "plus").polynomial
        x, y = vals2
        shifted = tuple(a + b for a, b in zip(x, y))
        lhs = T.eval_classical(1.0, vals2)
        rhs = f.eval_classical(1.0, (shifted,))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        inv = qexp.q_invert(f, "minus")
        lhs = inv.eval_classical(1.0, vals)
        rhs = f.eval_classical(1.0, (tuple(-v for v in vals[0]),))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    # q-numbers and the squared-momentum coefficients
    for n in range(1, 9):
        worst = max(worst, abs(q_number(n, 4).eval(1.0) - n))
    from math import comb

    for k in range(5):
        for l in range(k + 1):
            classical = (-2.0) ** (k - l) * comb(k, l)
            worst = max(worst, abs(srd.cq_coefficient(k, l).eval(1.0) - classical) / max(1.0, abs(classical)))
    ok = worst <= 1e-12
    _report(11, ok, f"classical limit at q0=1: star, derivatives, translations, inversions, coefficients; worst {worst:.2e} <= 1e-12")


def test_criterion_12_heine_diagnostic():
    rows = srd.heine_phase_report(6, 1.1, 0.3, float(MASS), [(0.8, 1.1, 0.9), (1.3, 0.7, 1.1)])
    produced = {r["k"] for r in rows} == set(range(7))
    # construction assertion: the pipeline's phase factor is the double sum
    built_from_double_sum = srd.phase_factor_construction_residual(4, MASS).is_zero()
    # the report must be emittable as JSON
    serialized = json.dumps(rows, sort_keys=True)
    ok = produced and built_from_double_sum and len(serialized) > 0
    _report(12, ok, "Heine diagnostic report produced per k; pipeline provably built from the double sum only")
