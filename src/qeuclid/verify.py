"""Property-suite runner: the machine-checkable identity catalogue.

Each module contributes a suite of named cases; a case either passes or
reports a failure with a reproduction hint.  Reports are deterministic for
a fixed seed and configuration (wall time is carried on the report object
but stays out of the canonical JSON form).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .qarith import (
    GRat,
    QScalar,
    I,
    ONE,
    LAMBDA,
    LAMBDA_PLUS,
    q_number,
    q_binomial,
    q_pochhammer,
)
from .starcalc import (
    Poly,
    X_SECTOR,
    P_SECTOR,
    Metric,
    coord_variable,
    coord_upper,
    coord_lower,
    star_product,
    conjugate,
    coord_poly_to_json,
    coord_poly_from_json,
    metric_contract,
    to_phase_space,
)
from . import ncalgebra
from .qcalculus import (
    apply_derivative,
    inverse_partial,
    integration_adjoint,
    d,
)
from . import qexp
from . import schrodinger as srd
from .lattice import (
    QLattice,
    AxisFn,
    StructuredFn,
    STerm,
    LatticeFn,
    log_gaussian,
    odd_log_gaussian,
)


@dataclass
class CaseResult:
    name: str
    ok: bool
    detail: str = ""
    repro: str = ""


@dataclass
class SuiteReport:
    suite: str
    seed: int
    config: dict
    cases: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def failures(self):
        return [c for c in self.cases if not c.ok]

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def to_json(self) -> dict:
        """Canonical (byte-deterministic) report form; wall time excluded."""
        return {
            "suite": self.suite,
            "seed": self.seed,
            "config": {k: str(v) for k, v in sorted(self.config.items())},
            "n_cases": len(self.cases),
            "n_failures": len(self.failures),
            "cases": [
                {
                    "name": c.name,
                    "ok": c.ok,
                    "detail": c.detail,
                    "repro": c.repro,
                }
                for c in self.cases
            ],
        }

    def render(self) -> str:
        lines = [f"suite {self.suite}: {len(self.cases)} cases, "
                 f"{len(self.failures)} failures ({self.wall_time:.2f}s)"]
        for c in self.cases:
            mark = "ok  " if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.name}" + ("" if c.ok else f": {c.detail}"))
            if not c.ok and c.repro:
                lines.append(f"         repro: {c.repro}")
        return "\n".join(lines)


def _rand_scalar(rnd) -> QScalar:
    return QScalar.monomial(
        rnd.randint(-2, 2),
        GRat(Fraction(rnd.randint(-3, 3)), Fraction(rnd.randint(-1, 1))),
    )


def rand_coord_poly(rnd, deg=3, nterm=4, with_t=True, sector="x", conv="W") -> Poly:
    sec = X_SECTOR if sector == "x" else P_SECTOR
    p = Poly.zero((sec,), conv)
    for _ in range(nterm):
        key = (rnd.randint(0, deg), rnd.randint(0, deg), rnd.randint(0, deg))
        t = rnd.randint(0, 1) if with_t else 0
        p = p + Poly.monomial((sec,), (key,), t, _rand_scalar(rnd), conv)
    return p


def _case(cases, name, fn, repro=""):
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failure with the exception text
        ok, detail = False, f"exception: {exc!r}"
    cases.append(CaseResult(name, bool(ok), "" if ok else detail, repro))


# -- qarith ------------------------------------------------------------------------


def _suite_qarith(rnd, cfg):
    cases = []

    def additivity():
        for a in range(0, 7):
            for b in range(0, 7):
                lhs = q_number(a + b)
                rhs = q_number(a) + q_number(b).shift(a)
                if lhs != rhs:
                    return False, f"a={a} b={b}"
        return True, ""

    _case(cases, "q-number additivity [[a+b]] = [[a]] + q^a [[b]]", additivity)

    def pascal():
        for n in range(1, 11):
            for k in range(0, n + 1):
                lhs = q_binomial(n, k, cfg["base"])
                first = q_binomial(n - 1, k - 1, cfg["base"]) if k >= 1 else QScalar.zero()
                second = (
                    q_binomial(n - 1, k, cfg["base"]).shift(cfg["base"] * k)
                    if k <= n - 1
                    else QScalar.zero()
                )
                if lhs != first + second:
                    return False, f"n={n} k={k}"
        return True, ""

    _case(cases, "Pascal-type identity for q-binomials (n <= 10)", pascal,
          "verify --suite qarith")

    def involution():
        for trial in range(30):
            s = _rand_scalar(rnd) + _rand_scalar(rnd) / (ONE + QScalar.q(2))
            if s.subs_q_inverse().subs_q_inverse() != s:
                return False, f"trial={trial}"
        return True, ""

    _case(cases, "q -> 1/q is an involution", involution)

    def hom():
        q0 = cfg["q0"]
        for trial in range(40):
            a = sum((_rand_scalar(rnd) for _ in range(4)), QScalar.zero())
            b = sum((_rand_scalar(rnd) for _ in range(4)), QScalar.zero())
            lhs = (a * b).eval(q0)
            rhs = a.eval(q0) * b.eval(q0)
            if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)):
                return False, f"trial={trial}"
            lhs = (a + b).eval(q0)
            rhs = a.eval(q0) + b.eval(q0)
            if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)):
                return False, f"trial={trial}"
        return True, ""

    _case(cases, "numeric evaluation is a ring homomorphism (1e-12)", hom)

    def poch():
        z = QScalar.q(1)
        want = ONE - z - z.shift(1) + (z * z).shift(1)
        return (q_pochhammer(z, 2) == want, "expansion mismatch")

    _case(cases, "q-Pochhammer (z;q)_2 expansion", poch)
    return cases


# -- ncalgebra ----------------------------------------------------------------------


def _suite_ncalgebra(rnd, cfg):
    cases = []

    def confluence():
        for trial in range(cfg["pairs"]):
            f = rand_coord_poly(rnd, deg=3, nterm=3)
            g = rand_coord_poly(rnd, deg=3, nterm=3)
            prod = ncalgebra.nc_multiply(ncalgebra.weyl_map(f), ncalgebra.weyl_map(g))
            left = ncalgebra.normal_order(prod, "W", "leftmost")
            right = ncalgebra.normal_order(prod, "W", "rightmost")
            if left != right:
                return False, f"trial={trial}"
        return True, ""

    _case(cases, "confluence: reduction strategy independence", confluence,
          "verify --suite ncalgebra")

    def degree_preserved():
        for trial in range(60):
            f = rand_coord_poly(rnd, deg=3, nterm=2)
            g = rand_coord_poly(rnd, deg=3, nterm=2)
            prod = ncalgebra.nc_multiply(ncalgebra.weyl_map(f), ncalgebra.weyl_map(g))
            before = prod.total_degrees()
            after = ncalgebra.normal_order(prod).total_degrees()
            if not after <= before:
                return False, f"trial={trial}"
        return True, ""

    _case(cases, "normal ordering preserves total degree", degree_preserved)

    def roundtrip():
        for trial in range(100):
            f = rand_coord_poly(rnd, deg=5, nterm=4)
            F = ncalgebra.weyl_map(f)
            back = ncalgebra.weyl_unmap(F, f.sectors[0], "W")
            if back != f:
                return False, f"trial={trial}"
        return True, ""

    _case(cases, "weyl_unmap o weyl_map = id (100 random)", roundtrip)

    def homomorphism():
        for trial in range(cfg["pairs"]):
            f = rand_coord_poly(rnd, deg=4, nterm=3)
            g = rand_coord_poly(rnd, deg=4, nterm=3)
            if ncalgebra.star_via_weyl(f, g) != star_product(f, g):
                return False, f"trial={trial}"
        return True, ""

    _case(cases, "Weyl homomorphism: oracle route equals star product", homomorphism)
    return cases


# -- starcalc -----------------------------------------------------------------------


def _suite_starcalc(rnd, cfg):
    cases = []
    xp, x3, xm = (coord_variable(v) for v in ("x+", "x3", "x-"))

    def relations():
        r1 = star_product(x3, xp) - star_product(xp, x3).scale(QScalar.q(2))
        r2 = star_product(x3, xm) - star_product(xm, x3).scale(QScalar.q(-2))
        r3 = (
            star_product(xm, xp)
            - star_product(xp, xm)
            - x3.mul_pointwise(x3).scale(LAMBDA)
        )
        ok = r1.is_zero() and r2.is_zero() and r3.is_zero()
        return ok, "defining relations broken"

    _case(cases, "defining coordinate relations", relations,
          "verify --suite starcalc")

    def assoc():
        for trial in range(cfg["triples"]):
            a = rand_coord_poly(rnd, deg=3, nterm=3)
            b = rand_coord_poly(rnd, deg=3, nterm=3)
            c = rand_coord_poly(rnd, deg=3, nterm=3)
            if star_product(star_product(a, b), c) != star_product(a, star_product(b, c)):
                return False, f"trial={trial}"
        return True, ""

    _case(cases, "star associativity (random triples)", assoc)

    def antimult():
        for trial in range(cfg["pairs"]):
            f = rand_coord_poly(rnd)
            g = rand_coord_poly(rnd)
            if conjugate(star_product(f, g)) != star_product(conjugate(g), conjugate(f)):
                return False, f"trial={trial}"
        return True, ""

    _case(cases, "conjugation anti-multiplicativity", antimult)

    def classical():
        q0 = 1.0
        vals = ((0.37 + 0.11j, -0.64, 1.21),)
        for trial in range(20):
            f = rand_coord_poly(rnd)
            g = rand_coord_poly(rnd)
            lhs = star_product(f, g).eval_classical(q0, vals, 0.53)
            rhs = f.mul_pointwise(g).eval_classical(q0, vals, 0.53)
            if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs)):
                return False, f"trial={trial}"
        return True, ""

    _case(cases, "classical limit: star at q=1 is the plain product", classical)

    def central_time():
        for trial in range(10):
            f = rand_coord_poly(rnd)
            tv = coord_variable("t")
            if star_product(tv, f) != star_product(f, tv) or star_product(
                tv, f
            ) != tv.mul_pointwise(f):
                return False, f"trial={trial}"
        return True, ""

    _case(cases, "t is central", central_time)

    def metric():
        upper = {a: coord_upper("p", a) for a in Metric.indices}
        lower = {a: coord_lower("p", a) for a in Metric.indices}
        psq = metric_contract(upper, lower)
        want = Poly.monomial((P_SECTOR,), ((0, 2, 0),), 0, QScalar.q(-2)) + Poly.monomial(
            (P_SECTOR,), ((1, 0, 1),), 0, -LAMBDA_PLUS
        )
        return psq == want, "p^2 contraction mismatch"

    _case(cases, "metric contraction p^A * p_A", metric)

    def raise_lower():
        for a in Metric.indices:
            b, g = Metric.lower(a)
            b2, g2 = Metric.raise_(b)
            if b2 != a or not (g * g2).is_one():
                return False, f"index {a}"
        return True, ""

    _case(cases, "raise(lower(v)) = v", raise_lower)

    def json_roundtrip():
        for trial in range(20):
            f = rand_coord_poly(rnd)
            s1 = json.dumps(coord_poly_to_json(f), sort_keys=True)
            s2 = json.dumps(
                coord_poly_to_json(coord_poly_from_json(json.loads(s1))),
                sort_keys=True,
            )
            if s1 != s2:
                return False, f"trial={trial}"
        return True, ""

    _case(cases, "JSON round trip is byte-stable", json_roundtrip)
    return cases


# -- qcalculus ----------------------------------------------------------------------


def _suite_qcalculus(rnd, cfg):
    cases = []
    lat = QLattice(cfg["q0"], cfg["j_min"], cfg["j_max"])

    def kronecker():
        for a in ("+", "3", "-"):
            for b in ("+", "3", "-"):
                xb = coord_upper("x", b)
                r = apply_derivative(d(a), xb)
                want = Poly.one((X_SECTOR,)) if a == b else Poly.zero((X_SECTOR,))
                if r != want:
                    return False, f"{a} {b}"
        return True, ""

    _case(cases, "d_A |> x^B = delta", kronecker, "verify --suite qcalculus")

    def family_consistency():
        sigma = {"+": "-", "3": "3", "-": "+", "0": "0"}
        for trial in range(20):
            f = rand_coord_poly(rnd)
            for a in ("+", "3", "-", "0"):
                lhs = apply_derivative(
                    d(sigma[a], "hat", "left_bar"), f.subs_q_inverse_swap()
                )
                rhs = apply_derivative(d(a), f).subs_q_inverse_swap()
                if lhs != rhs:
                    return False, f"trial={trial} index={a}"
        return True, ""

    _case(cases, "hat family is the substituted plain family", family_consistency)

    def inverses():
        for trial in range(15):
            f = rand_coord_poly(rnd)
            for a in ("+", "3", "-", "0"):
                F = inverse_partial(d(a), f)
                if apply_derivative(d(a), F) != f:
                    return False, f"trial={trial} index={a}"
        return True, ""

    _case(cases, "inverse derivatives: round trips", inverses)

    def mix_env():
        # keep the support well inside the window so boundary truncation
        # stays below the asserted tolerances
        c, w = rnd.uniform(-0.6, 0.6), rnd.uniform(0.8, 1.2)
        of = rnd.uniform(-0.6, 0.6)
        base = log_gaussian(lat, c, w)
        odd = odd_log_gaussian(lat, c, w)
        return AxisFn(lambda x: base(x) + of * odd(x))

    def stokes():
        worst = 0.0
        for trial in range(4):
            f = StructuredFn(lat, "x", [STerm(1.0, (0, 0, 0), (mix_env(), mix_env(), mix_env()))])
            for a in ("+", "3", "-"):
                for variant, side in (("plain", "left"), ("hat", "left_bar")):
                    r = apply_derivative(
                        d(a, variant, side, "upper"), f
                    ).integral_all_space()
                    worst = max(worst, abs(r))
        return worst <= 1e-10, f"worst residual {worst:.2e}"

    _case(cases, "lattice Stokes theorem (both families, 1e-10)", stokes)

    def by_parts():
        worst = 0.0
        for trial in range(3):
            f = StructuredFn(lat, "x", [
                STerm(
                    complex(rnd.gauss(0, 1), rnd.gauss(0, 1)),
                    (rnd.randint(0, 2), rnd.randint(0, 2), rnd.randint(0, 2)),
                    (mix_env(), mix_env(), None),
                )
            ])
            g = StructuredFn(lat, "x", [
                STerm(
                    complex(rnd.gauss(0, 1), rnd.gauss(0, 1)),
                    (rnd.randint(0, 2), rnd.randint(0, 2), rnd.randint(0, 2)),
                    (None, mix_env(), mix_env()),
                )
            ])
            for a in ("+", "3", "-"):
                L = f.star_integral(
                    apply_derivative(d(a, "plain", "left", "upper"), g)
                )
                R = integration_adjoint(a, f, "plain", "upper").star_integral(g)
                worst = max(worst, abs(L - R) / max(1.0, abs(L)))
        return worst <= 1e-9, f"worst residual {worst:.2e}"

    _case(cases, "lattice integration by parts (plain family, 1e-9)", by_parts)

    def conj_integral():
        worst = 0.0
        for trial in range(4):
            f = StructuredFn(
                lat, "x",
                [STerm(complex(rnd.gauss(0, 1), rnd.gauss(0, 1)), (0, 0, 0),
                       (mix_env(), mix_env(), mix_env()))],
            )
            lhs = f.integral_all_space().conjugate()
            rhs = f.conjugate().integral_all_space()
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        return worst <= 1e-10, f"worst {worst:.2e}"

    _case(cases, "conjugation of integrals (1e-10)", conj_integral)

    def jackson_exact():
        f = LatticeFn.sample(
            lat, "x", lambda a, b, c: (a**2) * 1.0 / (1.0 + (b * c) ** 2)
        )
        g = f.jackson_d(0, 0, 4)
        axis = lat.axis_values()
        x0 = axis[3]
        x2, x3v = axis[1], axis[2]
        lhs = g.values[0, 3, 0, 1, 0, 2]
        q4 = lat.q0**4
        want = (q4**2 - 1.0) * x0**2 / ((q4 - 1.0) * x0) / (1.0 + (x2 * x3v) ** 2)
        return abs(lhs - want) < 1e-12 * max(1.0, abs(want)), f"{lhs} vs {want}"

    _case(cases, "dense Jackson derivative is the exact difference quotient",
          jackson_exact)
    return cases


# -- qexp ----------------------------------------------------------------------------


def _suite_qexp(rnd, cfg):
    cases = []
    N = cfg["N"]

    def eigen():
        for variant in qexp.VARIANTS:
            e = qexp.build_exponential(variant, N)
            for a in ("+", "3", "-"):
                r = qexp.below_shell(qexp.eigen_residual(e, a), N)
                if not r.is_zero():
                    return False, f"{variant} index {a}"
        return True, ""

    _case(cases, f"eigen residuals vanish below shell (all variants, N={N})",
          eigen, "verify --suite qexp")

    def normalization():
        for variant in qexp.VARIANTS:
            e = qexp.build_exponential(variant, N)
            r1, r2 = qexp.normalization_residuals(e)
            if not (r1.is_zero() and r2.is_zero()):
                return False, variant
        return True, ""

    _case(cases, "normalization at x=0 and p=0", normalization)

    def conj_table():
        lhs = qexp.build_exponential("x_ip", N).body.conjugate()
        rhs = qexp.build_exponential("ipinv_x", N).body
        return lhs == rhs, "conjugation table mismatch"

    _case(cases, "conjugation table: conj exp(x|ip) = exp(1/i p|x)", conj_table)

    def translation_routes():
        for trial in range(6):
            f = rand_coord_poly(rnd, deg=2, nterm=3, with_t=False)
            if qexp.q_translate(f, "plus").polynomial != qexp.q_translate_oracle_plus(f).polynomial:
                return False, f"trial={trial}"
        return True, ""

    _case(cases, "printed translation formula equals exponential route", translation_routes)

    def counit():
        for trial in range(6):
            f = rand_coord_poly(rnd, deg=3, nterm=3, with_t=False)
            for barred in (False, True):
                r1, r2 = qexp.counit_residuals(f, barred)
                if not (r1.is_zero() and r2.is_zero()):
                    return False, f"trial={trial} barred={barred}"
        return True, ""

    _case(cases, "counit laws", counit)

    def antipode():
        for trial in range(4):
            f = rand_coord_poly(rnd, deg=2, nterm=2, with_t=False)
            for barred in (False, True):
                r1, r2 = qexp.hopf_antipode_residuals(f, barred)
                if not (r1.is_zero() and r2.is_zero()):
                    return False, f"trial={trial} barred={barred}"
        return True, ""

    _case(cases, "antipode laws (both Hopf pairs)", antipode)

    def classical_inversion():
        xp = coord_variable("x+")
        g = qexp.q_invert(xp, "minus")
        val = g.eval_classical(1.0, ((0.4, 0.2, 0.6),))
        return abs(val + 0.4) < 1e-12, f"classical antipode value {val}"

    _case(cases, "classical limit of the inversion", classical_inversion)

    def addition():
        r = qexp.addition_theorem_residual(min(N, 3))
        return r.is_zero(), "addition theorem residual nonzero"

    _case(cases, "addition theorem below shell", addition)

    def inverse_exp():
        r = qexp.inverse_exponential_residual(min(N, 3))
        return r.is_zero(), "inverse exponential residual nonzero"

    _case(cases, "inverse exponential collapses to 1 below shell", inverse_exp)

    def momentum_eigen():
        # i d_p^A acts on each family as star multiplication by x^A
        rules = (
            ("ipinv_x", "plain", "left", "r"),
            ("x_ip", "plain", "right_bar", "l"),
            ("bar_ipinv_x", "hat", "left_bar", "r"),
            ("bar_x_ip", "hat", "right", "l"),
        )
        for variant, family, side, star_side in rules:
            body = qexp.build_exponential(variant, N).body
            for a in ("+", "3", "-"):
                acted = apply_derivative(d(a, family, side, "upper"), body, 1).scale(I)
                xa = to_phase_space(coord_upper("x", a, body.convention), "x")
                expected = body.star(xa) if star_side == "r" else xa.star(body)
                if not qexp.below_shell(acted - expected, N, sector_index=1).is_zero():
                    return False, f"{variant} index {a}"
        return True, ""

    _case(cases, f"momentum derivatives: exponentials are eigenfunctions (N={N})",
          momentum_eigen)
    return cases


# -- schrodinger ----------------------------------------------------------------------


def _suite_schrodinger(rnd, cfg):
    cases = []
    N, K = cfg["N"], cfg["K"]
    mass = cfg["mass"]
    lat = QLattice(cfg["q0"], cfg["j_min"], cfg["j_max"])

    def cq():
        for k in range(1, 13):
            for l in range(k + 1):
                if not srd.cq_recurrence_residual(k, l).is_zero():
                    return False, f"k={k} l={l}"
        return True, ""

    _case(cases, "C(k,l) closed form satisfies the recurrence (k <= 12)", cq,
          "verify --suite schrodinger")

    def psq_powers():
        for k in range(5):
            if srd.psq_power(k) != srd.psq_star_power(k):
                return False, f"k={k}"
        return True, ""

    _case(cases, "p^2k expansion equals k-fold star power (k <= 4)", psq_powers)

    def centrality():
        h = srd.Hamiltonian(mass)
        for trial in range(6):
            f = rand_coord_poly(rnd, deg=2, nterm=3)
            for a in ("+", "3", "-"):
                if not srd.hamiltonian_momentum_commutator(h, f, a).is_zero():
                    return False, f"trial={trial} {a}"
        return True, ""

    _case(cases, "[H0, momentum] = 0", centrality)

    def reality():
        h = srd.Hamiltonian(mass)
        for trial in range(6):
            f = rand_coord_poly(rnd, deg=2, nterm=3)
            if h.apply(f, "left").conjugate() != h.apply(f.conjugate(), "right_bar"):
                return False, f"trial={trial}"
        return True, ""

    _case(cases, "H0 conjugation covariance", reality)

    def plane_wave_exact():
        w = srd.build_plane_wave("u_lower", N, K, mass)
        return w.body == srd.plane_wave_printed(N, K, mass), "coefficient mismatch"

    _case(cases, f"plane wave equals the closed coefficient formula (N={N},K={K})",
          plane_wave_exact)

    def residuals():
        for fam in srd.PLANE_WAVE_FAMILIES:
            w = srd.build_plane_wave(fam, N, K, mass)
            if not srd.wave_below_shell(srd.schrodinger_residual(w), N, K, drop=1).is_zero():
                return False, f"{fam} schrodinger"
            if not srd.wave_below_shell(srd.momentum_residual(w, "3"), N).is_zero():
                return False, f"{fam} momentum"
            if not srd.wave_below_shell(srd.energy_residual(w), N, None, drop=1).is_zero():
                return False, f"{fam} energy"
        return True, ""

    _case(cases, "Schrodinger / momentum / energy residuals below shell", residuals)

    def reorder():
        for k in (1, 2):
            for n in ((1, 1, 1), (0, 2, 1)):
                if not srd.zwischen_reorder_residual(k, n).is_zero():
                    return False, f"k={k} n={n}"
        return True, ""

    _case(cases, "squared-momentum reordering rule", reorder)

    def group_law():
        r = srd.phase_group_law_residual(3, mass, Fraction(1, 3), Fraction(1, 5))
        return r.is_zero(), "group law residual nonzero"

    _case(cases, "phase factor group law", group_law)

    def propagators():
        for fam in ("KR", "KL", "KRstar", "KLstar"):
            for br in (1, -1):
                prop = srd.propagator_momentum(fam, br, 6, mass)
                res = srd.propagator_defining_residual(prop)
                if not set(res.keys()) <= {-(6 + 1)}:
                    return False, f"{fam} branch {br}"
        return True, ""

    _case(cases, "propagator defining identity below shell (order 6)", propagators)

    def heine():
        rows = srd.heine_phase_report(
            4, cfg["q0"], 0.3, float(mass), [(0.8, 1.1, 0.9)]
        )
        built = srd.phase_factor_construction_residual(3, mass)
        return (len(rows) == 5 and built.is_zero(),
                "diagnostic incomplete or pipeline depends on resummed form")

    _case(cases, "Heine diagnostic runs; pipeline uses the double sum", heine)

    def packet_suite():
        wp = srd.gaussian_packet(
            lat, mass, center_j=0.3, width_j=0.9, odd_fraction=0.35, phase_order=20
        )
        if wp.norm_check(0.0) > 1e-10:
            return False, "norm after normalization"
        t = 0.2
        if wp.norm_check(t) > 1e-10:
            return False, "norm stability under evolution"
        for a in ("+", "3", "-"):
            p0 = wp.expectation_momentum(a, 0.0)
            p1 = wp.expectation_momentum(a, t)
            if abs(p1 - p0) > 1e-10:
                return False, f"<P^{a}> time dependence {abs(p1-p0):.2e}"
            pu = wp.expectation_momentum(a, t)
            pl = wp.expectation_momentum(a, t, position="lower")
            if abs(pu.conjugate() - pl) > 1e-10:
                return False, f"<P^{a}> conjugation symmetry"
            xu = wp.expectation_position(a, t)
            xl = wp.expectation_position(a, t, position="lower")
            if abs(xu.conjugate() - xl) > 1e-10:
                return False, f"<X^{a}> conjugation symmetry"
        return True, ""

    _case(cases, "wave packet suite: norms, <P>, <X> (1e-10)", packet_suite)

    def orthogonality():
        wp1 = srd.gaussian_packet(lat, mass, center_j=-3.2, width_j=0.55)
        wp2 = srd.gaussian_packet(lat, mass, center_j=3.2, width_j=0.55)
        v = abs(wp1.inner(wp2))
        return v <= 1e-8, f"overlap {v:.2e}"

    _case(cases, "disjoint narrow packets are orthogonal (1e-8)", orthogonality)
    return cases


_SUITES = {
    "qarith": _suite_qarith,
    "ncalgebra": _suite_ncalgebra,
    "starcalc": _suite_starcalc,
    "qcalculus": _suite_qcalculus,
    "qexp": _suite_qexp,
    "schrodinger": _suite_schrodinger,
}


def run_suite(
    name: str,
    seed: int = 2024,
    q0: float = 1.1,
    N: int = 3,
    K: int = 2,
    mass: Fraction = Fraction(2),
    j_min: int = -12,
    j_max: int = 12,
    pairs: int = 40,
    triples: int = 25,
    base: int = 1,
) -> SuiteReport:
    if name not in _SUITES and name != "all":
        raise ValueError(f"unknown suite {name!r}")
    cfg = {
        "q0": q0,
        "N": N,
        "K": K,
        "mass": mass,
        "j_min": j_min,
        "j_max": j_max,
        "pairs": pairs,
        "triples": triples,
        "base": base,
    }
    rnd = random.Random(seed)
    t0 = time.time()
    report = SuiteReport(name, seed, cfg)
    names = list(_SUITES) if name == "all" else [name]
    for n in names:
        cases = _SUITES[n](rnd, cfg)
        for c in cases:
            if not c.repro:
                c.repro = f"qeuclid verify --suite {n} --seed {seed}"
        report.cases.extend(cases)
    report.wall_time = time.time() - t0
    return report
