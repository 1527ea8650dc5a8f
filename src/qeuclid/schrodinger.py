"""Free-particle layer: Hamiltonian, plane waves, propagators.

The free Hamiltonian is H0 = -(2m)^-1 d^A d_A.  Its eigenfunctions are the
deformed exponentials; multiplying by the time-dependent phase factor
(a star-exponential series in the central element p^2) produces the four
plane-wave families

    u_p      = exp(x|ip) * phase(-)          left / plain
    u^p      = phase(+) * exp(1/i p|x)       right-bar / plain
    (u*)_p   = phase(+) * exp*(ip|x)         right / twisted
    (u*)^p   = exp*(x|1/i p) * phase(-)      left-bar / twisted

(the formal volume normalization is treated as 1 in symbolic mode).  Powers
of p^2 expand over normal-ordered momentum monomials with the coefficient
family C(k, l) = q^{-2l} (-lam_+)^{k-l} [k choose l]_{q^4}, which satisfies
the recurrence C(k, l) = -lam_+ q^{4l} C(k-1, l) + q^-2 C(k-1, l-1).

Momentum-space propagators are carried as formal Laurent series in the
single opaque symbol (E +- i eps); the defining identity
(E - p^2/2m) * K = +-i holds below the truncation shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .qarith import (
    GRat,
    QScalar,
    ZERO,
    ONE,
    I,
    I_INV,
    LAMBDA_PLUS,
    q_binomial,
    q_factorial,
)
from .starcalc import (
    Poly,
    P_SECTOR,
    X_SECTOR,
    _add_term,
    coord_lower,
    coord_upper,
    Metric,
    metric_contract,
)
from .qcalculus import DerivativeLabel, _conj_retag, apply_derivative, d
from .qexp import build_exponential

PLANE_WAVE_FAMILIES = ("u_lower", "u_upper", "ustar_lower", "ustar_upper")


# -- Hamiltonian -----------------------------------------------------------------


@dataclass(frozen=True)
class Hamiltonian:
    """H0 = -(2m)^-1 d^A d_A with exact rational mass."""

    mass: Fraction = Fraction(1)

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")

    def prefactor(self) -> QScalar:
        return QScalar.from_rational(Fraction(-1, 2) / self.mass)

    def apply(self, f, side: str = "left", sector_index: int = 0):
        """Act with H0 through the requested action side.

        The contraction d^A d_A = -q d- d+ + d3 d3 - 1/q d+ d- is composed
        with the inner (lower-index) derivative acting first; right actions
        go through the conjugation identities like every other operator.
        """
        if side in ("left", "left_bar"):
            variant = "plain" if side == "left" else "hat"
            scale = ONE if side == "left" else QScalar.q(-12)

            def two(first_idx, then_idx):
                inner = apply_derivative(
                    d(then_idx, variant, side), f, sector_index
                )
                return apply_derivative(
                    d(first_idx, variant, side), inner, sector_index
                )

            out = (
                -two("-", "+").scale(QScalar.q(1))
                + two("3", "3")
                - two("+", "-").scale(QScalar.q(-1))
            )
            return out.scale(self.prefactor() * scale)
        if side == "right_bar":
            inner = self.apply(_conj_retag(f, "W"), "left", sector_index)
            return _conj_retag(inner, "W")
        if side == "right":
            inner = self.apply(_conj_retag(f, "Wt"), "left_bar", sector_index)
            return _conj_retag(inner, "Wt")
        raise ValueError(f"unknown action side {side!r}")


def hamiltonian_momentum_commutator(h: Hamiltonian, f: Poly, index: str) -> Poly:
    """[H0, (1/i) d^A] f = H0 (dA f) - dA (H0 f); vanishes identically."""
    lab = DerivativeLabel(index, "plain", "left", "upper")
    first = h.apply(apply_derivative(lab, f), "left")
    second = apply_derivative(lab, h.apply(f, "left"))
    return (first - second).scale(I_INV)


# -- squared-momentum expansion ----------------------------------------------------


def cq_coefficient(k: int, l: int) -> QScalar:
    """C(k, l) = q^{-2l} (-lam_+)^{k-l} [k choose l]_{q^4}."""
    if not 0 <= l <= k:
        raise ValueError("cq_coefficient requires 0 <= l <= k")
    return ((-LAMBDA_PLUS) ** (k - l) * q_binomial(k, l, 4)).shift(-2 * l)


def cq_value(k: int, l: int, q0: float) -> float:
    """C(k, l) evaluated at a numeric q0 (product form; no exact division).

    Used by the lattice backend where only values at the working q0 are
    needed; the exact Laurent form is cq_coefficient."""
    binom = 1.0
    for j in range(1, l + 1):
        binom *= (1.0 - q0 ** (4 * (k - l + j))) / (1.0 - q0 ** (4 * j))
    lamp = q0 + 1.0 / q0
    return q0 ** (-2.0 * l) * (-lamp) ** (k - l) * binom


def cq_recurrence_residual(k: int, l: int) -> QScalar:
    """C(k,l) + lam_+ q^{4l} C(k-1,l) - q^-2 C(k-1,l-1) (must be zero)."""
    first = cq_coefficient(k - 1, l) if l <= k - 1 else ZERO
    second = cq_coefficient(k - 1, l - 1) if 1 <= l else ZERO
    return (
        cq_coefficient(k, l)
        + (LAMBDA_PLUS * first).shift(4 * l)
        - second.shift(-2)
    )


def psq(convention: str = "W") -> Poly:
    """p^2 = p^A * p_A as a normal-ordered momentum polynomial."""
    upper = {a: coord_upper("p", a, convention) for a in Metric.indices}
    lower = {a: coord_lower("p", a, convention) for a in Metric.indices}
    return metric_contract(upper, lower)


def psq_power(k: int, convention: str = "W") -> Poly:
    """Sum_l C(k,l) (p-)^{k-l} (p3)^{2l} (p+)^{k-l}; the Wt form carries the
    substituted coefficients."""
    if k < 0:
        raise ValueError("k must be >= 0")
    terms = {}
    for l in range(k + 1):
        c = cq_coefficient(k, l)
        if convention == "Wt":
            c = c.subs_q_inverse()
        terms[(((k - l, 2 * l, k - l),), 0)] = c
    return Poly((P_SECTOR,), terms, convention)


def psq_star_power(k: int, convention: str = "W") -> Poly:
    """The k-fold star power of p^2 (the brute-force route)."""
    base = psq(convention)
    out = Poly.one((P_SECTOR,), convention)
    for _ in range(k):
        out = out.star(base)
    return out


def phase_factor(
    sign: int,
    order: int,
    mass: Fraction,
    t_value: Fraction | None = None,
    convention: str = "W",
) -> Poly:
    """Sum_{k<=order} (sign i t / 2m)^k / k! p^{2k}, a momentum polynomial
    with symbolic t powers (or with an exact rational t absorbed)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    acc = Poly.zero((P_SECTOR,), convention)
    for k in range(order + 1):
        rat = Fraction(sign) ** k / (
            Fraction(math.factorial(k)) * (2 * mass) ** k
        )
        coeff = (I**k).scale(GRat(rat))
        if t_value is not None:
            coeff = coeff.scale(GRat(t_value**k))
            term = psq_power(k, convention).scale(coeff)
        else:
            term = psq_power(k, convention).scale(coeff).mul_t(k)
        acc = acc + term
    return acc


# -- plane waves --------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneWave:
    family: str
    order_space: int
    order_time: int
    mass: Fraction
    body: Poly  # (x, p) carrier with t powers


def _lift_phase(ph: Poly) -> Poly:
    return ph.insert_sector(0, X_SECTOR)


def build_plane_wave(
    family: str, order_space: int, order_time: int, mass: Fraction
) -> PlaneWave:
    """Star product of the family's exponential with its phase factor.

    The twisted families live in the Wt ordering and use the substituted
    phase coefficients; the formal volume factor is 1.
    """
    N, K = order_space, order_time
    if family == "u_lower":
        e = build_exponential("x_ip", N).body
        ph = _lift_phase(phase_factor(-1, K, mass))
        body = e.star(ph)
    elif family == "u_upper":
        e = build_exponential("ipinv_x", N).body
        ph = _lift_phase(phase_factor(+1, K, mass))
        body = ph.star(e)
    elif family == "ustar_lower":
        e = build_exponential("star_ip_x", N).body
        ph = _lift_phase(phase_factor(+1, K, mass, convention="Wt"))
        body = ph.star(e)
    elif family == "ustar_upper":
        e = build_exponential("star_x_ipinv", N).body
        ph = _lift_phase(phase_factor(-1, K, mass, convention="Wt"))
        body = e.star(ph)
    else:
        raise ValueError(f"unknown plane-wave family {family!r}")
    return PlaneWave(family, N, K, mass, body)


def plane_wave_printed(order_space: int, order_time: int, mass: Fraction) -> Poly:
    """The closed coefficient formula for the first family, assembled
    independently of the star product (the exactness oracle):

    coefficient of (x)^n t^k (p)-monomial =
        (-lam_+)^{k-l} q^{-2l+2 n3 (k-l)} [k choose l]_{q^4} (2m)^-k
        i^{|n|+3k} / (k! [[n+]]_{q^4}! [[n3]]_{q^2}! [[n-]]_{q^4}!)
    on the momentum monomial (p-)^{n- + k-l} (p3)^{n3+2l} (p+)^{n+ + k-l}.
    """
    N, K = order_space, order_time
    terms = {}
    for total in range(N + 1):
        for np_ in range(total + 1):
            for n3 in range(total - np_ + 1):
                nm = total - np_ - n3
                base = (
                    q_factorial(np_, 4)
                    * q_factorial(n3, 2)
                    * q_factorial(nm, 4)
                )
                for k in range(K + 1):
                    for l in range(k + 1):
                        coeff = (
                            (-LAMBDA_PLUS) ** (k - l) * q_binomial(k, l, 4)
                        ).shift(-2 * l + 2 * n3 * (k - l))
                        rat = Fraction(1, math.factorial(k)) / (2 * mass) ** k
                        coeff = coeff.scale(GRat(rat)) / base
                        ipow = (np_ + n3 + nm + 3 * k) % 4
                        for _ in range(ipow):
                            coeff = coeff * I
                        key = (
                            (
                                (np_, n3, nm),
                                (nm + k - l, n3 + 2 * l, np_ + k - l),
                            ),
                            k,
                        )
                        _add_term(terms, key, coeff)
    return Poly((X_SECTOR, P_SECTOR), terms, "W")


#: per family: (time side, spatial action (variant, side), momentum star side)
_WAVE_RULES = {
    "u_lower": ("left", ("plain", "left"), "r"),
    "u_upper": ("right_bar", ("plain", "right_bar"), "l"),
    "ustar_lower": ("right", ("plain", "right"), "l"),
    "ustar_upper": ("left_bar", ("plain", "left_bar"), "r"),
}


def _p_factor(index: str | None, position: str, convention: str) -> Poly:
    if index is None:
        poly = psq(convention)
    elif position == "upper":
        poly = coord_upper("p", index, convention)
    else:
        poly = coord_lower("p", index, convention)
    return poly.insert_sector(0, X_SECTOR)


def schrodinger_residual(w: PlaneWave) -> Poly:
    """i d_t acting on the family's side minus H0 acting the same way.

    Vanishes identically for spatial degree <= N-2 and t-degree <= K-1.
    """
    side = _WAVE_RULES[w.family][0]
    h = Hamiltonian(w.mass)
    t_lab = DerivativeLabel("0", "plain", side, "lower")
    left = apply_derivative(t_lab, w.body, 0).scale(I)
    right = h.apply(w.body, side)
    return left - right


def momentum_residual(w: PlaneWave, index: str, position: str = "lower") -> Poly:
    """(1/i) dA acting on the family's side minus star multiplication by pA
    on the family's side.  Vanishes for spatial degree <= N-1."""
    _, (variant, side), star_side = _WAVE_RULES[w.family]
    lab = DerivativeLabel(index, variant, side, position)
    acted = apply_derivative(lab, w.body, 0).scale(I_INV)
    pA = _p_factor(index, position, w.body.convention)
    expected = w.body.star(pA) if star_side == "r" else pA.star(w.body)
    return acted - expected


def energy_residual(w: PlaneWave) -> Poly:
    """H0 acting on the family's side minus p^2/(2m) on the star side.
    Vanishes for spatial degree <= N-2."""
    side, _, star_side = _WAVE_RULES[w.family]
    h = Hamiltonian(w.mass)
    acted = h.apply(w.body, side)
    p2 = _p_factor(None, "lower", w.body.convention).scale(
        QScalar.from_rational(Fraction(1, 2) / w.mass)
    )
    expected = w.body.star(p2) if star_side == "r" else p2.star(w.body)
    return acted - expected


def wave_below_shell(
    poly: Poly, order_space: int, order_time: int | None = None, drop: int = 0
) -> Poly:
    """Terms with spatial degree <= order_space - 1 - drop (and, if given,
    t-degree <= order_time - 1)."""
    def keep(key):
        if sum(key[0][0]) > order_space - 1 - drop:
            return False
        if order_time is not None and key[1] > order_time - 1:
            return False
        return True

    return poly.filter_terms(keep)


def zwischen_reorder_residual(k: int, n: tuple[int, int, int]) -> Poly:
    """p^{2k} * (p-)^{n-}(p3)^{n3}(p+)^{n+}  minus the printed reordered
    expansion with weights q^{2 n3 (k-l)} C(k,l)."""
    nm, n3, np_ = n
    mono = Poly.monomial((P_SECTOR,), ((nm, n3, np_),), 0, ONE)
    lhs = psq_power(k).star(mono)
    terms = {}
    for l in range(k + 1):
        coeff = cq_coefficient(k, l).shift(2 * n3 * (k - l))
        key = (((nm + k - l, n3 + 2 * l, np_ + k - l),), 0)
        terms[key] = coeff
    rhs = Poly((P_SECTOR,), terms, "W")
    return lhs - rhs


def phase_group_law_residual(
    order: int, mass: Fraction, t1: Fraction, t2: Fraction
) -> Poly:
    """phase(t1) * phase(t2) - phase(t1 + t2), truncated below the shell
    (momentum degree <= 2 * order)."""
    a = phase_factor(-1, order, mass, t_value=t1)
    b = phase_factor(-1, order, mass, t_value=t2)
    c = phase_factor(-1, order, mass, t_value=t1 + t2)
    diff = a.star(b) - c
    return diff.filter_terms(lambda key: sum(key[0][0]) <= 2 * order)


# -- momentum-space propagators ---------------------------------------------------


@dataclass(frozen=True)
class MomentumPropagator:
    """Geometric expansion of +-i (E -+ p^2/(2m) +- i eps)^-1.

    ``terms[k]`` is the scalar multiplying (E +- i eps)^{-(k+1)} p^{2k};
    for the L families the sign of p^2 flips.  eps never leaves the opaque
    symbol; no limit is taken.
    """

    family: str  # "KR" | "KL" | "KRstar" | "KLstar"
    branch: int  # +1 retarded, -1 advanced
    order: int
    mass: Fraction

    def psq_sign(self) -> int:
        return +1 if self.family in ("KR", "KRstar") else -1

    def coefficient(self, k: int) -> QScalar:
        """(+-i) (2m)^-k with the family's p^2 sign folded in."""
        rat = Fraction(self.psq_sign()) ** k / (2 * self.mass) ** k
        c = QScalar.from_rational(0, Fraction(self.branch)).scale(GRat(rat))
        return c

    def expanded(self) -> dict[int, Poly]:
        """Map from the power of (E +- i eps) to the normal-ordered momentum
        polynomial coefficient."""
        out = {}
        for k in range(self.order + 1):
            out[-(k + 1)] = psq_power(k).scale(self.coefficient(k))
        return out

    def to_json(self) -> dict:
        series = []
        for power, poly in self.expanded().items():
            series.append(
                {
                    "energy_power": power,
                    "terms": [
                        [list(tr[0]), coeff.to_json()]
                        for (tr, _), coeff in sorted(poly.terms.items())
                    ],
                }
            )
        return {
            "family": self.family,
            "branch": "retarded" if self.branch > 0 else "advanced",
            "order": self.order,
            "mass": str(self.mass),
            "series": series,
        }


def propagator_momentum(
    family: str, branch: int, order: int, mass: Fraction
) -> MomentumPropagator:
    if family not in ("KR", "KL", "KRstar", "KLstar"):
        raise ValueError(f"unknown propagator family {family!r}")
    if branch not in (1, -1):
        raise ValueError("branch must be +1 (retarded) or -1 (advanced)")
    return MomentumPropagator(family, branch, order, mass)


def propagator_defining_residual(prop: MomentumPropagator) -> dict[int, Poly]:
    """(E - s p^2/(2m)) * K  minus  branch * i, as a map over powers of the
    opaque energy symbol.  Everything must cancel except the single
    truncation term at power -(order+1) with momentum degree 2(order+1).
    """
    s = prop.psq_sign()
    half = QScalar.from_rational(Fraction(s, 2) / prop.mass)
    series = prop.expanded()
    out: dict[int, Poly] = {}
    for power, poly in series.items():
        # E * K : shifts the energy power up by one
        out[power + 1] = out.get(
            power + 1, Poly.zero((P_SECTOR,), "W")
        ) + poly
        # -s p^2/(2m) * K
        out[power] = out.get(power, Poly.zero((P_SECTOR,), "W")) - psq().scale(
            half
        ).star(poly)
    target = Poly.scalar(
        (P_SECTOR,), QScalar.from_rational(0, Fraction(prop.branch))
    )
    out[0] = out.get(0, Poly.zero((P_SECTOR,), "W")) - target
    return {p: v for p, v in out.items() if not v.is_zero()}


# -- Heine diagnostic ---------------------------------------------------------------


def heine_phase_report(
    order: int,
    q0: float,
    t: float,
    mass: float,
    samples: list[tuple[float, float, float]],
    sign: int = -1,
) -> list[dict]:
    """Per-k comparison of the double-sum phase factor against the printed
    resummed product form.

    The double sum is the form the pipeline uses (normal-ordered monomials
    evaluated as commuting samples); the product form divides by the
    q-Pochhammer-style product directly.  The report states both values and
    their discrepancy per k without asserting either; the resummed form is
    never used anywhere in the pipeline.
    """
    rows = []
    lamp = LAMBDA_PLUS.eval(q0).real
    for k in range(order + 1):
        for pm, p3, pp in samples:
            pref = (sign * 1j * t / (2 * mass)) ** k / math.factorial(k)
            double_sum = 0j
            for l in range(k + 1):
                c = cq_value(k, l, q0)
                double_sum += c * pm ** (k - l) * p3 ** (2 * l) * pp ** (k - l)
            double_sum *= pref
            # printed product form
            prod_pref = (-sign * 1j * t * lamp * pm * pp / (2 * mass)) ** k
            prod_pref /= math.factorial(k)
            z = p3**2 / (-(q0**2) * lamp * pm * pp)
            den = 1.0
            for j in range(k):
                den *= 1 - z * q0 ** (4 * j)
            product_form = prod_pref / den
            rows.append(
                {
                    "k": k,
                    "sample": [pm, p3, pp],
                    "double_sum": [double_sum.real, double_sum.imag],
                    "resummed_product": [product_form.real, product_form.imag],
                    "abs_discrepancy": abs(double_sum - product_form),
                }
            )
    return rows


# -- wave packets and expectation values ---------------------------------------


class PacketError(ValueError):
    pass


def _numeric_phase(lattice, sign: int, order: int, mass: Fraction, t: float):
    """The phase factor at numeric time t as an envelope-free lattice carrier
    (truncated central star-series of exp(sign i t p^2 / 2m))."""
    from .lattice import StructuredFn, STerm

    q0 = lattice.q0
    terms = []
    fact = 1.0
    for k in range(order + 1):
        if k:
            fact *= k
        pref = (sign * 1j * t / (2.0 * float(mass))) ** k / fact
        for l in range(k + 1):
            c = cq_value(k, l, q0) * pref
            terms.append(STerm(c, (k - l, 2 * l, k - l), (None, None, None)))
    return StructuredFn(lattice, "p", terms)


def _phase_tail_estimate(lattice, order, mass, t, support_j):
    """Magnitude of the next star-series term on the packet's support shell;
    the convergence guard for the asymptotic series."""
    q0 = lattice.q0
    k = order + 1
    fact = 1.0
    for j in range(2, k + 1):
        fact *= j
    pmax = q0 ** float(support_j)
    worst = 0.0
    for l in range(k + 1):
        mono = pmax ** (2 * (k - l)) * pmax ** (2 * l)
        worst = max(worst, abs(cq_value(k, l, q0)) * mono)
    return (abs(t) / (2.0 * float(mass))) ** k / fact * worst


@dataclass
class WavePacket:
    """Lattice-sampled momentum coefficients of a Schroedinger solution.

    ``c`` carries the expansion coefficients (class: polynomial in the first
    momentum slot, envelopes on the other two); ``cstar`` the conjugate-family
    coefficients (mirrored class), by default the quantum space conjugate of
    ``c``.  The remaining two coefficient families follow by conjugation.
    """

    lattice: object
    c: object
    cstar: object
    mass: Fraction = Fraction(1)
    phase_order: int = 16
    support_j: float = 8.0

    def __post_init__(self):
        self._coeff_cache = {}

    def conj_families(self):
        return self.c.conjugate(), self.cstar.conjugate()  # c^p, (c*)^p

    def boundary_mass(self) -> float:
        return self.cstar.star(self.c).boundary_mass()

    def require_decay(self, tol: float = 1e-12):
        bm = self.boundary_mass()
        if not bm < tol:
            raise PacketError(
                f"packet does not decay on the lattice window (boundary mass {bm:.2e})"
            )

    # -- time evolution ------------------------------------------------------

    def _phases(self, t: float):
        if t == 0.0:
            return None
        # lowest adequate truncation of the (asymptotic) central series
        order = None
        for cand in range(6, self.phase_order + 1):
            if _phase_tail_estimate(self.lattice, cand, self.mass, t, self.support_j) < 1e-12:
                order = cand
                break
        if order is None:
            tail = _phase_tail_estimate(
                self.lattice, self.phase_order, self.mass, t, self.support_j
            )
            if not tail < 1e-11:
                raise PacketError(
                    f"phase series not converged at order {self.phase_order} "
                    f"(tail estimate {tail:.2e}); reduce t or tighten the packet"
                )
            order = self.phase_order
        minus = _numeric_phase(self.lattice, -1, order, self.mass, t)
        plus = _numeric_phase(self.lattice, +1, order, self.mass, t)
        return minus, plus

    def coefficients_at(self, t: float):
        """(c(t), c*(t), c^(t), c*^(t)) with the central-series phases."""
        cached = self._coeff_cache.get(t)
        if cached is not None:
            return cached
        c_up, cstar_up = self.conj_families()
        if t == 0.0:
            out = (self.c, self.cstar, c_up, cstar_up)
        else:
            minus, plus = self._phases(t)
            out = (
                minus.star(self.c),
                self.cstar.star(plus),
                c_up.star(plus),
                minus.star(cstar_up),
            )
        self._coeff_cache[t] = out
        return out

    # -- integrals -------------------------------------------------------------

    def norm(self, t: float = 0.0) -> complex:
        ct, cst, cut, csut = self.coefficients_at(t)
        term1 = cst.star_integral(ct)
        term2 = cut.star_integral(csut)
        return 0.5 * (term1 + term2)

    def norm_check(self, t: float = 0.0) -> float:
        return abs(1.0 - self.norm(t))

    def normalized(self) -> "WavePacket":
        n = self.norm(0.0)
        if not (abs(n.imag) < 1e-10 * max(abs(n), 1.0) and n.real > 0):
            raise PacketError(f"norm pairing is not positive ({n:.3e})")
        s = 1.0 / (n.real**0.5)
        return WavePacket(
            self.lattice,
            self.c.scale_complex(s),
            self.cstar.scale_complex(s),
            self.mass,
            self.phase_order,
            self.support_j,
        )

    def expectation_momentum(self, index: str, t: float = 0.0, position: str = "upper") -> complex:
        from .lattice import StructuredFn

        ct, cst, cut, csut = self.coefficients_at(t)
        build = coord_upper if position == "upper" else coord_lower
        pA = StructuredFn.from_poly(self.lattice, build("p", index))
        term1 = cst.star_integral(pA.star(ct))
        term2 = cut.star_integral(pA.star(csut))
        return 0.5 * (term1 + term2)

    def _position_term(self, index: str, t: float, position: str) -> complex:
        """i Int ((c*)(t) <|bar d_p^A) * c(t).

        Star multiplication by x^A on the plane-wave side becomes the
        right-bar momentum action under the integral; integration by parts
        (which holds exactly for the integration-adjoint pairing) lands it
        on the bra coefficients, where it is the conjugation-transported
        local operator."""
        ct, cst, _, _ = self.coefficients_at(t)
        lab = DerivativeLabel(index, "plain", "right_bar", position)
        acted = apply_derivative(lab, cst)
        return 1j * acted.star_integral(ct)

    def expectation_position(self, index: str, t: float = 0.0, position: str = "upper") -> complex:
        """(1/2)[T(A) + conj(T(A, flipped))]: the two coefficient-family
        terms of the position expectation are exact conjugate mirrors, so
        the second is computed as the conjugate of the first at the flipped
        index position."""
        flipped = "lower" if position == "upper" else "upper"
        t1 = self._position_term(index, t, position)
        t2 = self._position_term(index, t, flipped).conjugate()
        return 0.5 * (t1 + t2)

    def inner(self, other: "WavePacket", t: float = 0.0) -> complex:
        """Bra-ket pairing of this packet's conjugate family with another
        packet's coefficients (the orthogonality surrogate)."""
        ct = other.coefficients_at(t)[0]
        cst = self.coefficients_at(t)[1]
        return cst.star_integral(ct)


def gaussian_packet(
    lattice,
    mass: Fraction = Fraction(1),
    center_j: float = 0.0,
    width_j: float = 1.1,
    odd_fraction: float = 0.0,
    momentum_poly=None,
    phase_order: int = 16,
) -> WavePacket:
    """A normalized packet with log-Gaussian envelopes on the enveloped
    momentum slots (and optional polynomial content on the first).

    ``odd_fraction`` admixes a sign-odd component so expectation values are
    not killed by parity.
    """
    from .lattice import StructuredFn, STerm, AxisFn, log_gaussian, odd_log_gaussian

    def env():
        base = log_gaussian(lattice, center_j, width_j)
        if odd_fraction == 0.0:
            return base
        odd = odd_log_gaussian(lattice, center_j, width_j)
        return AxisFn(lambda x: base(x) + odd_fraction * odd(x))

    c = StructuredFn(
        lattice, "p", [STerm(1.0, (0, 0, 0), (None, env(), env()))]
    )
    if momentum_poly is not None:
        c = StructuredFn.from_poly(lattice, momentum_poly).star(c)
    support = abs(center_j) + 6.0 * width_j
    packet = WavePacket(
        lattice, c, c.conjugate(), mass, phase_order, support
    )
    return packet.normalized()


def phase_factor_construction_residual(order: int, mass: Fraction) -> Poly:
    """The phase factor must equal the C(k,l) double sum term by term; this
    rebuilds it independently and subtracts (asserting by construction that
    the pipeline never depends on the resummed product form)."""
    direct = Poly.zero((P_SECTOR,), "W")
    for k in range(order + 1):
        rat = Fraction(-1) ** k / (
            Fraction(math.factorial(k)) * (2 * mass) ** k
        )
        coeff = (I**k).scale(GRat(rat))
        terms = {}
        for l in range(k + 1):
            terms[(((k - l, 2 * l, k - l),), k)] = cq_coefficient(k, l) * coeff
        direct = direct + Poly((P_SECTOR,), terms, "W")
    return phase_factor(-1, order, mass) - direct
