"""Free-particle layer: Hamiltonian, plane waves, propagators.

The free Hamiltonian is H0 = -(2m)^-1 d^A d_A, the metric contraction of
``apply_derivative`` on any of the four action sides (the right sides reach
it through the same conjugation transport as every derivative).  Its
eigenfunctions are the deformed exponentials; star-multiplying one by the
time-dependent phase factor (a star-exponential series in the central
element p^2) on the exponential's star side, with sign -1 on the right and
+1 on the left, produces the four plane-wave families (the formal volume
normalization is treated as 1 in symbolic mode)

    u_p      = exp(x|ip) * phase(-)          left / plain
    u^p      = phase(+) * exp(1/i p|x)       right-bar / plain
    (u*)_p   = phase(+) * exp*(ip|x)         right / twisted
    (u*)^p   = exp*(x|1/i p) * phase(-)      left-bar / twisted

``PLANE_WAVES`` names each family's exponential; the action side, the star
side and the ordering are those of the exponential's eigenvalue rule in
``qexp.FAMILIES``.  The phase factor and p^2 are built once, in W; the
twisted families and their p^2/2m read them in Wt through the mirror
``Poly.subs_q_inverse_swap``, as every Wt series is read.  Each plane wave
solves i d_t u = H0 u and is an H0 eigenfunction with eigenvalue p^2/2m;
``schrodinger_energy_residuals`` checks both below the truncation shell
from one H0 image of the body, and ``momentum_residual`` checks the
momentum eigenvalue.

Powers of p^2 expand over normal-ordered momentum monomials with the
coefficient family C(k, l) = q^{-2l} (-lam_+)^{k-l} [k choose l]_{q^4},
which satisfies the recurrence
C(k, l) = -lam_+ q^{4l} C(k-1, l) + q^-2 C(k-1, l-1).

Momentum-space propagators are carried as formal Laurent series in the
single opaque symbol (E +- i eps); the defining identity
(E - p^2/2m) * K = +-i holds below the truncation shell.

The propagators and the phase report need neither derivatives nor
exponentials, so ``qcalculus`` and ``qexp`` load where H0, a plane wave or
a position expectation value first needs them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .qarith import (
    QScalar,
    ZERO,
    ONE,
    I,
    I_INV,
    LAMBDA_PLUS,
    q_binomial,
    q_factorial,
    _Frozen,
)
from .starcalc import (
    Poly,
    P_SECTOR,
    X_SECTOR,
    _add_term,
    coord,
    Metric,
    to_phase_space,
)

#: plane-wave family -> the deformed exponential it is built on
PLANE_WAVES = {
    "u_lower": "x_ip",
    "u_upper": "ipinv_x",
    "ustar_lower": "star_ip_x",
    "ustar_upper": "star_x_ipinv",
}
PLANE_WAVE_FAMILIES = tuple(PLANE_WAVES)


# -- Hamiltonian -----------------------------------------------------------------


def _check_mass(mass, error=ValueError) -> None:
    """The one mass rule of every builder: m > 0."""
    if not mass > 0:
        raise error(f"mass must be positive, got {mass}")


class Hamiltonian(_Frozen):
    """H0 = -(2m)^-1 d^A d_A with exact rational mass."""

    __slots__ = ("mass",)

    def __init__(self, mass: Fraction = Fraction(1)):
        _check_mass(mass)
        super().__init__(mass)

    def prefactor(self) -> QScalar:
        return QScalar.from_rational(Fraction(-1, 2) / self.mass)

    def apply(self, f, side: str = "left"):
        """Act with H0 through the requested action side.

        The contraction d^A d_A = sum_A g^AB d_B d_A is composed of plain
        derivatives acting on ``side``, the inner d_A first.  The labels sit
        at the lower index on the left sides and at the upper index on the
        right sides, because the conjugation that transports a right action
        flips index positions.
        """
        from .qcalculus import apply_derivative, d

        pos = "lower" if side in ("left", "left_bar") else "upper"

        def act(index, g):
            return apply_derivative(d(index, "plain", side, pos), g)

        return Metric.contract(lambda b, a: act(b, act(a, f))).scale(self.prefactor())


def hamiltonian_momentum_commutator(h: Hamiltonian, f: Poly, index: str) -> Poly:
    """[H0, (1/i) d^A] f = H0 (dA f) - dA (H0 f); vanishes identically."""
    from .qcalculus import DerivativeLabel, apply_derivative

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
    """C(k,l) + lam_+ q^{4l} C(k-1,l) - q^-2 C(k-1,l-1) (must be zero); the
    recurrence holds for k >= 1."""
    if k < 1:
        raise ValueError("the recurrence requires k >= 1")
    first = cq_coefficient(k - 1, l) if l <= k - 1 else ZERO
    second = cq_coefficient(k - 1, l - 1) if 1 <= l else ZERO
    return (
        cq_coefficient(k, l)
        + (LAMBDA_PLUS * first).shift(4 * l)
        - second.shift(-2)
    )


def psq() -> Poly:
    """p^2 = p^A * p_A as a normal-ordered momentum polynomial."""
    p = {a: coord("p", a, "lower") for a in Metric.indices}
    return Metric.contract(lambda b, a: p[b].star(p[a]))


def psq_power(k: int) -> Poly:
    """Sum_l C(k,l) (p-)^{k-l} (p3)^{2l} (p+)^{k-l}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    terms = {(((k - l, 2 * l, k - l),), 0): cq_coefficient(k, l) for l in range(k + 1)}
    return Poly((P_SECTOR,), terms, "W")


def psq_star_power(k: int) -> Poly:
    """The k-fold star power of p^2 (the brute-force route)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    base = psq()
    out = Poly.one((P_SECTOR,))
    for _ in range(k):
        out = out.star(base)
    return out


def _phase_terms(sign: int, order: int, mass: Fraction, t_value):
    """The terms k = 0..order of the phase factor, each (sign i t / 2m)^k / k!
    p^{2k}, of momentum degree 2k."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    for k in range(order + 1):
        rat = Fraction(sign) ** k / (
            Fraction(math.factorial(k)) * (2 * mass) ** k
        )
        coeff = (I**k).scale(rat)
        if t_value is not None:
            coeff = coeff.scale(t_value**k)
            yield psq_power(k).scale(coeff)
        else:
            yield psq_power(k).scale(coeff).mul_t(k)


def phase_factor(
    sign: int, order: int, mass: Fraction, t_value: Fraction | None = None
) -> Poly:
    """Sum_{k<=order} (sign i t / 2m)^k / k! p^{2k}, a momentum polynomial
    with symbolic t powers (or with an exact rational t absorbed)."""
    return sum(_phase_terms(sign, order, mass, t_value), Poly.zero((P_SECTOR,), "W"))


def _in_ordering(f: Poly, convention: str) -> Poly:
    """A W series read in ``convention``: itself, or its Wt mirror."""
    return f.subs_q_inverse_swap() if convention == "Wt" else f


# -- plane waves --------------------------------------------------------------------


class PlaneWave(_Frozen):
    """The plane wave of ``family`` truncated at the given orders in space
    and time; ``body`` is its (x, p) carrier with t powers."""

    __slots__ = ("family", "order_space", "order_time", "mass", "body")


def build_plane_wave(
    family: str, order_space: int, order_time: int, mass: Fraction
) -> PlaneWave:
    """The family's exponential star-multiplied by its phase factor.

    The phase sits on the exponential's star side, with sign -1 on the
    right and +1 on the left, in the exponential's ordering: the twisted
    families read the W phase factor through its Wt mirror.  The formal
    volume factor is 1.
    """
    if family not in PLANE_WAVES:
        raise ValueError(f"unknown plane-wave family {family!r}")
    _check_mass(mass)
    from .qexp import FAMILIES, _star_on, build_exponential

    variant = PLANE_WAVES[family]
    e = build_exponential(variant, order_space).body
    star_side = FAMILIES[variant].rule[2]
    sign = -1 if star_side == "r" else 1
    ph = _in_ordering(phase_factor(sign, order_time, mass), e.convention)
    body = _star_on(e, to_phase_space(ph, "p"), star_side)
    return PlaneWave(family, order_space, order_time, mass, body)


def plane_wave_printed(order_space: int, order_time: int, mass: Fraction) -> Poly:
    """The closed coefficient formula for the first family, assembled
    independently of the star product (the exactness oracle):

    coefficient of (x)^n t^k (p)-monomial =
        (-lam_+)^{k-l} q^{-2l+2 n3 (k-l)} [k choose l]_{q^4} (2m)^-k
        i^{|n|+3k} / (k! [[n+]]_{q^4}! [[n3]]_{q^2}! [[n-]]_{q^4}!)
    on the momentum monomial (p-)^{n- + k-l} (p3)^{n3+2l} (p+)^{n+ + k-l}.
    """
    N, K = order_space, order_time
    if N < 0 or K < 0:
        raise ValueError("truncation order must be >= 0")
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
                        coeff = coeff.scale(rat) / base
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


def schrodinger_energy_residuals(w: PlaneWave) -> tuple[Poly, Poly]:
    """The Schrodinger and energy residuals below the shell, where every
    term must vanish: i d_t acting on the family's side minus H0 acting the
    same way (spatial degree <= N-2, t-degree <= K-1), and H0 minus p^2/(2m)
    on the star side (spatial degree <= N-2).

    H0 lowers the spatial degree by exactly two and keeps t, d_t lowers t by
    one and keeps the spatial degree, and the momentum star keeps both.  So
    one H0 image of the whole body serves both residuals, cut by t for the
    first, and d_t and p^2/(2m) act only on the body terms of spatial degree
    <= N-2."""
    from .qcalculus import DerivativeLabel, apply_derivative
    from .qexp import FAMILIES, _star_on, below_shell

    _, side, star_side = FAMILIES[PLANE_WAVES[w.family]].rule
    acted = Hamiltonian(w.mass).apply(w.body, side)
    low = below_shell(w.body, w.order_space - 1)
    dt = apply_derivative(DerivativeLabel("0", "plain", side, "lower"), low, 0)
    below_time = acted.filter_terms(lambda key: key[1] <= w.order_time - 1)
    p2 = to_phase_space(_in_ordering(psq(), w.body.convention), "p").scale(
        QScalar.from_rational(Fraction(1, 2) / w.mass)
    )
    return dt.scale(I) - below_time, acted - _star_on(low, p2, star_side)


def momentum_residual(w: PlaneWave, index: str) -> Poly:
    """(1/i) dA acting on the family's side minus star multiplication by pA
    on the family's star side, below the shell (spatial degree <= N-1),
    where every term must vanish."""
    from .qexp import _eigen_residual

    return _eigen_residual(w.body, PLANE_WAVES[w.family], index, "lower")


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
    """phase(t1) * phase(t2) - phase(t1 + t2) below the shell (momentum
    degree <= 2 * order), where every term must vanish.

    The momentum star adds degrees, so term k of phase(t1), of degree 2k, is
    star-multiplied only by the terms of phase(t2) up to k' = order - k."""
    a = _phase_terms(-1, order, mass, t1)
    b = list(accumulate(_phase_terms(-1, order, mass, t2)))
    low = sum((a_k.star(b[order - k]) for k, a_k in enumerate(a)),
              Poly.zero((P_SECTOR,), "W"))
    return low - phase_factor(-1, order, mass, t_value=t1 + t2)


# -- momentum-space propagators ---------------------------------------------------


class MomentumPropagator(_Frozen):
    """Geometric expansion of +-i (E -+ p^2/(2m) +- i eps)^-1.

    ``terms[k]`` is the scalar multiplying (E +- i eps)^{-(k+1)} p^{2k};
    for the L families the sign of p^2 flips.  eps never leaves the opaque
    symbol; no limit is taken.  ``family`` is "KR", "KL", "KRstar" or
    "KLstar"; ``branch`` is +1 (retarded) or -1 (advanced).
    """

    __slots__ = ("family", "branch", "order", "mass")

    def psq_sign(self) -> int:
        return +1 if self.family in ("KR", "KRstar") else -1

    def coefficient(self, k: int) -> QScalar:
        """(+-i) (2m)^-k with the family's p^2 sign folded in."""
        rat = Fraction(self.psq_sign()) ** k / (2 * self.mass) ** k
        c = QScalar.from_rational(0, Fraction(self.branch)).scale(rat)
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
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    _check_mass(mass)
    return MomentumPropagator(family, branch, order, mass)


def propagator_defining_residual(prop: MomentumPropagator) -> dict[int, Poly]:
    """(E - s p^2/(2m)) * K  minus  branch * i below the shell, as a map over
    powers of the opaque energy symbol; empty when the identity holds.

    The truncation term -s p^2/(2m) K_order at power -(order+1) is all that
    survives in the full product, so it is not built.
    """
    p2 = psq().scale(QScalar.from_rational(Fraction(prop.psq_sign(), 2) / prop.mass))
    target = Poly.scalar(
        (P_SECTOR,), QScalar.from_rational(0, Fraction(prop.branch))
    )
    out: dict[int, Poly] = {0: -target}
    for power, poly in prop.expanded().items():
        # E * K : shifts the energy power up by one
        out[power + 1] = out.get(power + 1, Poly.zero((P_SECTOR,), "W")) + poly
        # -s p^2/(2m) * K, below the truncation term
        if power > -(prop.order + 1):
            out[power] = out.get(power, Poly.zero((P_SECTOR,), "W")) - p2.star(poly)
    return {p: v for p, v in out.items() if not v.is_zero()}


# -- Heine diagnostic ---------------------------------------------------------------


def heine_phase_report(
    order: int,
    q0: float,
    t: float,
    mass: float,
    samples: list[tuple[float, float, float]],
) -> list[dict]:
    """Per-k comparison of the double-sum phase factor exp(-i t p^2 / 2m)
    against the printed resummed product form.

    The double sum is the form the pipeline uses (normal-ordered monomials
    evaluated as commuting samples); the product form divides by the
    q-Pochhammer-style product directly.  The report states both values and
    their discrepancy per k without asserting either; the resummed form is
    never used anywhere in the pipeline.
    """
    rows = []
    lamp = LAMBDA_PLUS.eval(q0).real
    for k in range(order + 1):
        terms = _phase_term(k, t, mass, q0)
        for pm, p3, pp in samples:
            double_sum = sum(
                c * pm**a * p3**b * pp**e for c, (a, b, e) in terms
            )
            # printed product form
            prod_pref = (1j * t * lamp * pm * pp / (2 * mass)) ** k
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


def _check_index(index: str) -> None:
    """Refuse an expectation index that is not spatial (+, 3 or -)."""
    if index not in Metric.indices:
        raise PacketError(f"expectation index must be one of {Metric.indices}, got {index!r}")


def _phase_term(k: int, t: float, mass, q0: float):
    """Term k of the numeric phase series of exp(-i t p^2 / 2m): the pairs
    (coefficient, degrees) of (-i t / 2m)^k / k! C(k, l) on the momentum
    monomial (k-l, 2l, k-l), for l = 0..k."""
    fact = 1.0  # a float product: past k = 170 it is inf, not an OverflowError
    for j in range(2, k + 1):
        fact *= j
    pref = (-1j * t / (2.0 * float(mass))) ** k / fact
    return [(cq_value(k, l, q0) * pref, (k - l, 2 * l, k - l)) for l in range(k + 1)]


class WavePacket:
    """Lattice-sampled momentum coefficients of a Schroedinger solution.

    ``c`` carries the expansion coefficients (class: polynomial in the first
    momentum slot, envelopes on the other two) and the lattice they live on.
    The conjugate-family coefficients are its quantum space conjugate,
    c* = conj(c) (mirrored class).  The two remaining families, conj(c) and
    conj(c*), are then c* and c again, so the pair (c, c*) carries every
    integral.  In time the packet evolves by one phase series,
    c(t) = exp(-i t p^2 / 2m) * c, and c*(t) = conj(c(t)).  The norm, <P^A>
    and <X^A> are scalar maps of one routine, :meth:`_pairing`.
    """

    def __init__(self, c, mass: Fraction = Fraction(1), phase_order: int = 16,
                 support_j: float = 8.0):
        self.c = c
        self.mass = mass
        self.phase_order = phase_order
        self.support_j = support_j
        self._cache = {}  # t -> (c(t), c*(t), {operator: pairing})
        self._transports = {}  # (index, position) -> (d', s at q0)

    def boundary_mass(self) -> float:
        """The t = 0 edge-shell share of c*(0) * c(0); it certifies nothing at t > 0."""
        c, cst = self.coefficients_at(0.0)
        return cst.star(c).boundary_mass()

    # -- time evolution ------------------------------------------------------

    def _phase(self, t: float):
        """exp(-i t p^2 / 2m) as an envelope-free lattice carrier: the
        central series, which is asymptotic, truncated before the first term
        k >= 7 whose magnitude on the support shell is below 1e-12, or else
        after ``phase_order``, whose next term must be below 1e-11."""
        from .lattice import StructuredFn, STerm

        q0 = self.c.lattice.q0
        pmax = q0 ** float(self.support_j)
        terms = []
        for k in range(self.phase_order + 2):
            term = _phase_term(k, t, self.mass, q0)
            mags = [abs(c) for c, _ in term]
            # a part that overflowed to nan must fail the guard, not vanish in max()
            worst = max(mags) if all(map(math.isfinite, mags)) else math.inf
            tail = worst * pmax ** (2 * k)  # every part has total degree 2k
            if k >= 7 and tail < 1e-12:
                break
            if k > self.phase_order:
                if not tail < 1e-11:
                    raise PacketError(
                        f"phase series not converged at order {self.phase_order} "
                        f"(tail estimate {tail:.2e}); reduce t or tighten the packet"
                    )
                break
            terms += [STerm(c, degrees, (None, None, None)) for c, degrees in term]
        return StructuredFn(self.c.lattice, "p", terms)

    def coefficients_at(self, t: float):
        """(c(t), c*(t)) with c(t) = phase * c and c*(t) = conj(c(t)).

        Conjugation is antimultiplicative and maps exp(-i t p^2 / 2m) to
        exp(+i t p^2 / 2m), so conj(c(t)) is c* * phase(+) without a second
        series or star product."""
        return self._at(t)[:2]

    def _at(self, t: float):
        """The per-t cache entry: c(t), c*(t) and the pairings so far."""
        cached = self._cache.get(t)
        if cached is None:
            ct = self.c if t == 0.0 else self._phase(t).star(self.c)
            cached = self._cache[t] = (ct, ct.conjugate(), {})
        return cached

    # -- integrals -------------------------------------------------------------

    def _pairing(self, t: float, op=None) -> complex:
        """Int c*(t) * (op c(t)), kept per (t, op) beside c(t) and c*(t).
        ``op`` is None (the identity), an (index, position) pair (the
        momentum coordinate, star-multiplied from the left) or a
        :class:`~qeuclid.qcalculus.DerivativeLabel`.  Any other ket than
        c(t) is a :class:`~qeuclid.lattice.TableView` of c(t):
        ``apply_derivative`` and the star act on it as rewrites of c(t)'s
        kept slot tables, so no ket carrier is built and every pairing at t
        reads the tables c(t) keeps."""
        ct, cst, kept = self._at(t)
        if op not in kept:
            from .lattice import StructuredFn, TableView

            ket = ct
            if isinstance(op, tuple):
                coordinate = StructuredFn.from_poly(self.c.lattice, coord("p", *op))
                ket = TableView(ct).left_star(coordinate)
            elif op is not None:
                from .qcalculus import apply_derivative

                ket = apply_derivative(op, TableView(ct))
            kept[op] = cst.star_integral(ket)
        return kept[op]

    def norm(self, t: float = 0.0) -> complex:
        """Int c*(t) * c(t)."""
        return self._pairing(t)

    def norm_check(self, t: float = 0.0) -> float:
        return abs(1.0 - self.norm(t))

    def normalized(self) -> "WavePacket":
        """The packet of s c, s = 1/sqrt(n) for the norm n at t = 0.

        The norm kept c's ket tables and the rows of c* (see
        :meth:`~qeuclid.lattice.StructuredFn.star_integral`); the new packet
        starts with s c and s c* at t = 0, which keep them times s
        (:meth:`~qeuclid.lattice.StructuredFn.scale_complex`), so no pairing
        at t = 0 sums them again.  Its values at t = 0 differ from those of
        ``WavePacket(c.scale_complex(s))`` by rounding only; from t > 0 on,
        c(t) and c*(t) are built from s c as there, and agree bit for bit."""
        n = self.norm(0.0)
        if not (abs(n.imag) < 1e-10 * max(abs(n), 1.0) and n.real > 0):
            raise PacketError(f"norm pairing is not positive ({n:.3e})")
        s = 1.0 / (n.real**0.5)
        c, cst, _ = self._at(0.0)
        out = WavePacket(c.scale_complex(s), self.mass, self.phase_order, self.support_j)
        out._cache[0.0] = (out.c, cst.scale_complex(s), {})
        return out

    def expectation_momentum(self, index: str, t: float = 0.0, position: str = "upper") -> complex:
        """Int c*(t) * (p^A * c(t)), or p_A at ``position="lower"``."""
        _check_index(index)
        return self._pairing(t, (index, position))

    def _position_term(self, index: str, t: float, position: str) -> complex:
        """T(A) = i Int ((c*)(t) <|bar d_p^A) * c(t).

        Star multiplication by x^A on the plane-wave side becomes the
        right-bar momentum action under the integral; integration by parts
        (exact for the integration-adjoint pairing) lands it on the bra,
        where it is the conjugation-transported local operator
        f <|bar d = -s conj(d' |> conj(f))  (d' the mirror left label, s
        real; :func:`~qeuclid.qcalculus.right_transport`).  With
        conj(c*(t)) = c(t) and  Int conj(Y) * X = conj(Int conj(X) * Y), which
        holds up to rounding and the window's edge shells, T(A) is
        -i s conj(Int c*(t) * (d' |> c(t))), the pairing of d'; no carrier is
        conjugated.  (d', s) is kept per (index, position)."""
        kept = self._transports.get((index, position))
        if kept is None:
            from .qcalculus import DerivativeLabel, right_transport

            mirror, s = right_transport(DerivativeLabel(index, "plain", "right_bar", position), "p")
            kept = self._transports[index, position] = mirror, s.eval(self.c.lattice.q0).real
        mirror, s = kept
        return 1j * (-s * self._pairing(t, mirror)).conjugate()

    def expectation_position(self, index: str, t: float = 0.0, position: str = "upper") -> complex:
        """(1/2)[T(A) + conj(T(A, flipped))]: the two coefficient-family
        terms of the position expectation are exact conjugate mirrors, so
        the second is the conjugate of the first at the flipped position.
        The value at ``position="lower"`` is thus, bit for bit, the conjugate
        of the value at ``"upper"``, and comparing them pins nothing.
        T(A, lower) and T(A-bar, upper) (+ and - swapped) transport to one
        left label d', so the six <X> values at one t read three pairings."""
        _check_index(index)
        flipped = "lower" if position == "upper" else "upper"
        return 0.5 * (
            self._position_term(index, t, position)
            + self._position_term(index, t, flipped).conjugate()
        )

    def inner(self, other: "WavePacket") -> complex:
        """Bra-ket pairing at t = 0 of this packet's conjugate family with
        another packet's coefficients (the orthogonality surrogate)."""
        return self.coefficients_at(0.0)[1].star_integral(other.c)


def gaussian_packet(
    lattice,
    mass: Fraction = Fraction(1),
    center_j: float = 0.0,
    width_j: float = 1.0,
    odd_fraction: float = 0.0,
    phase_order: int = 16,
) -> WavePacket:
    """A normalized packet with log-Gaussian envelopes on the enveloped
    momentum slots and the constant 1 on the first.  Its c(0) and c*(0)
    keep the tables and rows its norm summed (:meth:`WavePacket.normalized`).

    Its coefficient pair is c and c* = conj(c).  ``odd_fraction`` admixes a
    sign-odd component so expectation values are not killed by parity.
    ``width_j`` must be positive and ``phase_order`` non-negative; the
    phase-series guard works on the support shell |center_j| + 6 width_j.
    """
    from .lattice import StructuredFn, STerm, log_gaussian

    if not width_j > 0:
        raise PacketError(f"width_j must be positive, got {width_j}")
    if phase_order < 0:
        raise PacketError(f"phase_order must be >= 0, got {phase_order}")
    _check_mass(mass, PacketError)

    env = log_gaussian(lattice, center_j, width_j, odd_fraction=odd_fraction)
    # one envelope on both slots: its base is sampled once per window
    c = StructuredFn(lattice, "p", [STerm(1.0, (0, 0, 0), (None, env, env))])
    support = abs(center_j) + 6.0 * width_j
    return WavePacket(c, mass, phase_order, support).normalized()


def phase_factor_construction_residual(order: int, mass: Fraction) -> Poly:
    """The phase factor must equal the C(k,l) double sum term by term; this
    rebuilds it independently and subtracts (asserting by construction that
    the pipeline never depends on the resummed product form)."""
    direct = Poly.zero((P_SECTOR,), "W")
    for k in range(order + 1):
        rat = Fraction(-1) ** k / (
            Fraction(math.factorial(k)) * (2 * mass) ** k
        )
        coeff = (I**k).scale(rat)
        terms = {}
        for l in range(k + 1):
            terms[(((k - l, 2 * l, k - l),), k)] = cq_coefficient(k, l) * coeff
        direct = direct + Poly((P_SECTOR,), terms, "W")
    return phase_factor(-1, order, mass) - direct
