"""Deformed exponentials, q-translations, and q-inversions.

The exponentials are the joint eigenfunctions of the partial derivatives;
truncated at total degree N they satisfy their eigenvalue equations exactly
below the truncation shell.  Six variants are carried:

* ``x_ip``       exp(x | i p)          left eigenfunction, plain family (W)
* ``ipinv_x``    exp(1/i p | x)        right eigenfunction, plain family (W)
* ``bar_x_ip``   the q -> 1/q image of x_ip (Wt)
* ``bar_ipinv_x``                  ... of ipinv_x (Wt)
* ``star_ip_x``  twisted exponential, realized as bar_ipinv_x with the
                 momentum rescaled p -> q^6 p
* ``star_x_ipinv``                 ... as bar_x_ip with p -> q^6 p

Translations realize the braided coproducts on commutative carriers; the
unbarred one has a printed closed formula (quadruple sum) and is
cross-checked against the exponential-of-derivatives route.  Inversions
realize the braided antipodes via the scaling-operator series; the barred
inversion is the image of the unbarred one under (q -> 1/q, +/- swap).
"""

from __future__ import annotations

from dataclasses import dataclass

from .qarith import (
    ONE,
    I,
    I_INV,
    LAMBDA,
    LAMBDA_PLUS,
    q_factorial,
    q_double_factorial_even,
)
from .starcalc import (
    Poly,
    Sector,
    X_SECTOR,
    P_SECTOR,
    _add_term,
    coord_upper,
    to_phase_space,
)
from .qcalculus import DerivativeLabel, apply_derivative, d

Y_SECTOR = Sector("x", "y")

VARIANTS = (
    "x_ip",
    "ipinv_x",
    "bar_x_ip",
    "bar_ipinv_x",
    "star_ip_x",
    "star_x_ipinv",
)


@dataclass(frozen=True)
class QExponential:
    variant: str
    order: int
    body: Poly  # (x, p) phase-space carrier


def _xp_sectors():
    return (X_SECTOR, P_SECTOR)


def _degree_triples(n_max: int):
    for total in range(n_max + 1):
        for np_ in range(total + 1):
            for n3 in range(total - np_ + 1):
                yield np_, n3, total - np_ - n3


def _body_x_ip(order: int, base_sign: int) -> Poly:
    """Common body of x_ip (base_sign +1) and bar_x_ip (base_sign -1)."""
    terms = {}
    for np_, n3, nm in _degree_triples(order):
        denom = (
            q_factorial(np_, 4 * base_sign)
            * q_factorial(n3, 2 * base_sign)
            * q_factorial(nm, 4 * base_sign)
        )
        coeff = (I ** (np_ + n3 + nm)) / denom
        key = (((np_, n3, nm), (nm, n3, np_)), 0)
        terms[key] = coeff
    return Poly(_xp_sectors(), terms, "W" if base_sign > 0 else "Wt")


def _body_ipinv_x(order: int) -> Poly:
    """exp(1/i p | x) written on the canonical basis.

    The printed form pairs upper-index momenta with lower-index positions;
    resolving both through the metric gives, at position exponents
    (a, b, c), the coefficient q^{2(c-a)} (1/i)^{a+b+c} over the factorials
    [[c]]_{q^4}! [[b]]_{q^2}! [[a]]_{q^4}!, paired with momentum exponents
    (c, b, a) in slot order.
    """
    terms = {}
    for a, b, c in _degree_triples(order):
        denom = q_factorial(c, 4) * q_factorial(b, 2) * q_factorial(a, 4)
        coeff = ((I_INV ** (a + b + c)) / denom).shift(2 * (c - a))
        key = (((a, b, c), (c, b, a)), 0)
        terms[key] = coeff
    return Poly(_xp_sectors(), terms, "W")


def _rescale_momentum(body: Poly, power_of_q: int) -> Poly:
    return body.scale_slot(1, 0, power_of_q).scale_slot(1, 1, power_of_q).scale_slot(
        1, 2, power_of_q
    )


def build_exponential(variant: str, order: int) -> QExponential:
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    if variant == "x_ip":
        body = _body_x_ip(order, +1)
    elif variant == "bar_x_ip":
        body = _body_x_ip(order, -1)
    elif variant == "ipinv_x":
        body = _body_ipinv_x(order)
    elif variant == "bar_ipinv_x":
        body = _body_x_ip(order, -1).conjugate()
    elif variant == "star_ip_x":
        body = _rescale_momentum(_body_x_ip(order, -1).conjugate(), 6)
    elif variant == "star_x_ipinv":
        body = _rescale_momentum(_body_x_ip(order, -1), 6)
    else:
        raise ValueError(f"unknown exponential variant {variant!r}")
    return QExponential(variant, order, body)


#: (derivative variant, action side, momentum-star side) per exponential
#: family.  "r" means the eigenvalue is star-multiplied from the right,
#: "l" from the left.
_EIGEN_RULES = {
    "x_ip": ("plain", "left", "r"),
    "ipinv_x": ("plain", "right_bar", "l"),
    "bar_x_ip": ("hat", "left_bar", "r"),
    "bar_ipinv_x": ("hat", "right", "l"),
    "star_ip_x": ("plain", "right", "l"),
    "star_x_ipinv": ("plain", "left_bar", "r"),
}


def eigen_residual(exp: QExponential, index: str) -> Poly:
    """Residual of the defining eigenvalue equation for one index.

    For left eigenfunctions:  (1/i) d^A |> e  -  e * p^A; the other families
    mirror the action side and the side of the momentum factor.  All terms
    of position degree <= N-1 cancel exactly; only the truncation shell
    survives.
    """
    variant, side, star_side = _EIGEN_RULES[exp.variant]
    conv = exp.body.convention
    label = DerivativeLabel(index, variant, side, "upper")
    acted = apply_derivative(label, exp.body, sector_index=0).scale(I_INV)
    p_upper = to_phase_space(coord_upper("p", index, conv), "p")
    if star_side == "r":
        expected = exp.body.star(p_upper)
    else:
        expected = p_upper.star(exp.body)
    return acted - expected


def below_shell(poly: Poly, order: int, sector_index: int = 0) -> Poly:
    """Terms with sector degree <= order - 1 (the part that must vanish)."""
    return poly.filter_terms(
        lambda key: sum(key[0][sector_index]) <= order - 1
    )


def normalization_residuals(exp: QExponential) -> tuple[Poly, Poly]:
    """Body at x = 0 minus 1, and body at p = 0 minus 1."""
    one = Poly.one(_xp_sectors(), exp.body.convention)
    at_x0 = exp.body.set_slot_zero(0) - one
    at_p0 = exp.body.set_slot_zero(1) - one
    return at_x0, at_p0


def exponential_to_json(exp: QExponential) -> dict:
    terms = []
    for (triples, t), coeff in sorted(exp.body.terms.items()):
        terms.append(
            {
                "x": list(triples[0]),
                "p": list(triples[1]),
                "t": t,
                "coeff": coeff.to_json(),
            }
        )
    return {"variant": exp.variant, "order": exp.order, "terms": terms}


# -- q-translations ---------------------------------------------------------------


@dataclass(frozen=True)
class TranslationResult:
    kind: str  # "plus" or "plusbar"
    polynomial: Poly  # sectors (x, y)

    def restrict_second_zero(self) -> Poly:
        """f(x (+) y) at y = 0, as a single-sector polynomial again."""
        return self.polynomial.set_slot_zero(1).drop_sector(1)

    def restrict_first_zero(self) -> Poly:
        out = self.polynomial.set_slot_zero(0).drop_sector(0)
        return out.rename_sectors((X_SECTOR,))


def _as_xy(f: Poly) -> Poly:
    if len(f.sectors) != 1 or f.sectors[0].kind != "x":
        raise ValueError("q_translate acts on single position-sector carriers")
    return f.rename_sectors((Y_SECTOR,)).insert_sector(0, X_SECTOR)


def _translate_plus_formula(f: Poly) -> Poly:
    """The printed quadruple-sum realization of f(x (+) y)."""
    conv = f.convention
    fxy = _as_xy(f.with_convention("W"))
    deg3 = max((tr[0][1] for tr, _ in f.terms), default=0)
    degm = max((tr[0][2] for tr, _ in f.terms), default=0)
    degp = max((tr[0][0] for tr, _ in f.terms), default=0)
    total = Poly.zero((X_SECTOR, Y_SECTOR), "W")
    for i_p in range(degp + 1):
        for i_m in range(degm + 1):
            for i_3 in range(deg3 + 1):
                for k in range(0, min(i_3, deg3 - i_3) + 1):
                    # y-side derivatives, rightmost first
                    g = fxy
                    for _ in range(i_p):
                        g = g.jackson_d(1, 0, -4)
                    for _ in range(i_3 + k):
                        g = g.jackson_d(1, 1, -2)
                    for _ in range(i_m):
                        g = g.jackson_d(1, 2, -4)
                    if g.is_zero():
                        continue
                    g = g.scale_slot(1, 2, 2 * (k - i_3)).scale_slot(1, 1, -2 * i_p)
                    g = g.mul_slot_var(1, 2, k)
                    denom = (
                        q_double_factorial_even(k, -2)
                        * q_factorial(i_m, -4)
                        * q_factorial(i_3 - k, -2)
                        * q_factorial(i_p, -4)
                    )
                    coeff = ((-LAMBDA * LAMBDA_PLUS).shift(-1)) ** k / denom
                    g = g.scale(coeff)
                    g = g.mul_slot_var(0, 0, i_p + k).mul_slot_var(0, 1, i_3 - k)
                    g = g.mul_slot_var(0, 2, i_m)
                    total = total + g
    return total.with_convention(conv)


def _exp_action_translate(f: Poly, bar: bool) -> Poly:
    """g(x (+) y) or g(x (+bar) y) via the exponential-of-derivatives route.

    plusbar uses the plain family exp(x | d_y) |> f(y); plus uses the
    conjugate family with hatted derivatives and the bar action.
    """
    conv = f.convention
    order = max((sum(tr[0]) for tr, _ in f.terms), default=0)
    if bar:
        work = f.rename_sectors((Y_SECTOR,)).with_convention("W")
        base_sign, variant, side = +1, "plain", "left"
    else:
        work = f.rename_sectors((Y_SECTOR,)).with_convention("Wt")
        base_sign, variant, side = -1, "hat", "left_bar"
    total = Poly.zero((X_SECTOR, Y_SECTOR), work.convention)
    for np_, n3, nm in _degree_triples(order):
        # The derivative word mirrors the momentum monomial of the
        # exponential.  One structural composition convention serves both
        # families; written against each family's printed word order it
        # reads rightmost-first for the plain family and leftmost-first for
        # the hatted one (the substitution between the calculi reverses the
        # letter roles).  Fixed by the printed translation formula on the
        # hat side and by the counit/addition laws on the plain side.
        g = work
        if bar:
            seq = ["+"] * np_ + ["3"] * n3 + ["-"] * nm
        else:
            seq = ["-"] * nm + ["3"] * n3 + ["+"] * np_
        for idx in seq:
            g = apply_derivative(d(idx, variant, side), g)
        if g.is_zero():
            continue
        denom = (
            q_factorial(np_, 4 * base_sign)
            * q_factorial(n3, 2 * base_sign)
            * q_factorial(nm, 4 * base_sign)
        )
        g = g.scale(ONE / denom)
        g = g.insert_sector(0, X_SECTOR)
        g = g.mul_slot_var(0, 0, np_).mul_slot_var(0, 1, n3).mul_slot_var(0, 2, nm)
        total = total + g
    return total.with_convention(conv)


def q_translate(f: Poly, kind: str = "plus") -> TranslationResult:
    """Realize f(x (+) y) (kind "plus") or f(x (+bar) y) (kind "plusbar").

    "plus" uses the printed closed formula; "plusbar" the exponential
    route (its closed coefficient formula is not available).
    """
    if kind == "plus":
        return TranslationResult(kind, _translate_plus_formula(f))
    if kind == "plusbar":
        return TranslationResult(kind, _exp_action_translate(f, bar=True))
    raise ValueError(f"unknown translation kind {kind!r}")


def q_translate_oracle_plus(f: Poly) -> TranslationResult:
    """Second route to f(x (+) y), via the conjugate exponential action."""
    return TranslationResult("plus", _exp_action_translate(f, bar=False))


# -- q-inversions ------------------------------------------------------------------


def _u_hat(f: Poly, inverse: bool, sector_index: int = 0) -> Poly:
    """The scaling operators U (inverse=False) and U^-1 (inverse=True).

    U   = sum_k (-lam)^k (x3)^{2k}/[[k]]_{q^-4}! q^{-2 n3(n+ + n- + k)} D^k_{q^-4,x+} D^k_{q^-4,x-}
    U^-1 mirrors with q -> 1/q in the explicit parameters.  The series
    terminates on polynomials: the double derivative eventually annihilates.
    """
    s = sector_index
    sign = 1 if inverse else -1  # sign of the exponent in the scaling factor
    base = 4 * sign
    total = Poly.zero(f.sectors, f.convention)
    k = 0
    while True:
        g = f
        for _ in range(k):
            g = g.jackson_d(s, 0, base)
        for _ in range(k):
            g = g.jackson_d(s, 2, base)
        if g.is_zero():
            if k > 0:
                break
            k += 1
            continue
        terms = {}
        for (triples, t), coeff in g.terms.items():
            a, b, c = triples[s]
            terms[(triples, t)] = coeff.shift(2 * sign * b * (a + c + k))
        scaled = Poly(f.sectors, terms, f.convention)
        lam_fac = (LAMBDA if inverse else -LAMBDA) ** k
        term = scaled.mul_slot_var(s, 1, 2 * k).scale(
            lam_fac / q_factorial(k, base)
        )
        total = total + term
        k += 1
    return total


def _substituted(coeff, triple, outer: int, mid: int):
    """The coefficient of x+^a x3^b x-^c under x+- -> -q^outer x+-,
    x3 -> -q^mid x3."""
    a, b, c = triple
    w = coeff.shift(outer * (a + c) + mid * b)
    return -w if (a + b + c) % 2 else w


def _inversion_series(f: Poly, sector_index: int = 0) -> Poly:
    """The composite scaling series S with  f(minus x) = U[S[f]]."""
    s = sector_index
    total = Poly.zero(f.sectors, f.convention)
    i = 0
    while True:
        # argument substitution (read by variable name): x- -> -q^(2-4i) x-,
        # x3 -> -q^(1-2i) x3, x+ -> -q^(2-4i) x+
        g = Poly(
            f.sectors,
            {
                key: _substituted(coeff, key[0][s], 2 - 4 * i, 1 - 2 * i)
                for key, coeff in f.terms.items()
            },
            f.convention,
        )
        for _ in range(2 * i):
            g = g.jackson_d(s, 1, -2)
        if g.is_zero() and i > 0:
            break
        out = Poly(
            f.sectors,
            {
                key: coeff.shift(-2 * a * (a + b) - 2 * c * (c + b) - b * b)
                for key, coeff in g.terms.items()
                for a, b, c in (key[0][s],)
            },
            f.convention,
        )
        coeff = ((-LAMBDA * LAMBDA_PLUS).shift(1)) ** i / q_double_factorial_even(
            i, -2
        )
        term = out.mul_slot_var(s, 0, i).mul_slot_var(s, 2, i).scale(coeff)
        total = total + term
        i += 1
        if 2 * i > max((tr[s][1] for tr, _ in f.terms), default=0):
            break
    return total


def q_invert(f: Poly, kind: str = "minus", sector_index: int = 0) -> Poly:
    """Realize f(minus x) (kind "minus") or f(minusbar x) (kind "minusbar").

    The unbarred inversion composes the printed scaling series with the
    operator U; the barred one is its image under (q -> 1/q, +/- swap).
    Both series terminate on polynomials.
    """
    if kind == "minus":
        return _u_hat(_inversion_series(f, sector_index), inverse=False, sector_index=sector_index)
    if kind == "minusbar":
        conv = f.convention
        flipped = f.subs_q_inverse_swap()
        out = q_invert(flipped, "minus", sector_index)
        return out.subs_q_inverse_swap().with_convention(conv)
    raise ValueError(f"unknown inversion kind {kind!r}")


def u_operator(f: Poly, inverse: bool = False, sector_index: int = 0) -> Poly:
    """The scaling operators U and U^-1 (exported for the mutual-inverse test)."""
    return _u_hat(f, inverse=inverse, sector_index=sector_index)


# -- Hopf-axiom realizations ---------------------------------------------------------


def _apply_to_sector(xy: Poly, sector_index: int, fn) -> Poly:
    """Map a per-monomial operator over one sector of a two-sector carrier."""
    i = sector_index
    out: dict = {}
    for (triples, t), coeff in xy.terms.items():
        single = Poly((xy.sectors[i],), {((triples[i],), 0): ONE}, xy.convention)
        for (mt, _), w in fn(single).terms.items():
            _add_term(out, (triples[:i] + mt + triples[i + 1 :], t), coeff * w)
    return Poly(xy.sectors, out, xy.convention)


def hopf_antipode_residuals(f: Poly, barred: bool = False) -> tuple[Poly, Poly]:
    """m (S (x) id) Delta f - f(0)  and  m (id (x) S) Delta f - f(0).

    Uses the matched pair of translation and inversion.  Each pair carries
    its own realization of the product m: the unbarred pair belongs to the
    hatted calculus and merges with the Wt star, the barred pair with the W
    star.  Both residuals must vanish identically on polynomials.
    """
    kind_t = "plusbar" if barred else "plus"
    kind_s = "minusbar" if barred else "minus"
    merge_conv = "W" if barred else "Wt"
    T = q_translate(f, kind_t).polynomial
    eps = f.set_slot_zero(0)  # the counit value f(0), still a Poly
    out = []
    for side in (0, 1):
        flipped = _apply_to_sector(
            T, side, lambda g: q_invert(g.rename_sectors((X_SECTOR,)), kind_s)
            .rename_sectors((T.sectors[side],))
        )
        merged = flipped.with_convention(merge_conv).merge_sectors_star(0, 1)
        merged = merged.rename_sectors((X_SECTOR,)).with_convention(
            f.convention
        )
        out.append(merged - eps)
    return out[0], out[1]


def counit_residuals(f: Poly, barred: bool = False) -> tuple[Poly, Poly]:
    """f(x (+) y)|_{y=0} - f  and  f(y (+) x)|_{y=0} - f."""
    kind = "plusbar" if barred else "plus"
    T = q_translate(f, kind)
    first = T.restrict_second_zero() - f
    second = T.restrict_first_zero() - f
    return first, second


# -- addition theorem and inverse exponentials -----------------------------------


def _substituted_exponential(order: int) -> Poly:
    """exp(x | exp(y|ip) * ip) as an (x, y, p) carrier.

    The momentum argument of the outer exponential is fed the composite
    exp(y|ip) * ip: each body term keeps its position monomial, and its
    momentum monomial is left star-multiplied by one copy of exp(y|ip).
    At x = 0 this reduces to exp(y|ip), as the normalization demands.
    """
    e = build_exponential("x_ip", order)
    Q = e.body.rename_sectors((Y_SECTOR, P_SECTOR))
    acc = Poly.zero((X_SECTOR, Y_SECTOR, P_SECTOR), "W")
    for (triples, t), coeff in e.body.terms.items():
        xm, pm = triples
        pmono = Poly.monomial((Y_SECTOR, P_SECTOR), ((0, 0, 0), pm), 0, ONE)
        qp = Q.star(pmono)
        lifted = qp.insert_sector(0, X_SECTOR)
        lifted = (
            lifted.mul_slot_var(0, 0, xm[0])
            .mul_slot_var(0, 1, xm[1])
            .mul_slot_var(0, 2, xm[2])
        )
        acc = acc + lifted.scale(coeff)
    return acc


def addition_theorem_residual(order: int) -> Poly:
    """exp(x (+bar) y | ip)  minus  exp(x | exp(y|ip) * ip); every term with
    x-degree + y-degree <= order - 1 must vanish."""
    sectors3 = (X_SECTOR, Y_SECTOR, P_SECTOR)
    e = build_exponential("x_ip", order)
    lhs_terms: dict = {}
    for (triples, t), coeff in e.body.terms.items():
        xm, pm = triples
        T = q_translate(
            Poly.monomial((X_SECTOR,), (xm,), 0, ONE), "plusbar"
        ).polynomial
        for (tr2, _), c2 in T.terms.items():
            _add_term(lhs_terms, ((tr2[0], tr2[1], pm), 0), coeff * c2)
    lhs = Poly(sectors3, lhs_terms, "W")
    diff = lhs - _substituted_exponential(order)
    return diff.filter_terms(
        lambda key: sum(key[0][0]) + sum(key[0][1]) <= order - 1
    )


def inverse_exponential_residual(order: int) -> Poly:
    """The composed exponential with inverted second argument collapses to 1.

    Takes exp(x | exp(y|ip) * ip), substitutes y -> (minusbar x), merges the
    two position copies with the star product (realizing the translation
    argument x (+bar) (minusbar x) = 0), and subtracts 1; every term of
    x-degree <= order - 1 must vanish.
    """
    acc = _substituted_exponential(order)
    inverted = _apply_to_sector(
        acc,
        1,
        lambda g: q_invert(g.rename_sectors((X_SECTOR,)), "minusbar")
        .rename_sectors((Y_SECTOR,)),
    )
    merged = inverted.merge_sectors_star(0, 1)
    out = merged - Poly.one((X_SECTOR, P_SECTOR), "W")
    return out.filter_terms(lambda key: sum(key[0][0]) <= order - 1)
