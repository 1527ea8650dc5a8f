"""Deformed exponentials, q-translations, and q-inversions.

The exponentials are the joint eigenfunctions of the partial derivatives;
truncated at total degree N they satisfy their eigenvalue equations exactly
below the truncation shell.  Six variants are carried:

* ``x_ip``       exp(x | i p)          left eigenfunction, plain family (W)
* ``ipinv_x``    exp(1/i p | x)        right eigenfunction, plain family (W),
                 realized as conj exp(x | i p)
* ``bar_x_ip``   the mirror image of x_ip (Wt)
* ``bar_ipinv_x``                  ... of ipinv_x (Wt)
* ``star_x_ipinv``  twisted exponential, realized as bar_x_ip with the
                    momentum rescaled p -> q^6 p
* ``star_ip_x``                    ... as bar_ipinv_x with p -> q^6 p

Translations realize the braided coproducts on commutative carriers; the
unbarred one has a printed closed formula (quadruple sum), cross-checked
against the exponential-of-derivatives route.  Inversions realize the
braided antipodes via the scaling-operator series.  Each barred
exponential, translation and inversion is the mirror image (q -> 1/q, +/-
swapped, W <-> Wt; ``Poly.subs_q_inverse_swap``) of its unbarred partner,
and U^-1 is the mirror image of U.  So only four things are written out:
exp(x | i p), the translation formula, U and the inversion series.
"""

from __future__ import annotations

from itertools import accumulate

from .qarith import (
    ONE,
    I,
    I_INV,
    LAMBDA,
    LAMBDA_PLUS,
    VARIANTS,  # re-exported: the names build_exponential accepts
    q_factorial,
    q_double_factorial_even,
    _Frozen,
)
from .starcalc import (
    Poly,
    Sector,
    X_SECTOR,
    P_SECTOR,
    _add_term,
    coord,
    to_phase_space,
)
from .qcalculus import DerivativeLabel, _orbit, apply_derivative, d

Y_SECTOR = Sector("x", "y")


class QExponential(_Frozen):
    """The exponential ``variant`` truncated at total degree ``order``."""

    __slots__ = ("variant", "order", "body")  # body: the (x, p) phase-space carrier


#: the sectors of a phase-space carrier
XP_SECTORS = (X_SECTOR, P_SECTOR)


def _degree_triples(n_max: int):
    for total in range(n_max + 1):
        for np_ in range(total + 1):
            for n3 in range(total - np_ + 1):
                yield np_, n3, total - np_ - n3


def _body_x_ip(order: int) -> Poly:
    """exp(x | i p) written on the canonical basis."""
    terms = {}
    for np_, n3, nm in _degree_triples(order):
        denom = q_factorial(np_, 4) * q_factorial(n3, 2) * q_factorial(nm, 4)
        coeff = (I ** (np_ + n3 + nm)) / denom
        key = (((np_, n3, nm), (nm, n3, np_)), 0)
        terms[key] = coeff
    return Poly(XP_SECTORS, terms, "W")


def _rescale_momentum(body: Poly, power_of_q: int) -> Poly:
    return body.scale_slot(1, 0, power_of_q).scale_slot(1, 1, power_of_q).scale_slot(
        1, 2, power_of_q
    )


def _plain_body(variant: str, order: int) -> Poly:
    """x_ip as printed, or ipinv_x as its conjugate: conj exp(x|ip) = exp(1/i p|x)."""
    body = _body_x_ip(order)
    return body if variant == "x_ip" else body.conjugate()


class Family(_Frozen):
    """One exponential family: ``mirror`` is (plain family, k) for the mirror
    image (q -> 1/q, +/- swapped) of a plain family with momenta p -> q^k p,
    None for the two plain ones; the eigen ``rule`` is (derivative variant,
    action side, star side "r" or "l" of the eigenvalue); ``partner`` is the
    conjugate partner."""

    __slots__ = ("mirror", "rule", "partner")


#: the six families, in the order of ``VARIANTS``
FAMILIES = {
    "x_ip": Family(None, ("plain", "left", "r"), "ipinv_x"),
    "ipinv_x": Family(None, ("plain", "right_bar", "l"), "x_ip"),
    "bar_x_ip": Family(("x_ip", 0), ("hat", "left_bar", "r"), "bar_ipinv_x"),
    "bar_ipinv_x": Family(("ipinv_x", 0), ("hat", "right", "l"), "bar_x_ip"),
    "star_ip_x": Family(("ipinv_x", 6), ("plain", "right", "l"), "star_x_ipinv"),
    "star_x_ipinv": Family(("x_ip", 6), ("plain", "left_bar", "r"), "star_ip_x"),
}

#: each conjugate pair once, as (family, its partner later in ``FAMILIES``)
CONJUGATE_PAIRS = tuple((v, f.partner) for i, (v, f) in enumerate(FAMILIES.items())
                        if f.partner in list(FAMILIES)[i + 1 :])


def build_exponential(variant: str, order: int) -> QExponential:
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    if variant not in FAMILIES:
        raise ValueError(f"unknown exponential variant {variant!r}")
    mirror = FAMILIES[variant].mirror
    if mirror is None:
        return QExponential(variant, order, _plain_body(variant, order))
    plain, power = mirror
    body = _plain_body(plain, order).subs_q_inverse_swap()
    if power:
        body = _rescale_momentum(body, power)
    return QExponential(variant, order, body)


def _star_on(body: Poly, factor: Poly, star_side: str) -> Poly:
    """body * factor for star side "r", factor * body for "l"."""
    return body.star(factor) if star_side == "r" else factor.star(body)


def _eigen_residual(body: Poly, variant: str, index: str, position: str,
                    sector: int = 0) -> Poly:
    """One eigen equation of the variant's family on ``body`` at either index
    position of A, below the shell (the body's top degree in the acted sector).

    On the position sector (0): (1/i) d_A acting on the family's side minus
    p_A star-multiplied on its star side.  On the momentum sector (1):
    i d_p^A acting on the conjugate partner's side minus x^A on that
    partner's star side.  The derivative lowers the acted sector's degree
    and the star keeps it, so only the body terms below the shell are
    star-multiplied and every term returned must vanish.  ``body`` is the
    exponential or any product of it with a central factor."""
    family = FAMILIES[variant]
    dvariant, side, star_side = (family if sector == 0 else FAMILIES[family.partner]).rule
    scale, kind = (I_INV, "p") if sector == 0 else (I, "x")
    label = DerivativeLabel(index, dvariant, side, position)
    acted = apply_derivative(label, body, sector).scale(scale)
    value = to_phase_space(coord(kind, index, position, body.convention), kind)
    shell = max((sum(triples[sector]) for triples, _ in body.terms), default=0)
    return acted - _star_on(below_shell(body, shell, sector), value, star_side)


def eigen_residual(exp: QExponential, index: str, sector: int = 0) -> Poly:
    """The terms of one eigenvalue equation below the truncation shell, all
    of which must vanish.  On the position sector, for left eigenfunctions,
    (1/i) d^A |> e - e * p^A, the other families mirroring the action side
    and the star side; on the momentum sector, i d_p^A acting with the
    conjugate partner's rule minus x^A on that partner's star side."""
    return _eigen_residual(exp.body, exp.variant, index, "upper", sector)


def below_shell(poly: Poly, order: int, sector_index: int = 0) -> Poly:
    """Terms with sector degree <= order - 1 (the part that must vanish)."""
    return poly.filter_terms(
        lambda key: sum(key[0][sector_index]) <= order - 1
    )


def normalization_residuals(exp: QExponential) -> tuple[Poly, Poly]:
    """Body at x = 0 minus 1, and body at p = 0 minus 1."""
    one = Poly.one(XP_SECTORS, exp.body.convention)
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


class TranslationResult(_Frozen):
    """f(x (+) y) for the translation ``kind`` ("plus" or "plusbar"), as a
    polynomial on the sectors (x, y)."""

    __slots__ = ("kind", "polynomial")


def _as_xy(f: Poly) -> Poly:
    if len(f.sectors) != 1 or f.sectors[0].kind != "x":
        raise ValueError("q_translate acts on single position-sector carriers")
    return f.rename_sectors((Y_SECTOR,)).insert_sector(0, X_SECTOR)


def _chain(g: Poly, slot: int, base_exp: int, n: int) -> list[Poly]:
    """[g, D g, ..., D^n g] for the Jackson derivative D on one y slot."""
    return list(accumulate(range(n), lambda h, _: h.jackson_d(1, slot, base_exp),
                           initial=g))


def _translate_plus_formula(f: Poly) -> Poly:
    """The printed quadruple-sum realization of f(x (+) y); its y-side
    derivatives act on distinct slots and commute, so each is one step of a chain."""
    fxy = _as_xy(f)
    deg3 = max((tr[0][1] for tr, _ in f.terms), default=0)
    degm = max((tr[0][2] for tr, _ in f.terms), default=0)
    degp = max((tr[0][0] for tr, _ in f.terms), default=0)
    total = Poly.zero((X_SECTOR, Y_SECTOR), f.convention)
    for i_p, gp in enumerate(_chain(fxy, 0, -4, degp)):
        for i_m, gm in enumerate(_chain(gp, 2, -4, degm)):
            d3 = _chain(gm, 1, -2, deg3)
            for i_3 in range(deg3 + 1):
                for k in range(0, min(i_3, deg3 - i_3) + 1):
                    g = d3[i_3 + k]
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
    return total


def q_translate(f: Poly, kind: str = "plus") -> TranslationResult:
    """Realize f(x (+) y) (kind "plus") or f(x (+bar) y) (kind "plusbar").

    "plus" uses the printed closed formula; "plusbar" is its image under
    (q -> 1/q, +/- swap), as the barred inversion is of the unbarred one.
    """
    if kind == "plus":
        return TranslationResult(kind, _translate_plus_formula(f))
    if kind == "plusbar":
        flipped = _translate_plus_formula(f.subs_q_inverse_swap())
        return TranslationResult(kind, flipped.subs_q_inverse_swap())
    raise ValueError(f"unknown translation kind {kind!r}")


def q_translate_oracle_plus(f: Poly) -> TranslationResult:
    """Second route to f(x (+) y): the conjugate exponential exp(x | d_y)
    with hatted derivatives and the bar action, acting on f(y)."""
    order = max((sum(tr[0]) for tr, _ in f.terms), default=0)
    # relabel: the hatted formulas read only the commutative monomials
    work = f.rename_sectors((Y_SECTOR,)).with_convention("Wt")
    total = Poly.zero((X_SECTOR, Y_SECTOR), "Wt")
    for np_, n3, nm in _degree_triples(order):
        # The derivative word mirrors the momentum monomial of the
        # exponential, read leftmost-first against the hatted family's
        # printed word order; fixed by the printed translation formula.
        g = work
        for idx in ["-"] * nm + ["3"] * n3 + ["+"] * np_:
            g = apply_derivative(d(idx, "hat", "left_bar"), g)
        if g.is_zero():
            continue
        denom = q_factorial(np_, -4) * q_factorial(n3, -2) * q_factorial(nm, -4)
        g = g.scale(ONE / denom)
        g = g.insert_sector(0, X_SECTOR)
        g = g.mul_slot_var(0, 0, np_).mul_slot_var(0, 1, n3).mul_slot_var(0, 2, nm)
        total = total + g
    # relabel back: a translation of commutative monomials keeps f's tag
    return TranslationResult("plus", total.with_convention(f.convention))


# -- q-inversions ------------------------------------------------------------------


def u_operator(f: Poly) -> Poly:
    """The scaling operator U, acting on sector 0 of ``f``.

    U = sum_k (-lam)^k (x3)^{2k}/[[k]]_{q^-4}! q^{-2 n3(n+ + n- + k)} D^k_{q^-4,x+} D^k_{q^-4,x-}
    with n the exponents after the derivatives, which commute: term k is one
    step D_x+ D_x- from term k - 1, two derivatives, not 2k.  The series
    terminates on polynomials, where the double derivative eventually
    annihilates.  U^-1 is its mirror image,
    ``u_operator(f.subs_q_inverse_swap()).subs_q_inverse_swap()``.
    """
    total = Poly.zero(f.sectors, f.convention)
    for k, g in enumerate(_orbit(f, lambda g: g.jackson_d(0, 0, -4).jackson_d(0, 2, -4))):
        scaled = Poly(
            f.sectors,
            {
                key: coeff.shift(-2 * b * (a + c + k))
                for key, coeff in g.terms.items()
                for a, b, c in (key[0][0],)
            },
            f.convention,
        )
        coeff = (-LAMBDA) ** k / q_factorial(k, -4)
        total = total + scaled.mul_slot_var(0, 1, 2 * k).scale(coeff)
    return total


def _substituted(coeff, triple, outer: int, mid: int):
    """The coefficient of x+^a x3^b x-^c under x+- -> -q^outer x+-,
    x3 -> -q^mid x3."""
    a, b, c = triple
    w = coeff.shift(outer * (a + c) + mid * b)
    return -w if (a + b + c) % 2 else w


def _inversion_series(f: Poly) -> Poly:
    """The composite scaling series S with  f(minus x) = U[S[f]].  Term i
    takes D3^(2i) of f after x+- -> -q^(2-4i) x+-, x3 -> -q^(1-2i) x3; by
    D_Q[g(mu x)] = mu (D_Q g)(mu x) it substitutes into D3^(2i) f instead,
    times q^(2i(1-2i)), so D3^(2i) f is one step D3^2 from term i - 1."""
    total = Poly.zero(f.sectors, f.convention)
    for i, h in enumerate(_orbit(f, lambda h: h.jackson_d(0, 1, -2).jackson_d(0, 1, -2))):
        out = Poly(
            f.sectors,
            {
                key: _substituted(coeff, (a, b, c), 2 - 4 * i, 1 - 2 * i).shift(
                    2 * i * (1 - 2 * i) - 2 * a * (a + b) - 2 * c * (c + b) - b * b
                )
                for key, coeff in h.terms.items()
                for a, b, c in (key[0][0],)
            },
            f.convention,
        )
        coeff = ((-LAMBDA * LAMBDA_PLUS).shift(1)) ** i / q_double_factorial_even(i, -2)
        total = total + out.mul_slot_var(0, 0, i).mul_slot_var(0, 2, i).scale(coeff)
    return total


def q_invert(f: Poly, kind: str = "minus") -> Poly:
    """Realize f(minus x) (kind "minus") or f(minusbar x) (kind "minusbar").

    The unbarred inversion composes the printed scaling series with the
    operator U; the barred one is its image under (q -> 1/q, +/- swap).
    Both series terminate on polynomials and act on sector 0 of ``f``.
    """
    if kind == "minus":
        return u_operator(_inversion_series(f))
    if kind == "minusbar":
        flipped = f.subs_q_inverse_swap()
        out = q_invert(flipped, "minus")
        return out.subs_q_inverse_swap()
    raise ValueError(f"unknown inversion kind {kind!r}")


# -- Hopf-axiom realizations ---------------------------------------------------------


def _apply_to_sector(xy: Poly, sector_index: int, fn) -> Poly:
    """Map a per-monomial operator over one sector of a two-sector carrier,
    once per distinct monomial: many terms share one (an exponential's
    position monomials recur under each momentum monomial)."""
    i = sector_index
    images: dict = {}
    out: dict = {}
    for (triples, t), coeff in xy.terms.items():
        image = images.get(triples[i])
        if image is None:
            single = Poly((xy.sectors[i],), {((triples[i],), 0): ONE}, xy.convention)
            image = images[triples[i]] = fn(single).terms.items()
        for (mt, _), w in image:
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
        flipped = _apply_to_sector(T, side, lambda g: q_invert(g, kind_s))
        # relabel: the matched pair fixes its product m, whatever f's tag
        merged = flipped.with_convention(merge_conv).merge_sectors_star(0, 1)
        # relabel back: m (S (x) id) Delta f = f(0), a constant in every ordering
        merged = merged.rename_sectors((X_SECTOR,)).with_convention(
            f.convention
        )
        out.append(merged - eps)
    return out[0], out[1]


def counit_residuals(f: Poly, barred: bool = False) -> tuple[Poly, Poly]:
    """f(x (+) y)|_{y=0} - f  and  f(y (+) x)|_{y=0} - f, each read on a
    single position sector again."""
    T = q_translate(f, "plusbar" if barred else "plus").polynomial
    first = T.set_slot_zero(1).drop_sector(1)
    second = T.set_slot_zero(0).drop_sector(0).rename_sectors((X_SECTOR,))
    return first - f, second - f


# -- addition theorem and inverse exponentials -----------------------------------

XYP_SECTORS = (X_SECTOR, Y_SECTOR, P_SECTOR)


def _substituted_exponential(order: int) -> Poly:
    """exp(x | exp(y|ip) * ip) as an (x, y, p) carrier, below the shell:
    only the terms of x-degree + y-degree <= order - 1.

    The momentum argument of the outer exponential is fed the composite
    exp(y|ip) * ip: each body term keeps its position monomial, and its
    momentum monomial is left star-multiplied by one copy of exp(y|ip).
    That star acts on the p sector alone and keeps y, so a body term of
    x-degree n needs only the terms of exp(y|ip) of y-degree <= order - 1 - n.
    At x = 0 this reduces to exp(y|ip), as the normalization demands.
    """
    body = below_shell(build_exponential("x_ip", order).body, order)
    Q = body.rename_sectors((Y_SECTOR, P_SECTOR))
    out: dict = {}
    for ((xm, pm), _), coeff in body.terms.items():
        pmono = Poly.monomial((Y_SECTOR, P_SECTOR), ((0, 0, 0), pm), 0, ONE)
        qp = below_shell(Q, order - sum(xm)).star(pmono)
        for ((ym, pm2), _), c2 in qp.terms.items():
            _add_term(out, ((xm, ym, pm2), 0), coeff * c2)
    return Poly(XYP_SECTORS, out, "W")


def addition_theorem_residual(order: int) -> Poly:
    """exp(x (+bar) y | ip)  minus  exp(x | exp(y|ip) * ip) below the shell,
    which must vanish.

    A translation keeps the degree: x (+bar) y maps a monomial of degree n
    to terms of x-degree + y-degree n, so only the body terms of x-degree
    <= order - 1 are translated, and both sides hold no term on or above
    the shell.
    """
    body = below_shell(build_exponential("x_ip", order).body, order)
    lhs: dict = {}
    for ((xm, pm), _), coeff in body.terms.items():
        T = q_translate(Poly.monomial((X_SECTOR,), (xm,), 0, ONE), "plusbar")
        for ((xt, yt), _), c2 in T.polynomial.terms.items():
            _add_term(lhs, ((xt, yt, pm), 0), coeff * c2)
    return Poly(XYP_SECTORS, lhs, "W") - _substituted_exponential(order)


def inverse_exponential_residual(order: int) -> Poly:
    """The composed exponential with inverted second argument collapses to 1.

    Takes exp(x | exp(y|ip) * ip) below the shell, substitutes y -> (minusbar
    x), merges the two position copies with the star product (realizing the
    translation argument x (+bar) (minusbar x) = 0), and subtracts 1; every
    term of x-degree <= order - 1 must vanish.  The inversion keeps the
    y-degree and the star merge adds the x- and y-degrees, so the merge sees
    only terms below the shell and makes none above it.
    """
    inverted = _apply_to_sector(
        _substituted_exponential(order), 1, lambda g: q_invert(g, "minusbar")
    )
    merged = inverted.merge_sectors_star(0, 1)
    return merged - below_shell(Poly.one((X_SECTOR, P_SECTOR), "W"), order)
