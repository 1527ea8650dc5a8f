"""Partial-derivative actions, inverse derivatives, and Jackson calculus.

Four families of derivative actions exist on the carriers:

* plain derivatives acting from the left (W ordering),
* hatted derivatives acting from the left through the bar action
  (Wt ordering),
* the two right actions, obtained from the left ones by conjugation:
  ``f <| d = -conj(d |> conj(f))`` with the index position flipped.

Each action side carries one family of its own (plain on the left and
right-bar sides, hatted on the bar and right sides); the other variant is a
scalar multiple of it, d^_A = q^6 d_A on spatial indices.

One definition serves every family.  On commutative monomials the plain
left action is

    d+  |> f = D_{q^4, x+} f
    d3  |> f = D_{q^2, x3} f(q^2 x+, x3, x-)
    d-  |> f = D_{q^4, x-} f(x+, q^2 x3, x-)  +  lam x+ D^2_{q^2, x3} f
    d0  |> f = df/dt

and the hatted bar action is its mirror image: the slots x+ and x- trade
places and so do the indices + and -, every Jackson base and dilation
exponent changes sign (q -> 1/q), and lam becomes -lam.  Momentum-space
derivatives (needed for position expectation values) are the same
operators on momentum carriers at the slot-mirrored index, times q^-2, 1,
q^+2 on p^-, p^3, p^+; these prefactors are fixed by the requirement that
the deformed exponentials be their eigenfunctions.

All operators are written against one operand interface, implemented by
both the symbolic :class:`~qeuclid.starcalc.Poly` and the lattice carrier
:class:`~qeuclid.lattice.StructuredFn`, so both layers share one definition
of every operator and never ask which carrier they hold: the ordering tag
``convention`` ("W" or "Wt", which each action side checks), ``sectors``
(whose ``kind`` selects a space or a momentum derivative), ``star`` in the
carrier's ordering, ``conjugate`` (keeping the tag), the unit coordinate
``coordinate(sector_index, slot)``, and the slot operations ``jackson_d``,
``jackson_d_inv``, ``scale_slot``, ``mul_slot_var``, ``d_dt``,
``t_integral``, ``scale_q``, ``is_zero``, ``+`` and ``-``.
"""

from __future__ import annotations

import math

from .qarith import KAPPA, QScalar, ZERO, ONE, LAMBDA, _Frozen
from .starcalc import INDEX_OF_SLOT, Metric


class DerivativeLabel(_Frozen):
    """index in {+, 3, -, 0}; variant plain|hat; side left |> , left_bar,
    right <| , right_bar; position upper|lower.  A value: equal and hashed
    by its four fields."""

    __slots__ = ("index", "variant", "side", "position")

    def __init__(self, index: str, variant: str = "plain", side: str = "left",
                 position: str = "lower"):
        if index not in ("+", "3", "-", "0"):
            raise ValueError(f"bad index {index!r}")
        if variant not in ("plain", "hat"):
            raise ValueError(f"bad variant {variant!r}")
        if side not in ("left", "left_bar", "right", "right_bar"):
            raise ValueError(f"bad side {side!r}")
        if position not in ("upper", "lower"):
            raise ValueError(f"bad position {position!r}")
        super().__init__(index, variant, side, position)


def d(index, variant="plain", side="left", position="lower") -> DerivativeLabel:
    return DerivativeLabel(index, variant, side, position)


class ConventionError(ValueError):
    pass


def _required_convention(side: str) -> str:
    # left and right_bar act in the W ordering, left_bar and right in Wt
    return "W" if side in ("left", "right_bar") else "Wt"


def _check_convention(f, side: str):
    if f.convention != _required_convention(side):
        raise ConventionError(
            f"operand tagged {f.convention}, but a {side} action needs "
            f"{_required_convention(side)}"
        )


# -- the core left representation and its inverse --------------------------------
#
# m = +1 is the plain action from the left, m = -1 the hatted bar action:
# the mirror image that swaps slots 0 and 2 and the indices + and -, flips
# the sign of every Jackson base and dilation exponent, and takes lam to
# -lam.  Both act at the lower index position of a position sector; the
# momentum sector reuses them at the slot-mirrored index.


def _mirror(index: str, m: int):
    """The index and the (low, high) end slots seen through the mirror m."""
    return (index, 0, 2) if m > 0 else (Metric.partner[index], 2, 0)


def _left_rep(index: str, f, s: int, m: int):
    index, lo, hi = _mirror(index, m)
    if index == "+":
        return f.jackson_d(s, lo, 4 * m)
    if index == "3":
        return f.scale_slot(s, lo, 2 * m).jackson_d(s, 1, 2 * m)
    if index == "-":
        main = f.scale_slot(s, 1, 2 * m).jackson_d(s, hi, 4 * m)
        corr = f.jackson_d(s, 1, 2 * m).jackson_d(s, 1, 2 * m).mul_slot_var(s, lo)
        return main + corr.scale_q(LAMBDA if m > 0 else -LAMBDA)
    if index == "0":
        return f.d_dt()
    raise AssertionError(index)


def _orbit(g, step):
    """g, step(g), step(step(g)), ... up to the first zero: the terms of a
    series whose term k is one step from term k - 1, each built once."""
    while not g.is_zero():
        yield g
        g = step(g)


def _left_rep_inverse(index: str, f, s: int, m: int):
    """F with _left_rep(index, F, s, m) = f.  For d-, the series
    F = sum_k q^(-2mk(k+1)) S_(-2m(k+1)) A^k D_hi^-1 f, A = -m lam x_lo
    D_hi^-1 D3^2 and S_e the dilation x3 -> q^e x3: each dilation is moved
    left of A^k by D_Q[g(mu x)] = mu (D_Q g)(mu x), so that term k is one A
    from term k - 1 (two x3 derivatives, not 2k) and the first zero ends it."""
    index, lo, hi = _mirror(index, m)
    if index == "+":
        return f.jackson_d_inv(s, lo, 4 * m)
    if index == "3":
        return f.scale_slot(s, lo, -2 * m).jackson_d_inv(s, 1, 2 * m)
    if index == "-":
        neg_lam = -LAMBDA if m > 0 else LAMBDA
        terms = [
            g.scale_slot(s, 1, -2 * m * (k + 1)).scale_q(QScalar.q(-2 * m * k * (k + 1)))
            for k, g in enumerate(_orbit(
                f.jackson_d_inv(s, hi, 4 * m),
                lambda g: g.jackson_d(s, 1, 2 * m).jackson_d(s, 1, 2 * m)
                .jackson_d_inv(s, hi, 4 * m).mul_slot_var(s, lo).scale_q(neg_lam),
            ))
        ]
        return sum(terms[1:], terms[0]) if terms else f.scale_q(ZERO)
    if index == "0":
        return f.t_integral()
    raise AssertionError(index)


#: momentum prefactors by upper index, forced by the eigenvalue equations of
#: the deformed exponentials: i d_p^A acts on each family as star
#: multiplication by x^A, which the qexp suite's case "momentum derivatives:
#: exponentials are eigenfunctions" checks for all six families
_P_PREFACTOR = {"-": QScalar.q(-2), "3": ONE, "+": QScalar.q(2), "0": ONE}


def _variant_scale(label: DerivativeLabel) -> QScalar:
    """The factor between the label's variant and its side's own family:
    q^6 for a hatted label on a plain side, q^-6 for a plain label on a
    hatted side, 1 otherwise and for d0."""
    own = "plain" if _required_convention(label.side) == "W" else "hat"
    if label.index == "0" or label.variant == own:
        return ONE
    return KAPPA if label.variant == "hat" else KAPPA ** -1


def _mirror_label(label: DerivativeLabel) -> DerivativeLabel:
    """The left label a right action is transported from by conjugation:
    right_bar from the plain left action, right from the hatted bar action,
    each at the flipped index position."""
    side = "left" if label.side == "right_bar" else "left_bar"
    variant = "plain" if side == "left" else "hat"
    return DerivativeLabel(label.index, variant, side, _flip(label.position))


def _scaled(f, *factors: QScalar):
    """f scaled once by the product of the factors, or f itself when that is 1."""
    c = math.prod(factors, start=ONE)
    return f if c.is_one() else f.scale_q(c)


def _flip(position: str) -> str:
    return "upper" if position == "lower" else "lower"


def _resolve_index(label: DerivativeLabel, kind: str):
    """Return (label at the sector's natural index position, metric factor).

    A derivative carries its index at the other position than the variable
    it differentiates by: d_A = d/dx^A, d_p^A = d/dp_A."""
    if label.index == "0" or label.position != Metric.native[kind]:
        return label, ONE
    partner, g = Metric.lower(label.index)  # g_AB = g^AB, so one map serves
    return DerivativeLabel(partner, label.variant, label.side, _flip(label.position)), g


def apply_derivative(label: DerivativeLabel, f, sector_index: int = 0):
    """Act with a labelled partial derivative on a carrier.

    ``f`` may be a symbolic Poly (any number of sectors) or a lattice
    carrier implementing the operand interface.  ``sector_index`` selects
    the sector acted on; its kind decides whether this is a space or a
    momentum derivative.
    """
    kind = f.sectors[sector_index].kind
    _check_convention(f, label.side)
    if label.side in ("right", "right_bar"):
        # the mirror label's side needs the same ordering as the right side,
        # and conjugation keeps the tag
        mirror, s = right_transport(label, kind)
        acted = apply_derivative(mirror, f.conjugate(), sector_index)
        return _scaled(-acted.conjugate(), s)
    lab, g = _resolve_index(label, kind)
    m = 1 if lab.side == "left" else -1
    if kind == "x":
        out = _left_rep(lab.index, f, sector_index, m)
        pref = ONE
    else:
        out = _left_rep(Metric.partner[lab.index], f, sector_index, m)
        pref = _P_PREFACTOR[lab.index]
    return _scaled(out, pref, _variant_scale(lab), g)


def right_transport(label: DerivativeLabel, kind: str) -> tuple[DerivativeLabel, QScalar]:
    """The left label d' and the scale s of a right action on a sector of
    ``kind``: f <| d = -s conj(d' |> conj(f)), s the metric factor of the
    label's index times its variant scale, a real number at real q."""
    lab, g = _resolve_index(label, kind)
    return _mirror_label(lab), g * _variant_scale(lab)


def inverse_partial(label: DerivativeLabel, f, sector_index: int = 0):
    """Solve  apply_derivative(label, F) = f  for F (no integration constant).

    Defined for position-sector actions.  The d- family (d+ for the hatted
    bar action) is a series of nested antiderivatives, each term one step
    from the last (:func:`_left_rep_inverse`); it terminates on polynomials
    because each step lowers the x3 degree by two.
    """
    kind = f.sectors[sector_index].kind
    if kind != "x":
        raise ValueError("inverse_partial is defined on position sectors")
    _check_convention(f, label.side)
    lab, g = _resolve_index(label, kind)
    if lab.side in ("left", "left_bar"):
        out = _left_rep_inverse(lab.index, f, sector_index, 1 if lab.side == "left" else -1)
    else:
        out = inverse_partial(_mirror_label(lab), -f.conjugate(), sector_index).conjugate()
    # (g dB)^-1 = g^-1 dB^-1 with g a metric monomial; likewise the variant
    return _scaled(out, _variant_scale(lab) ** -1, g ** -1)


# -- integration adjoints (the right representations of integration by parts) ----
#
# The star-product Leibniz rule of the left actions,
#
#   d_A |> (f * g) = (d_A |> f) * g + sum_C (O_A^C |> f) * (d_C |> g),
#
# defines the braiding operators O_A^C (triangular, with pure scaling
# operators on the diagonal).  Together with Stokes' theorem it yields the
# rules for integration by parts; solving the triangular system gives the
# right representation paired with the left action under the integral:
#
#   Int f * (d_A |> g) = Int (f <|. d_A) * g.
#
# The hatted family mirrors this against the Wt star.  These adjoint
# representations are distinct operators from the conjugation-transported
# right actions; both are carried, each where its defining identities live.

#: inverse diagonal scaling exponents (q-power per slot) of O_A^A and the
#: correction rows of the triangular solve, in dependency order, for the
#: plain family; the hatted family reads them through the mirror
_ADJ_DIAG_INV = {"+": (-4, -2, 0), "3": (-2, -2, -2), "-": (0, -2, -4)}
_ADJ_ROWS = {"+": (), "3": ("+",), "-": ("+", "3")}


def braiding_operator(index: str, col: str, f, variant: str = "plain", sector_index: int = 0):
    """O_A^C |> f extracted from its defining Leibniz difference."""
    side = "left" if variant == "plain" else "left_bar"
    lab = DerivativeLabel(index, variant, side, "lower")
    xc = f.coordinate(sector_index, INDEX_OF_SLOT["x"].index(col))
    first = apply_derivative(lab, f.star(xc), sector_index)
    second = apply_derivative(lab, f, sector_index).star(xc)
    return first - second


def integration_adjoint(index: str, f, variant: str = "plain", position: str = "lower", sector_index: int = 0):
    """The right representation f <|. d^A_(lower/upper) defined by
    integration by parts against the matching left action and star."""
    if index == "0":
        return -f.d_dt()
    side = "left" if variant == "plain" else "left_bar"
    lab, g = _resolve_index(
        DerivativeLabel(index, variant, side, position), f.sectors[sector_index].kind
    )
    m = 1 if variant == "plain" else -1
    plain = _mirror(lab.index, m)[0]
    u = f
    for slot, e in enumerate(_ADJ_DIAG_INV[plain][::m]):
        if e:
            u = u.scale_slot(sector_index, slot, m * e)
    out = -apply_derivative(lab, u, sector_index)
    for col in (_mirror(c, m)[0] for c in _ADJ_ROWS[plain]):
        corr = braiding_operator(lab.index, col, u, variant, sector_index)
        out = out - integration_adjoint(col, corr, variant, "lower", sector_index)
    return _scaled(out, g)
