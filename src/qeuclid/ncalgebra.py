"""Noncommutative words, PBW normal ordering, and the Weyl isomorphism.

This module is the brute-force oracle for the star product: multiply words
by concatenation, rewrite to the normal-ordered basis with the defining
commutation relations

    X3 X+ = q^2 X+ X3
    X3 X- = q^-2 X- X3
    X- X+ = X+ X- + lam X3 X3
    X0 central,

and pull back along the basis bijection with commutative monomials.  Both
orderings are supported: *W* sorts X+ <= X3 <= X- <= X0, *Wt* sorts
X0 <= X- <= X3 <= X+.

The momentum algebra (p-, p3, p+) satisfies relations of exactly this shape
under the slot identification used by :mod:`qeuclid.starcalc`, so the same
engine serves as the oracle for both sectors.
"""

from __future__ import annotations

from .qarith import QScalar, ONE, LAMBDA
from .starcalc import Poly, Sector, _add_term

XP, X3, XM, X0 = "X+", "X3", "X-", "X0"
LETTERS = (XP, X3, XM, X0)

_RANK = {
    "W": {XP: 0, X3: 1, XM: 2, X0: 3},
    "Wt": {X0: 0, XM: 1, X3: 2, XP: 3},
}

Word = tuple[str, ...]


class NCPoly:
    """Linear combination of words over {X+, X3, X-, X0}; canonical sparse."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, QScalar] | None = None):
        clean = {}
        if terms:
            for w, c in terms.items():
                if not c.is_zero():
                    clean[tuple(w)] = c
        self.terms = clean

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly()

    @staticmethod
    def one() -> "NCPoly":
        return NCPoly({(): ONE})

    @staticmethod
    def word(*letters: str, coeff: QScalar = ONE) -> "NCPoly":
        return NCPoly({tuple(letters): coeff})

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, c)
        return NCPoly(out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + other.scale(-ONE)

    def scale(self, coeff: QScalar) -> "NCPoly":
        return NCPoly({w: c * coeff for w, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        parts = [
            f"({c})*{'.'.join(w) if w else '1'}"
            for w, c in sorted(self.terms.items())
        ]
        return "NCPoly(" + " + ".join(parts) + ")"

    def total_degrees(self) -> set[int]:
        return {len(w) for w in self.terms}

    def to_json(self) -> dict:
        return {
            "terms": [
                {"letters": list(w), "coeff": c.to_json()}
                for w, c in sorted(self.terms.items())
            ]
        }

    @staticmethod
    def from_json(data: dict) -> "NCPoly":
        return NCPoly(
            {
                tuple(item["letters"]): QScalar.from_json(item["coeff"])
                for item in data["terms"]
            }
        )


def nc_multiply(a: NCPoly, b: NCPoly) -> NCPoly:
    """Concatenation product, bilinear; result not normal-ordered."""
    out: dict[Word, QScalar] = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            _add_term(out, w1 + w2, c1 * c2)
    return NCPoly(out)


def _swap_pair(u: str, v: str, convention: str):
    """Rewrite the out-of-order pair u v as a combination of v u (and the
    lam correction when the pair is (X-, X+) or (X+, X-)).

    Coefficients are carried as (q-shift, lam-power, sign-flip) so the
    rewriting loop stays in integer arithmetic.
    """
    if X0 in (u, v):
        return (((v, u), 0, 0, False),)
    pair = (u, v)
    if convention == "W":
        if pair == (X3, XP):
            return (((XP, X3), 2, 0, False),)
        if pair == (XM, X3):
            return (((X3, XM), 2, 0, False),)
        if pair == (XM, XP):
            return (((XP, XM), 0, 0, False), ((X3, X3), 0, 1, False))
    else:
        if pair == (XP, X3):
            return (((X3, XP), -2, 0, False),)
        if pair == (X3, XM):
            return (((XM, X3), -2, 0, False),)
        if pair == (XP, XM):
            return (((XM, XP), 0, 0, False), ((X3, X3), 0, 1, True))
    raise AssertionError(f"pair {pair} is not out of order in {convention}")


_LAM_POWS = [ONE, LAMBDA]


def _lam_power(m: int) -> QScalar:
    while len(_LAM_POWS) <= m:
        _LAM_POWS.append(_LAM_POWS[-1] * LAMBDA)
    return _LAM_POWS[m]


def _first_inversion(word: Word, rank: dict[str, int]) -> int:
    for i in range(len(word) - 1):
        if rank[word[i]] > rank[word[i + 1]]:
            return i
    return -1


def _last_inversion(word: Word, rank: dict[str, int]) -> int:
    for i in range(len(word) - 2, -1, -1):
        if rank[word[i]] > rank[word[i + 1]]:
            return i
    return -1


def normal_order(f: NCPoly, convention: str = "W", strategy: str = "leftmost") -> NCPoly:
    """Rewrite every word into the sorted PBW basis of the convention.

    The relations are homogeneous quadratic, so each rewrite strictly lowers
    the number of inversions and the procedure terminates with the unique
    normal form.  ``strategy`` picks which redex is reduced first; the result
    is independent of it (tested), which is the confluence property.
    """
    if convention not in _RANK:
        raise ValueError(f"unknown convention {convention!r}")
    rank = _RANK[convention]
    find = _first_inversion if strategy == "leftmost" else _last_inversion
    out: dict[Word, QScalar] = {}
    stack: list[tuple[Word, QScalar, int, int, bool]] = [
        (w, c, 0, 0, False) for w, c in f.terms.items()
    ]
    while stack:
        word, base, shift, lam, neg = stack.pop()
        i = find(word, rank)
        if i < 0:
            coeff = base.shift(shift)
            if lam:
                coeff = coeff * _lam_power(lam)
            if neg:
                coeff = -coeff
            _add_term(out, word, coeff)
            continue
        for repl, dshift, dlam, flip in _swap_pair(
            word[i], word[i + 1], convention
        ):
            stack.append(
                (
                    word[:i] + repl + word[i + 2 :],
                    base,
                    shift + dshift,
                    lam + dlam,
                    neg ^ flip,
                )
            )
    return NCPoly(out)


def is_normal_ordered(word: Word, convention: str) -> bool:
    rank = _RANK[convention]
    return all(rank[word[i]] <= rank[word[i + 1]] for i in range(len(word) - 1))


# -- Weyl map -------------------------------------------------------------------

#: the letter carried by each slot of a sector, in slot order.  Momentum
#: slots map onto the same engine because (p-, p3, p+) satisfies the same
#: relations as (X+, X3, X-).
_SLOT_LETTER = (XP, X3, XM)


def _word_from_mono(triple, t_exp: int, convention: str) -> Word:
    a, b, c = triple
    if convention == "W":
        return (XP,) * a + (X3,) * b + (XM,) * c + (X0,) * t_exp
    return (X0,) * t_exp + (XM,) * c + (X3,) * b + (XP,) * a


def _mono_from_word(word: Word, convention: str):
    if not is_normal_ordered(word, convention):
        raise ValueError("word is not normal-ordered in the stated convention")
    a = sum(1 for x in word if x == XP)
    b = sum(1 for x in word if x == X3)
    c = sum(1 for x in word if x == XM)
    t = sum(1 for x in word if x == X0)
    return (a, b, c), t


def weyl_map(f: Poly, convention: str | None = None) -> NCPoly:
    """Monomial-by-monomial lift of a single-sector Poly into the word algebra."""
    if len(f.sectors) != 1:
        raise ValueError("weyl_map takes a single-sector polynomial")
    conv = convention or f.convention
    return NCPoly(
        {
            _word_from_mono(triples[0], t, conv): coeff
            for (triples, t), coeff in f.terms.items()
        }
    )


def weyl_unmap(F: NCPoly, sector: Sector, convention: str = "W") -> Poly:
    """Inverse of weyl_map on normal-ordered input; rejects unsorted words."""
    terms = {}
    for w, coeff in F.terms.items():
        mono, t = _mono_from_word(w, convention)
        terms[((mono,), t)] = coeff
    return Poly((sector,), terms, convention)


def star_via_weyl(f: Poly, g: Poly) -> Poly:
    """The oracle route: lift, multiply, normal-order, pull back."""
    if f.sectors != g.sectors or len(f.sectors) != 1:
        raise ValueError("oracle route needs matching single-sector operands")
    conv = f.convention
    F = weyl_map(f)
    G = weyl_map(g)
    H = normal_order(nc_multiply(F, G), conv)
    return weyl_unmap(H, f.sectors[0], conv)
