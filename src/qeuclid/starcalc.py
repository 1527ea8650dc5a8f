"""Star-product algebra on commutative carriers.

Elements live in tensor products of coordinate sectors.  A *sector* is one
copy of the (deformed) three-space; its three variables are kept in a fixed
slot order

* position sector:  (x+, x3, x-)
* momentum sector:  (p-, p3, p+)

plus a single central time variable ``t`` shared by the whole element.  In
both sectors the noncommutative product pulls back to the same monomial
formula on slots (first, mid, last):

    (a1,b1,c1) * (a2,b2,c2) =
        sum_k  lam^k / [[k]]_{q^4}! * FF(c1,k) * FF(a2,k)
               * q^{2(b1(a2-k) + (c1-k)b2)}
               * (a1+a2-k, b1+b2+2k, c1+c2-k)

with FF the falling q-factorial in base q^4.  Distinct sectors commute;
star products act sector-wise.

Two orderings are supported.  "W" is the ascending normal ordering; "Wt"
is the descending one, whose star product is the conjugate of the W star
under the substitution (q -> 1/q, first <-> last), implemented exactly
that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .qarith import (
    GRat,
    QScalar,
    ZERO,
    ONE,
    LAMBDA,
    q_number,
    q_factorial,
)

Triple = tuple[int, int, int]
Key = tuple[tuple[Triple, ...], int]


@dataclass(frozen=True)
class Sector:
    kind: str  # "x" or "p"
    name: str

    def __post_init__(self):
        if self.kind not in ("x", "p"):
            raise ValueError(f"unknown sector kind {self.kind!r}")


X_SECTOR = Sector("x", "x")
P_SECTOR = Sector("p", "p")

#: variable display names per sector kind, in slot order (first, mid, last)
SLOT_NAMES = {"x": ("x+", "x3", "x-"), "p": ("p-", "p3", "p+")}

#: index names in slot order for each sector kind.  For the position sector
#: slot 0 carries the "+" coordinate; for the momentum sector slot 0 carries
#: the lower "-" component.
INDEX_OF_SLOT = {"x": ("+", "3", "-"), "p": ("-", "3", "+")}


class SectorMismatch(ValueError):
    pass


def _metric_entry(a: str, b: str) -> QScalar:
    if a == "+" and b == "-":
        return -QScalar.q(1)
    if a == "-" and b == "+":
        return -QScalar.q(-1)
    if a == "3" and b == "3":
        return ONE
    return ZERO


class Metric:
    """The deformed Euclidean metric g_AB = g^AB, rows/columns in (+, 3, -).

    Nonzero entries: g_{+-} = -q, g_{33} = 1, g_{-+} = -1/q.  The matrix is
    its own inverse.
    """

    indices = ("+", "3", "-")

    @staticmethod
    def lower(a: str) -> tuple[str, QScalar]:
        """X_a = g_{ab} X^b: returns (b, g_{ab}) for the single nonzero b."""
        partner = {"+": "-", "3": "3", "-": "+"}[a]
        return partner, _metric_entry(a, partner)

    @staticmethod
    def raise_(a: str) -> tuple[str, QScalar]:
        # g^{ab} = g_{ab}
        return Metric.lower(a)

    @staticmethod
    def entry(a: str, b: str) -> QScalar:
        return _metric_entry(a, b)


from functools import lru_cache


def _falling(n: int, k: int, base: int) -> QScalar:
    out = ONE
    for j in range(k):
        out = out * q_number(n - j, base)
    return out


@lru_cache(maxsize=None)
def _star_coeff(c1: int, a2: int, k: int) -> QScalar:
    """lam^k FF(c1,k) FF(a2,k) / [[k]]_{q^4}!  (a Laurent polynomial; the
    falling factorials against [[k]]! form a binomial-type quotient)."""
    coeff = (_falling(c1, k, 4) * _falling(a2, k, 4)).exact_div(
        q_factorial(k, 4)
    )
    return coeff * LAMBDA**k


@lru_cache(maxsize=None)
def _star_mono_w(m1: Triple, m2: Triple) -> tuple[tuple[QScalar, Triple], ...]:
    """W-ordered star product of two slot monomials."""
    a1, b1, c1 = m1
    a2, b2, c2 = m2
    out = []
    for k in range(min(c1, a2) + 1):
        coeff = _star_coeff(c1, a2, k).shift(
            2 * (b1 * (a2 - k) + (c1 - k) * b2)
        )
        out.append((coeff, (a1 + a2 - k, b1 + b2 + 2 * k, c1 + c2 - k)))
    return tuple(out)


@lru_cache(maxsize=None)
def _star_mono_wt(m1: Triple, m2: Triple) -> tuple[tuple[QScalar, Triple], ...]:
    """Wt-ordered star: conjugate the W star by (q -> 1/q, first <-> last)."""
    f1 = (m1[2], m1[1], m1[0])
    f2 = (m2[2], m2[1], m2[0])
    return tuple(
        (coeff.subs_q_inverse(), (m[2], m[1], m[0]))
        for coeff, m in _star_mono_w(f1, f2)
    )


def _add_term(out: dict, key, coeff: QScalar) -> None:
    """Add ``coeff`` at ``key`` of a sparse sum.

    A key whose sum cancels is removed and a zero is never stored, so the
    surviving keys keep the order in which they first appeared.
    """
    old = out.get(key)
    if old is None:
        if not coeff.is_zero():
            out[key] = coeff
        return
    s = old + coeff
    if s.is_zero():
        del out[key]
    else:
        out[key] = s


def _bump(triples: tuple[Triple, ...], sector: int, slot: int, delta: int):
    """``triples`` with one slot exponent moved by ``delta``."""
    m = list(triples[sector])
    m[slot] += delta
    return triples[:sector] + (tuple(m),) + triples[sector + 1 :]


class Poly:
    """Sparse polynomial over a tuple of commuting sectors plus central t.

    ``terms`` maps ``((triple, ...), t_exp)`` to a QScalar coefficient.
    Instances are treated as immutable.
    """

    __slots__ = ("sectors", "convention", "terms")

    def __init__(
        self,
        sectors: tuple[Sector, ...],
        terms: dict[Key, QScalar] | None = None,
        convention: str = "W",
    ):
        if convention not in ("W", "Wt"):
            raise ValueError(f"unknown convention {convention!r}")
        self.sectors = tuple(sectors)
        self.convention = convention
        clean: dict[Key, QScalar] = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero():
                    clean[key] = coeff
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, sectors, convention="W"):
        return cls(tuple(sectors), {}, convention)

    @classmethod
    def scalar(cls, sectors, coeff: QScalar, convention="W"):
        n = len(tuple(sectors))
        key = (((0, 0, 0),) * n, 0)
        return cls(tuple(sectors), {key: coeff}, convention)

    @classmethod
    def one(cls, sectors, convention="W"):
        return cls.scalar(sectors, ONE, convention)

    @classmethod
    def monomial(cls, sectors, triples, t_exp=0, coeff=ONE, convention="W"):
        key = (tuple(tuple(tr) for tr in triples), t_exp)
        return cls(tuple(sectors), {key: coeff}, convention)

    @classmethod
    def variable(cls, sectors, sector_index: int, slot: int, convention="W"):
        sectors = tuple(sectors)
        triples = [[0, 0, 0] for _ in sectors]
        triples[sector_index][slot] = 1
        return cls.monomial(sectors, triples, 0, ONE, convention)

    def _check_compatible(self, other: "Poly"):
        if self.sectors != other.sectors:
            raise SectorMismatch(
                f"sector mismatch: {self.sectors} vs {other.sectors}"
            )
        if self.convention != other.convention:
            raise SectorMismatch(
                f"convention mismatch: {self.convention} vs {other.convention}"
            )

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            _add_term(out, key, coeff)
        return Poly(self.sectors, out, self.convention)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(
            self.sectors,
            {k: -c for k, c in self.terms.items()},
            self.convention,
        )

    def scale(self, coeff: QScalar) -> "Poly":
        if coeff.is_zero():
            return Poly.zero(self.sectors, self.convention)
        return Poly(
            self.sectors,
            {k: c * coeff for k, c in self.terms.items()},
            self.convention,
        )

    # operand-interface alias shared with the lattice carriers, whose
    # coefficients are numeric and scale by eval(q0) instead
    def scale_q(self, coeff: QScalar) -> "Poly":
        return self.scale(coeff)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.sectors == other.sectors
            and self.convention == other.convention
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("Poly is not hashable")

    # -- products ------------------------------------------------------------

    def mul_pointwise(self, other: "Poly") -> "Poly":
        """Plain commutative product (the q = 1 product; also how central
        scalars and t-polynomials multiply)."""
        self._check_compatible(other)
        out: dict[Key, QScalar] = {}
        for (tr1, t1), c1 in self.terms.items():
            for (tr2, t2), c2 in other.terms.items():
                tr = tuple(
                    (a1 + a2, b1 + b2, c1_ + c2_)
                    for (a1, b1, c1_), (a2, b2, c2_) in zip(tr1, tr2)
                )
                _add_term(out, (tr, t1 + t2), c1 * c2)
        return Poly(self.sectors, out, self.convention)

    def star(self, other: "Poly") -> "Poly":
        """Sector-wise star product; distinct sectors commute."""
        self._check_compatible(other)
        mono_star = _star_mono_w if self.convention == "W" else _star_mono_wt
        out: dict[Key, QScalar] = {}
        for (tr1, t1), c1 in self.terms.items():
            for (tr2, t2), c2 in other.terms.items():
                pieces: list[tuple[QScalar, list[Triple]]] = [(c1 * c2, [])]
                for m1, m2 in zip(tr1, tr2):
                    expansion = mono_star(m1, m2)
                    # nonzero pieces times nonzero weights: no product vanishes
                    pieces = [
                        (coeff * w, triples + [m])
                        for coeff, triples in pieces
                        for w, m in expansion
                    ]
                for coeff, triples in pieces:
                    _add_term(out, (tuple(triples), t1 + t2), coeff)
        return Poly(self.sectors, out, self.convention)

    # -- structure maps -------------------------------------------------------

    def conjugate(self) -> "Poly":
        """Quantum space conjugation, sector-wise; t and q stay fixed.

        On a position monomial: coefficient at (a,b,c) picks up (-q)^(c-a)
        and moves to the (c,b,a) slot; the momentum sector mirrors this with
        (-q)^(a-c).  Coefficients are complex-conjugated.
        """

        def image(triples, coeff):
            # (x+)^a .. (x-)^c  |->  (-q x-)^a .. (-x+/q)^c  and mirrored
            # with inverted q-powers in the momentum sector
            d = sum(
                (a - c) if sector.kind == "x" else (c - a)
                for sector, (a, _, c) in zip(self.sectors, triples)
            )
            factor = coeff.conjugate().shift(d)
            return -factor if d % 2 else factor

        return Poly(
            self.sectors,
            {
                (tuple((c, b, a) for a, b, c in triples), t): image(triples, coeff)
                for (triples, t), coeff in self.terms.items()
            },
            self.convention,
        )

    def subs_q_inverse_swap(self) -> "Poly":
        """The substitution (q -> 1/q, +/- swapped) on every sector.

        This is the involution carrying each identity of the plain calculus
        to the hatted one; it toggles the ordering convention tag.
        """
        return Poly(
            self.sectors,
            {
                (tuple((c, b, a) for a, b, c in triples), t): coeff.subs_q_inverse()
                for (triples, t), coeff in self.terms.items()
            },
            "Wt" if self.convention == "W" else "W",
        )

    def with_convention(self, convention: str) -> "Poly":
        """Retag without touching data (for carriers built directly in the
        target ordering)."""
        return Poly(self.sectors, dict(self.terms), convention)

    # -- calculus helpers -----------------------------------------------------

    def jackson_d(self, sector_index: int, slot: int, base_exp: int) -> "Poly":
        """Jackson derivative D_{q^base_exp} on one slot: x^n -> [[n]] x^(n-1)."""
        return Poly(
            self.sectors,
            {
                (_bump(triples, sector_index, slot, -1), t): coeff
                * q_number(triples[sector_index][slot], base_exp)
                for (triples, t), coeff in self.terms.items()
                if triples[sector_index][slot]
            },
            self.convention,
        )

    def jackson_d_inv(self, sector_index: int, slot: int, base_exp: int) -> "Poly":
        """Antiderivative of jackson_d with no constant term: x^n -> x^(n+1)/[[n+1]]."""
        return Poly(
            self.sectors,
            {
                (_bump(triples, sector_index, slot, 1), t): coeff
                / q_number(triples[sector_index][slot] + 1, base_exp)
                for (triples, t), coeff in self.terms.items()
            },
            self.convention,
        )

    def scale_slot(self, sector_index: int, slot: int, q_exp: int) -> "Poly":
        """Substitute var -> q^q_exp * var on one slot."""
        return Poly(
            self.sectors,
            {
                (triples, t): coeff.shift(q_exp * triples[sector_index][slot])
                for (triples, t), coeff in self.terms.items()
            },
            self.convention,
        )

    def mul_slot_var(self, sector_index: int, slot: int, power: int = 1) -> "Poly":
        """Commutative multiplication by a slot variable to some power."""
        return Poly(
            self.sectors,
            {
                (_bump(triples, sector_index, slot, power), t): coeff
                for (triples, t), coeff in self.terms.items()
            },
            self.convention,
        )

    def d_dt(self) -> "Poly":
        return Poly(
            self.sectors,
            {
                (triples, t - 1): coeff.scale(t)
                for (triples, t), coeff in self.terms.items()
                if t
            },
            self.convention,
        )

    def t_integral(self) -> "Poly":
        out = {}
        for (triples, t), coeff in self.terms.items():
            out[(triples, t + 1)] = coeff.scale(GRat(Fraction(1, t + 1)))
        return Poly(self.sectors, out, self.convention)

    def mul_t(self, power: int = 1) -> "Poly":
        return Poly(
            self.sectors,
            {(tr, t + power): c for (tr, t), c in self.terms.items()},
            self.convention,
        )

    def set_slot_zero(self, sector_index: int) -> "Poly":
        """Set all three variables of one sector to zero."""
        return self.filter_terms(lambda key: key[0][sector_index] == (0, 0, 0))

    def drop_sector(self, sector_index: int) -> "Poly":
        """Remove a sector whose exponents are all zero."""
        sectors = self.sectors[:sector_index] + self.sectors[sector_index + 1 :]
        out = {}
        for (triples, t), coeff in self.terms.items():
            if triples[sector_index] != (0, 0, 0):
                raise ValueError("cannot drop a live sector")
            key = (triples[:sector_index] + triples[sector_index + 1 :], t)
            out[key] = coeff
        return Poly(sectors, out, self.convention)

    def insert_sector(self, position: int, sector: Sector) -> "Poly":
        sectors = self.sectors[:position] + (sector,) + self.sectors[position:]
        out = {}
        for (triples, t), coeff in self.terms.items():
            key = (triples[:position] + ((0, 0, 0),) + triples[position:], t)
            out[key] = coeff
        return Poly(sectors, out, self.convention)

    def rename_sectors(self, sectors: Iterable[Sector]) -> "Poly":
        sectors = tuple(sectors)
        if len(sectors) != len(self.sectors):
            raise ValueError("sector count mismatch")
        for old, new in zip(self.sectors, sectors):
            if old.kind != new.kind:
                raise ValueError("sector kind mismatch in rename")
        return Poly(sectors, dict(self.terms), self.convention)

    def merge_sectors_star(self, i: int, j: int) -> "Poly":
        """m(a (x) b): star-multiply sector j's content into sector i
        (i's factor on the left), then drop sector j."""
        if self.sectors[i].kind != self.sectors[j].kind:
            raise SectorMismatch("cannot merge sectors of different kinds")
        single = (self.sectors[i],)
        out: dict[Key, QScalar] = {}
        for (triples, t), coeff in self.terms.items():
            left = Poly(single, {((triples[i],), 0): ONE}, self.convention)
            right = Poly(single, {((triples[j],), 0): ONE}, self.convention)
            prod = left.star(right)
            for ((m,), _), w in prod.terms.items():
                tr = list(triples)
                tr[i] = m
                del tr[j]
                _add_term(out, (tuple(tr), t), coeff * w)
        return Poly(self.sectors[:j] + self.sectors[j + 1 :], out, self.convention)

    # -- degrees and filters ----------------------------------------------------

    def filter_terms(self, predicate) -> "Poly":
        return Poly(
            self.sectors,
            {k: c for k, c in self.terms.items() if predicate(k)},
            self.convention,
        )

    # -- evaluation ---------------------------------------------------------------

    def eval_classical(self, q0: complex, values, t0: complex = 0.0) -> complex:
        """Evaluate treating all variables as commuting numbers.

        ``values`` is a sequence of per-sector triples of complex numbers in
        slot order.
        """
        total = 0j
        for (triples, t), coeff in self.terms.items():
            v = coeff.eval(q0)
            for (a, b, c), (va, vb, vc) in zip(triples, values):
                v *= va**a * vb**b * vc**c
            if t:
                v *= t0**t
            total += v
        return total

    # -- presentation ---------------------------------------------------------------

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (triples, t), coeff in sorted(self.terms.items()):
            factors = []
            for sector, (a, b, c) in zip(self.sectors, triples):
                names = SLOT_NAMES[sector.kind]
                tag = "" if sector.name == sector.kind else f"{sector.name}."
                for name, e in zip(names, (a, b, c)):
                    if e == 1:
                        factors.append(f"{tag}{name}")
                    elif e > 1:
                        factors.append(f"{tag}{name}^{e}")
            if t == 1:
                factors.append("t")
            elif t > 1:
                factors.append(f"t^{t}")
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({coeff})*{mono}")
        return " + ".join(parts)


# -- public CoordPoly / PhaseSpacePoly layer -------------------------------------


def coord_variable(name: str, convention: str = "W") -> Poly:
    """One of x+, x3, x-, t, p-, p3, p+ as a single-sector Poly."""
    if name == "t":
        return Poly(
            (X_SECTOR,), {(((0, 0, 0),), 1): ONE}, convention
        )
    for kind, sector in (("x", X_SECTOR), ("p", P_SECTOR)):
        names = SLOT_NAMES[kind]
        if name in names:
            slot = names.index(name)
            return Poly.variable((sector,), 0, slot, convention)
    raise ValueError(f"unknown coordinate {name!r}")


def coord_upper(sector_kind: str, index: str, convention: str = "W") -> Poly:
    """The coordinate with an upper index: x^A or p^A (p^A = g^{AB} p_B)."""
    names = SLOT_NAMES[sector_kind]
    idx = INDEX_OF_SLOT[sector_kind]
    if sector_kind == "x":
        # x^A is the native variable
        slot = idx.index(index)
        return coord_variable(names[slot], convention)
    partner, g = Metric.raise_(index)
    slot = idx.index(partner)
    return coord_variable(names[slot], convention).scale(g)


def coord_lower(sector_kind: str, index: str, convention: str = "W") -> Poly:
    """The coordinate with a lower index: x_A = g_{AB} x^B, or native p_A."""
    names = SLOT_NAMES[sector_kind]
    idx = INDEX_OF_SLOT[sector_kind]
    if sector_kind == "p":
        slot = idx.index(index)
        return coord_variable(names[slot], convention)
    partner, g = Metric.lower(index)
    slot = idx.index(partner)
    return coord_variable(names[slot], convention).scale(g)


def to_phase_space(poly: Poly, which: str) -> Poly:
    """Lift a single-sector Poly into the (x, p) phase-space carrier."""
    if which == "x":
        return poly.insert_sector(1, P_SECTOR)
    if which == "p":
        return poly.insert_sector(0, X_SECTOR)
    raise ValueError(which)


def star_product(f: Poly, g: Poly) -> Poly:
    """The deformed product; rejects sector or convention mismatches."""
    return f.star(g)


def conjugate(f: Poly) -> Poly:
    return f.conjugate()


def metric_contract(upper: dict[str, Poly], lower: dict[str, Poly]) -> Poly:
    """sum_A  v^A * w_A  (star product in the carrier of the operands)."""
    acc = None
    for a in Metric.indices:
        term = upper[a].star(lower[a])
        acc = term if acc is None else acc + term
    return acc


def raise_index(components: dict[str, Poly]) -> dict[str, Poly]:
    """v^A = g^{AB} v_B from lower components."""
    out = {}
    for a in Metric.indices:
        b, g = Metric.raise_(a)
        out[a] = components[b].scale(g)
    return out


def lower_index(components: dict[str, Poly]) -> dict[str, Poly]:
    """v_A = g_{AB} v^B from upper components."""
    out = {}
    for a in Metric.indices:
        b, g = Metric.lower(a)
        out[a] = components[b].scale(g)
    return out


# -- JSON (external interface) ------------------------------------------------


def coord_poly_to_json(f: Poly) -> dict:
    if len(f.sectors) != 1:
        raise ValueError("JSON form is defined for single-sector polynomials")
    sector = f.sectors[0]
    terms = []
    for (triples, t), coeff in sorted(f.terms.items()):
        a, b, c = triples[0]
        terms.append([[a, b, c, t], coeff.to_json()])
    return {
        "sector": sector.kind,
        "convention": f.convention,
        "terms": terms,
    }


def coord_poly_from_json(data: dict) -> Poly:
    sector = X_SECTOR if data["sector"] == "x" else P_SECTOR
    terms = {}
    for (a, b, c, t), coeff in data["terms"]:
        terms[(((a, b, c),), t)] = QScalar.from_json(coeff)
    return Poly((sector,), terms, data["convention"])
