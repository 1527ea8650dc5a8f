"""Exact arithmetic in the deformation parameter.

The coefficient scalars used everywhere in this package are exact rational
expressions in the deformation parameter ``q`` over the Gaussian rationals,
stored as a reduced fraction of Laurent polynomials.  Ring elements (the
overwhelmingly common case) have denominator 1 and serialize in the plain
``{"terms": [[exp, re, im], ...]}`` form; genuine fractions only enter
through series coefficients such as ``1/[[n]]_q!`` in exponentials and
antiderivatives.  Everything is canonical, so identity checking is equality
of normal forms; there is no floating point in the symbolic layer and ``i``
is a first-class scalar.

Conventions:

* ``[[a]]_q = (1 - q^a)/(1 - q) = 1 + q + ... + q^(a-1)`` (big q-numbers),
* q-factorials, q-binomials, q-Pochhammer symbols are built from these,
* substitution ``q -> 1/q`` is an involution, used to move between the two
  differential calculi,
* conjugation treats ``q`` as real and complex-conjugates coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping


class ExactnessError(ArithmeticError):
    """Raised when an operation that must stay in the Laurent ring (for
    instance the division inside a q-binomial) does not."""


@dataclass(frozen=True)
class GRat:
    """A Gaussian rational a + b*i with exact rational parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "GRat") -> "GRat":
        return GRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GRat") -> "GRat":
        return GRat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GRat":
        return GRat(-self.re, -self.im)

    def __mul__(self, other: "GRat") -> "GRat":
        return GRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GRat") -> "GRat":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GRat(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self) -> "GRat":
        return GRat(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


GRAT_ZERO = GRat()
GRAT_ONE = GRat(Fraction(1))
GRAT_I = GRat(Fraction(0), Fraction(1))


def _coerce_grat(value) -> GRat:
    if isinstance(value, GRat):
        return value
    if isinstance(value, (int, Fraction)):
        return GRat(Fraction(value))
    raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")


# -- raw Laurent dictionaries ----------------------------------------------------

Terms = dict[int, GRat]


def _d_clean(terms) -> Terms:
    return {int(e): c for e, c in terms.items() if not c.is_zero()}


def _d_add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, GRAT_ZERO) + c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _d_mul(a: Terms, b: Terms) -> Terms:
    if not a or not b:
        return {}
    out: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, GRAT_ZERO) + c1 * c2
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _dense(terms: Terms) -> tuple[int, list[GRat]]:
    """Return (offset, coefficient list) with list[0] the offset coefficient."""
    lo = min(terms)
    hi = max(terms)
    coeffs = [GRAT_ZERO] * (hi - lo + 1)
    for e, c in terms.items():
        coeffs[e - lo] = c
    return lo, coeffs


def _poly_divmod(num: list[GRat], den: list[GRat]):
    """Ordinary dense polynomial division over the Gaussian rationals."""
    num = list(num)
    while num and num[-1].is_zero():
        num.pop()
    if len(num) < len(den):
        return [], num
    quot = [GRAT_ZERO] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1] / lead
        quot[k] = c
        if not c.is_zero():
            for j, dcf in enumerate(den):
                num[k + j] = num[k + j] - c * dcf
    while num and num[-1].is_zero():
        num.pop()
    return quot, num


def _poly_gcd(a: list[GRat], b: list[GRat]) -> list[GRat]:
    a = [c for c in a]
    b = [c for c in b]
    while b and any(not c.is_zero() for c in b):
        _, r = _poly_divmod(a, b)
        a, b = b, r
    lead = a[-1]
    return [c / lead for c in a]


class QScalar:
    """Fraction of Laurent polynomials in q over the Gaussian rationals.

    Values compare by cross-multiplication, so fractions are reduced lazily:
    canonicalization (coprime, denominator with lowest exponent zero and
    monic leading coefficient) happens on demand and is cached.  Ring
    elements have ``_den == {0: 1}``.  Instances behave as immutable values;
    all arithmetic returns fresh objects.
    """

    __slots__ = ("_num", "_den", "_canonical")

    #: denominators larger than this are reduced eagerly to bound growth
    _REDUCE_THRESHOLD = 24

    def __init__(self, terms: Mapping[int, GRat] | None = None, den=None):
        num = _d_clean(terms) if terms else {}
        d = _d_clean(den) if den else {0: GRAT_ONE}
        if not d:
            raise ZeroDivisionError("zero denominator")
        canonical = d == {0: GRAT_ONE}
        if not num:
            d = {0: GRAT_ONE}
            canonical = True
        elif not canonical and len(d) > self._REDUCE_THRESHOLD:
            num, d = _reduce(num, d)
            canonical = True
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", d)
        object.__setattr__(self, "_canonical", canonical)

    def __setattr__(self, *a):
        raise AttributeError("QScalar is immutable")

    def _reduce_inplace(self) -> None:
        if self._canonical:
            return
        num, den = _reduce(self._num, self._den)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_canonical", True)

    @staticmethod
    def _raw(num: Terms, den: Terms, canonical: bool) -> "QScalar":
        """Internal constructor for dictionaries already in clean form."""
        out = object.__new__(QScalar)
        object.__setattr__(out, "_num", num)
        object.__setattr__(out, "_den", den)
        object.__setattr__(out, "_canonical", canonical)
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "QScalar":
        return QScalar()

    @staticmethod
    def one() -> "QScalar":
        return QScalar({0: GRAT_ONE})

    @staticmethod
    def i() -> "QScalar":
        return QScalar({0: GRAT_I})

    @staticmethod
    def q(exponent: int = 1) -> "QScalar":
        return QScalar({exponent: GRAT_ONE})

    @staticmethod
    def from_rational(value, imag=0) -> "QScalar":
        return QScalar({0: GRat(Fraction(value), Fraction(imag))})

    @staticmethod
    def monomial(exponent: int, coeff) -> "QScalar":
        return QScalar({exponent: _coerce_grat(coeff)})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[int, GRat]:
        if not self.is_polynomial():
            raise ExactnessError("terms requested on a non-polynomial scalar")
        return dict(self._num)

    def numerator_terms(self) -> dict[int, GRat]:
        self._reduce_inplace()
        return dict(self._num)

    def is_polynomial(self) -> bool:
        self._reduce_inplace()
        return self._den == {0: GRAT_ONE}

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._num == self._den

    def items(self) -> Iterator[tuple[int, GRat]]:
        return iter(sorted(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QScalar):
            return NotImplemented
        if self._den == other._den:
            return self._num == other._num
        return _d_mul(self._num, other._den) == _d_mul(other._num, self._den)

    def __hash__(self) -> int:
        self._reduce_inplace()
        return hash(
            (
                tuple(sorted(self._num.items())),
                tuple(sorted(self._den.items())),
            )
        )

    # -- field operations ---------------------------------------------------

    def __add__(self, other: "QScalar") -> "QScalar":
        if self._den == other._den:
            num = _d_add(self._num, other._num)
            if not num:
                return ZERO
            return QScalar._raw(num, self._den, self._den == QScalar._TRIVIAL_DEN)
        return QScalar(
            _d_add(_d_mul(self._num, other._den), _d_mul(other._num, self._den)),
            _d_mul(self._den, other._den),
        )

    def __sub__(self, other: "QScalar") -> "QScalar":
        return self + (-other)

    def __neg__(self) -> "QScalar":
        return QScalar._raw(
            {e: -c for e, c in self._num.items()}, self._den, self._canonical
        )

    _TRIVIAL_DEN = None  # set after class definition

    def __mul__(self, other: "QScalar") -> "QScalar":
        # monomial fast paths: multiplication by c q^e is a shift and scale
        if other._den == QScalar._TRIVIAL_DEN and len(other._num) == 1:
            ((e, c),) = other._num.items()
            if c is GRAT_ONE or c == GRAT_ONE:
                return self.shift(e)
            return QScalar._raw(
                {k + e: v * c for k, v in self._num.items()},
                self._den,
                self._canonical,
            )
        if self._den == QScalar._TRIVIAL_DEN and len(self._num) == 1:
            ((e, c),) = self._num.items()
            if c is GRAT_ONE or c == GRAT_ONE:
                return other.shift(e)
            return QScalar._raw(
                {k + e: v * c for k, v in other._num.items()},
                other._den,
                other._canonical,
            )
        return QScalar(
            _d_mul(self._num, other._num), _d_mul(self._den, other._den)
        )

    def __truediv__(self, other: "QScalar") -> "QScalar":
        if other.is_zero():
            raise ZeroDivisionError("QScalar division by zero")
        return QScalar(
            _d_mul(self._num, other._den), _d_mul(self._den, other._num)
        )

    def scale(self, value) -> "QScalar":
        c = _coerce_grat(value)
        if c.is_zero():
            return QScalar()
        return QScalar._raw(
            {e: v * c for e, v in self._num.items()}, self._den, self._canonical
        )

    def shift(self, exponent: int) -> "QScalar":
        """Multiply by q**exponent."""
        if exponent == 0:
            return self
        return QScalar._raw(
            {e + exponent: c for e, c in self._num.items()},
            self._den,
            self._canonical,
        )

    def __pow__(self, n: int) -> "QScalar":
        if n < 0:
            return (QScalar.one() / self) ** (-n)
        out = QScalar.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def exact_div(self, other: "QScalar") -> "QScalar":
        """Division that must stay in the Laurent ring; raises otherwise."""
        out = self / other
        if not out.is_polynomial():
            raise ExactnessError("non-exact QScalar division")
        return out

    # -- structure maps ----------------------------------------------------

    def subs_q_inverse(self) -> "QScalar":
        """The involution q -> 1/q."""
        return QScalar(
            {-e: c for e, c in self._num.items()},
            {-e: c for e, c in self._den.items()},
        )

    def conjugate(self) -> "QScalar":
        """Complex conjugation of coefficients; q is fixed (treated as real)."""
        return QScalar(
            {e: c.conjugate() for e, c in self._num.items()},
            {e: c.conjugate() for e, c in self._den.items()},
        )

    def eval(self, q0: complex) -> complex:
        """Numeric evaluation at q = q0 (q0 must be nonzero)."""
        if q0 == 0:
            raise ZeroDivisionError("QScalar evaluation at q = 0")
        num = 0j
        for e, c in self._num.items():
            num += c.to_complex() * q0**e
        if self._den == {0: GRAT_ONE}:
            return num
        den = 0j
        for e, c in self._den.items():
            den += c.to_complex() * q0**e
        return num / den

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        return f"QScalar({self})"

    @staticmethod
    def _fmt_terms(terms: Terms) -> str:
        if not terms:
            return "0"
        parts = []
        for e, c in sorted(terms.items()):
            base = "" if e == 0 else ("q" if e == 1 else f"q^{e}")
            cs = str(c)
            if base and cs == "1":
                parts.append(base)
            elif base and cs == "-1":
                parts.append(f"-{base}")
            else:
                parts.append(f"{cs}*{base}" if base else cs)
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self) -> str:
        self._reduce_inplace()
        num = self._fmt_terms(self._num)
        if self._den == {0: GRAT_ONE}:
            return num
        return f"({num})/({self._fmt_terms(self._den)})"

    def to_json(self) -> dict:
        self._reduce_inplace()
        num = {
            "terms": [
                [e, str(c.re), str(c.im)] for e, c in sorted(self._num.items())
            ]
        }
        if self._den == {0: GRAT_ONE}:
            return num
        return {
            "num": num,
            "den": {
                "terms": [
                    [e, str(c.re), str(c.im)]
                    for e, c in sorted(self._den.items())
                ]
            },
        }

    @staticmethod
    def from_json(data: dict) -> "QScalar":
        def load(obj):
            return {
                int(e): GRat(Fraction(re_s), Fraction(im_s))
                for e, re_s, im_s in obj["terms"]
            }

        if "terms" in data:
            return QScalar(load(data))
        return QScalar(load(data["num"]), load(data["den"]))


def _reduce(num: Terms, den: Terms) -> tuple[Terms, Terms]:
    """Canonicalize a fraction: coprime, denominator with lowest exponent 0
    and monic highest coefficient."""
    lo_n, dn = _dense(num)
    lo_d, dd = _dense(den)
    g = _poly_gcd(dn, dd)
    if len(g) > 1:
        dn, _ = _poly_divmod(dn, g)
        dd, _ = _poly_divmod(dd, g)
    # normalize q-power offsets: shift all of den's offset into num
    shift = lo_n - lo_d
    lead = dd[-1]
    num_out = {
        shift + k: c / lead for k, c in enumerate(dn) if not c.is_zero()
    }
    den_out = {k: c / lead for k, c in enumerate(dd) if not c.is_zero()}
    return num_out, den_out


QScalar._TRIVIAL_DEN = {0: GRAT_ONE}

ZERO = QScalar.zero()
ONE = QScalar.one()
I = QScalar.i()
I_INV = QScalar({0: GRat(Fraction(0), Fraction(-1))})  # 1/i = -i

#: lambda = q - 1/q
LAMBDA = QScalar({1: GRAT_ONE, -1: -GRAT_ONE})
#: lambda_+ = q + 1/q
LAMBDA_PLUS = QScalar({1: GRAT_ONE, -1: GRAT_ONE})
#: kappa = q^6
KAPPA = QScalar.q(6)


@lru_cache(maxsize=None)
def q_number(a: int, base_exponent: int = 1) -> QScalar:
    """[[a]] in base q**base_exponent: 1 + q^b + ... + q^(b(a-1)).

    Always the expanded polynomial, never a quotient.
    """
    if a < 0:
        raise ValueError("q_number requires a >= 0")
    b = base_exponent
    terms: Terms = {}
    for k in range(a):
        e = b * k
        c = terms.get(e, GRAT_ZERO) + GRAT_ONE
        if c.is_zero():
            terms.pop(e, None)
        else:
            terms[e] = c
    return QScalar(terms)


@lru_cache(maxsize=None)
def q_factorial(n: int, base_exponent: int = 1) -> QScalar:
    """[[n]]! in base q**base_exponent, with [[0]]! = 1."""
    if n < 0:
        raise ValueError("q_factorial requires n >= 0")
    out = QScalar.one()
    for k in range(1, n + 1):
        out = out * q_number(k, base_exponent)
    return out


def q_binomial(n: int, k: int, base_exponent: int = 1) -> QScalar:
    """Gaussian binomial [n choose k] in base q**base_exponent.

    Computed as an exact factorial quotient (the ring-exactness check is an
    internal consistency assertion), not by a recurrence; the Pascal-type
    identity therefore stays an independent test.
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError("q_binomial requires 0 <= k <= n")
    num = q_factorial(n, base_exponent)
    den = q_factorial(n - k, base_exponent) * q_factorial(k, base_exponent)
    return num.exact_div(den)


def q_pochhammer(z: QScalar, k: int) -> QScalar:
    """(z; q)_k = (1 - z)(1 - z q)...(1 - z q^(k-1)) expanded exactly."""
    if k < 0:
        raise ValueError("q_pochhammer requires k >= 0")
    out = QScalar.one()
    for j in range(k):
        out = out * (ONE - z.shift(j))
    return out


def q_double_factorial_even(k: int, base_exponent: int = 1) -> QScalar:
    """[[2k]]!! = [[2]].[[4]]...[[2k]] in the given base; [[0]]!! = 1."""
    if k < 0:
        raise ValueError("q_double_factorial_even requires k >= 0")
    out = QScalar.one()
    for j in range(1, k + 1):
        out = out * q_number(2 * j, base_exponent)
    return out
