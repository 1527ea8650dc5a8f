"""Exact arithmetic in the deformation parameter.

The coefficient scalars used everywhere in this package are exact rational
expressions in the deformation parameter ``q`` over the Gaussian rationals,
stored as a fraction of Laurent polynomials with Gaussian integer
coefficients.  A rational coefficient's denominator lives in the
denominator polynomial, so a ring element (the overwhelmingly common case)
is an integer polynomial over a positive integer constant; it serializes in
the plain ``{"terms": [[exp, re, im], ...]}`` form.  Genuine fractions only
enter through series coefficients such as ``1/[[n]]_q!`` in exponentials
and antiderivatives.  A fraction is put in normal form when first read
(``str``, ``to_json``, ``eval``, ``hash``), or when built over more than
``QScalar._REDUCE_THRESHOLD`` denominator terms; ``==`` cross-multiplies.
There is no floating point in the symbolic layer and ``i`` is a first-class
scalar.  ``to_json`` and ``str`` write each coefficient a/L straight from
the integers, reduced by one integer gcd.
``Fraction`` is built only where ``GRat`` coefficients go in
(``from_rational``, ``monomial`` and ``from_json``).

Conventions:

* ``[[a]]_q = (1 - q^a)/(1 - q) = 1 + q + ... + q^(a-1)`` (big q-numbers),
* q-factorials and q-Pochhammer symbols are products of these; q-binomials
  are the product formula with one exact division by ``1 - q^j`` per factor,
* substitution ``q -> 1/q`` is an involution, used to move between the two
  differential calculi,
* conjugation treats ``q`` as real and complex-conjugates coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from typing import Mapping


class ExactnessError(ArithmeticError):
    """Raised when an operation that must stay in the Laurent ring (for
    instance the division inside a q-binomial) does not."""


class _Frozen:
    """Base of the immutable value classes of every layer.

    A subclass lists its fields in ``__slots__``; slot order is the
    constructor order, so ``__init__(*values)`` writes one value per slot
    and a subclass with defaults or input checks ends its own ``__init__``
    with ``super().__init__(...)``.  Instances are values: equal when their
    class and slot values are equal, hashed by the tuple of slot values,
    and printed as ``Name(slot=value, ...)``.  Assigning or deleting an
    attribute raises ``AttributeError``.  No ``dataclasses``: importing it
    costs every process several milliseconds.  ``lattice.STerm`` writes its
    three slots itself, because a packet builds thousands of terms and the
    generic loop made that measurably slower."""

    __slots__ = ()

    def __init__(self, *values):
        for slot, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, slot, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, slot) for slot in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{slot}={getattr(self, slot)!r}" for slot in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GRat(_Frozen):
    """A Gaussian rational a + b*i with exact rational parts: the public
    coefficient type that ``QScalar`` takes and hands out.  A value:
    immutable, equal and hashed by its parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        super().__init__(re, im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"


# -- Gaussian-integer Laurent dictionaries ---------------------------------------

#: a Gaussian integer a + b*i as the pair (a, b)
GInt = tuple[int, int]
Terms = dict[int, GInt]

_ONE_DEN: Terms = {0: (1, 0)}


def _gauss(value) -> tuple[int, GInt]:
    """``(L, (a, b))`` with ``value = (a + b*i)/L`` and ``L > 0`` minimal,
    for a ``GRat``, an ``int`` or a ``Fraction``."""
    if isinstance(value, GRat):
        re, im = Fraction(value.re), Fraction(value.im)
    elif isinstance(value, (int, Fraction)):
        re, im = Fraction(value), Fraction(0)
    else:
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
    den = lcm(re.denominator, im.denominator)
    return den, (
        re.numerator * (den // re.denominator),
        im.numerator * (den // im.denominator),
    )


def _from_grats(terms: Mapping[int, GRat]) -> tuple[Terms, int]:
    """Gaussian-rational terms as integer terms over one common denominator."""
    pairs = {int(e): _gauss(c) for e, c in terms.items()}
    den = lcm(*(l for l, _ in pairs.values()))
    return {
        e: (a * (den // l), b * (den // l))
        for e, (l, (a, b)) in pairs.items()
        if a or b
    }, den


def _fmt_ratio(a: int, lead: int) -> str:
    """``str(Fraction(a, lead))`` for a positive ``lead``, from the integers."""
    g = gcd(a, lead)
    if g == lead:
        return str(a // g)
    return f"{a // g}/{lead // g}"


def _fmt_gauss(a: int, b: int, lead: int) -> str:
    """``str(GRat(Fraction(a, lead), Fraction(b, lead)))``, from the integers."""
    if b == 0:
        return _fmt_ratio(a, lead)
    if a == 0:
        return f"{_fmt_ratio(b, lead)}*i"
    sign = "+" if b > 0 else "-"
    return f"({_fmt_ratio(a, lead)}{sign}{_fmt_ratio(abs(b), lead)}*i)"


def _d_add(a: Terms, b: Terms) -> Terms:
    out = dict(a)
    for e, (c, d) in b.items():
        if e in out:
            x, y = out[e]
            x += c
            y += d
            if x or y:
                out[e] = (x, y)
            else:
                del out[e]
        else:
            out[e] = (c, d)
    return out


def _d_scale(a: Terms, shift: int, c: GInt) -> Terms:
    """``a * c * q**shift`` for a nonzero Gaussian integer c."""
    cr, ci = c
    if ci == 0:
        if cr == 1:
            return {e + shift: v for e, v in a.items()} if shift else a
        return {e + shift: (x * cr, y * cr) for e, (x, y) in a.items()}
    return {e + shift: (x * cr - y * ci, x * ci + y * cr) for e, (x, y) in a.items()}


def _d_mul(a: Terms, b: Terms) -> Terms:
    if not a or not b:
        return {}
    if len(b) == 1:
        ((e, c),) = b.items()
        return _d_scale(a, e, c)
    if len(a) == 1:
        ((e, c),) = a.items()
        return _d_scale(b, e, c)
    re: dict[int, int] = {}
    im: dict[int, int] = {}
    for e1, (x1, y1) in a.items():
        for e2, (x2, y2) in b.items():
            e = e1 + e2
            re[e] = re.get(e, 0) + x1 * x2 - y1 * y2
            im[e] = im.get(e, 0) + x1 * y2 + y1 * x2
    return {e: (x, im[e]) for e, x in re.items() if x or im[e]}


def _dense(terms: Terms) -> tuple[int, list[GInt]]:
    """Return (offset, coefficient list) with list[0] the offset coefficient."""
    lo = min(terms)
    coeffs = [(0, 0)] * (max(terms) - lo + 1)
    for e, c in terms.items():
        coeffs[e - lo] = c
    return lo, coeffs


def _sparse(shift: int, coeffs: list[GInt]) -> Terms:
    return {shift + k: c for k, c in enumerate(coeffs) if c[0] or c[1]}


def _poly_divmod(num: list[GInt], den: list[GInt]):
    """Dense polynomial division over the Gaussian integers.

    Returns ``(quot, rem, s)`` with ``s * num = quot * den + rem``, the
    remainder of lower degree than ``den`` and ``s`` a positive integer.
    ``s`` grows only where a leading division is not exact in Z[i]; it stays
    1 whenever ``den``'s leading coefficient is a unit.
    """
    nr = [c[0] for c in num]
    ni = [c[1] for c in num]
    while nr and not (nr[-1] or ni[-1]):
        nr.pop()
        ni.pop()
    m = len(den)
    if len(nr) < m:
        return [], list(zip(nr, ni)), 1
    br, bi = den[-1]
    norm = br * br + bi * bi
    size = len(nr) - m + 1
    qr = [0] * size
    qi = [0] * size
    s = 1
    for k in range(size - 1, -1, -1):
        tr, ti = nr[k + m - 1], ni[k + m - 1]
        if not (tr or ti):
            continue
        # c = t / lead = t * conj(lead) / |lead|^2
        xr = tr * br + ti * bi
        xi = ti * br - tr * bi
        if norm != 1 and (xr % norm or xi % norm):
            f = norm // gcd(xr, xi, norm)
            for lst in (nr, ni, qr, qi):
                lst[:] = [v * f for v in lst]
            s *= f
            xr *= f
            xi *= f
        cr, ci = xr // norm, xi // norm
        qr[k], qi[k] = cr, ci
        for j, (dr, di) in enumerate(den):
            nr[k + j] -= cr * dr - ci * di
            ni[k + j] -= cr * di + ci * dr
    rem = list(zip(nr[: m - 1], ni[: m - 1]))
    while rem and not (rem[-1][0] or rem[-1][1]):
        rem.pop()
    return list(zip(qr, qi)), rem, s


def _primitive(p: list[GInt]) -> list[GInt]:
    """p divided by the integer gcd of all its parts."""
    g = gcd(*(x for c in p for x in c))
    if g <= 1:
        return p
    return [(a // g, b // g) for a, b in p]


def _poly_gcd(a: list[GInt], b: list[GInt]) -> list[GInt]:
    """A gcd over Q(i) by a primitive pseudo-remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    while b:
        _, r, _ = _poly_divmod(a, b)
        a, b = b, _primitive(r)
    return a


def _reduce(num: Terms, den: Terms) -> tuple[Terms, Terms]:
    """Canonicalize a fraction: coprime, denominator with lowest exponent 0
    and a positive integer leading coefficient, joint integer content 1.
    Run on a value's first read, or past the size bound in ``_make``."""
    if len(num) > 1 and len(den) > 1:
        lo_n, dn = _dense(num)
        lo_d, dd = _dense(den)
        g = _poly_gcd(dn, dd)
        if len(g) > 1:
            dn, _, sn = _poly_divmod(dn, g)
            dd, _, sd = _poly_divmod(dd, g)
            # dn/dd = (quot_n/sn) / (quot_d/sd)
            num = _sparse(lo_n, [(a * sd, b * sd) for a, b in dn])
            den = _sparse(lo_d, [(a * sn, b * sn) for a, b in dd])
    lo = min(den)
    br, bi = den[max(den)]
    lead = (br, -bi) if bi or br < 0 else (1, 0)
    num = _d_scale(num, -lo, lead)
    den = _d_scale(den, -lo, lead)
    g = gcd(*(x for terms in (num, den) for c in terms.values() for x in c))
    if g > 1:
        num = {e: (a // g, b // g) for e, (a, b) in num.items()}
        den = {e: (a // g, b // g) for e, (a, b) in den.items()}
    return num, den


class QScalar:
    """Fraction of Laurent polynomials in q over the Gaussian integers.

    Values compare by cross-multiplication, so fractions are reduced lazily:
    canonicalization (see ``_reduce``) happens on a value's first read and is
    kept, or in ``_make`` past ``_REDUCE_THRESHOLD`` denominator terms.
    Scalars built over ``_ONE_DEN`` are canonical; negation, ``shift`` and
    ``conjugate`` keep a canonical value canonical.
    Instances behave as immutable values; all arithmetic returns fresh
    objects.
    """

    __slots__ = ("_num", "_den", "_canonical")

    #: denominators larger than this are reduced eagerly to bound growth
    _REDUCE_THRESHOLD = 24

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

    @staticmethod
    def _make(num: Terms, den: Terms) -> "QScalar":
        """Internal constructor for clean integer dictionaries, ``den``
        nonzero.  The one place a fraction is reduced at construction: past
        ``_REDUCE_THRESHOLD`` denominator terms; else it waits for a read."""
        if not num:
            return ZERO
        if den == _ONE_DEN:
            return QScalar._raw(num, _ONE_DEN, True)
        if len(den) > QScalar._REDUCE_THRESHOLD:
            return QScalar._raw(*_reduce(num, den), True)
        return QScalar._raw(num, den, False)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def q(exponent: int = 1) -> "QScalar":
        return QScalar._raw({exponent: (1, 0)}, _ONE_DEN, True)

    @staticmethod
    def from_rational(value, imag=0) -> "QScalar":
        return QScalar.monomial(0, GRat(Fraction(value), Fraction(imag)))

    @staticmethod
    def monomial(exponent: int, coeff) -> "QScalar":
        den, c = _gauss(coeff)
        return QScalar._make({int(exponent): c} if any(c) else {}, {0: (den, 0)})

    # -- inspection --------------------------------------------------------

    def _lead_den(self) -> int:
        """The canonical denominator's leading coefficient."""
        self._reduce_inplace()
        return self._den[max(self._den)][0]

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._num == self._den

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
            return QScalar._make(_d_add(self._num, other._num), self._den)
        return QScalar._make(
            _d_add(_d_mul(self._num, other._den), _d_mul(other._num, self._den)),
            _d_mul(self._den, other._den),
        )

    def __sub__(self, other: "QScalar") -> "QScalar":
        return self + (-other)

    def __neg__(self) -> "QScalar":
        return QScalar._raw(
            {e: (-a, -b) for e, (a, b) in self._num.items()},
            self._den,
            self._canonical,
        )

    def __mul__(self, other: "QScalar") -> "QScalar":
        return QScalar._make(_d_mul(self._num, other._num), _d_mul(self._den, other._den))

    def __truediv__(self, other: "QScalar") -> "QScalar":
        if other.is_zero():
            raise ZeroDivisionError("QScalar division by zero")
        return QScalar._make(
            _d_mul(self._num, other._den), _d_mul(self._den, other._num)
        )

    def scale(self, value) -> "QScalar":
        return self * QScalar.monomial(0, value)

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
            return (ONE / self) ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure maps ----------------------------------------------------

    def subs_q_inverse(self) -> "QScalar":
        """The involution q -> 1/q."""
        return QScalar._make(
            {-e: c for e, c in self._num.items()},
            {-e: c for e, c in self._den.items()},
        )

    def conjugate(self) -> "QScalar":
        """Complex conjugation of coefficients; q is fixed (treated as real)."""
        return QScalar._raw(
            {e: (a, -b) for e, (a, b) in self._num.items()},
            {e: (a, -b) for e, (a, b) in self._den.items()},
            self._canonical,
        )

    def eval(self, q0: complex) -> complex:
        """Numeric evaluation at q = q0 (q0 must be nonzero)."""
        if q0 == 0:
            raise ZeroDivisionError("QScalar evaluation at q = 0")
        lead = self._lead_den()

        def value(terms: Terms) -> complex:
            out = 0j
            for e, (a, b) in terms.items():
                out += (complex(a / lead) + 1j * complex(b / lead)) * q0**e
            return out

        num = value(self._num)
        if len(self._den) == 1:
            return num
        return num / value(self._den)

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        return f"QScalar({self})"

    @staticmethod
    def _fmt_terms(terms: Terms, lead: int) -> str:
        if not terms:
            return "0"
        parts = []
        for e, (a, b) in sorted(terms.items()):
            base = "" if e == 0 else ("q" if e == 1 else f"q^{e}")
            cs = _fmt_gauss(a, b, lead)
            if base and cs == "1":
                parts.append(base)
            elif base and cs == "-1":
                parts.append(f"-{base}")
            else:
                parts.append(f"{cs}*{base}" if base else cs)
        return " + ".join(parts).replace("+ -", "- ")

    def __str__(self) -> str:
        lead = self._lead_den()
        num = self._fmt_terms(self._num, lead)
        if len(self._den) == 1:
            return num
        return f"({num})/({self._fmt_terms(self._den, lead)})"

    def to_json(self) -> dict:
        lead = self._lead_den()

        def dump(terms: Terms) -> dict:
            return {
                "terms": [
                    [e, _fmt_ratio(a, lead), _fmt_ratio(b, lead)]
                    for e, (a, b) in sorted(terms.items())
                ]
            }

        if len(self._den) == 1:
            return dump(self._num)
        return {"num": dump(self._num), "den": dump(self._den)}

    @staticmethod
    def from_json(data: dict) -> "QScalar":
        def load(obj) -> tuple[Terms, int]:
            return _from_grats({
                int(e): GRat(Fraction(re_s), Fraction(im_s))
                for e, re_s, im_s in obj["terms"]
            })

        if "terms" in data:
            num, d = load(data)
            return QScalar._make(num, {0: (d, 0)})
        (num, num_den), (d, den_den) = load(data["num"]), load(data["den"])
        if not d:
            raise ZeroDivisionError("zero denominator")
        # (num/num_den) / (d/den_den)
        return QScalar._make(_d_scale(num, 0, (den_den, 0)), _d_scale(d, 0, (num_den, 0)))


ZERO = QScalar._raw({}, _ONE_DEN, True)
ONE = QScalar._raw({0: (1, 0)}, _ONE_DEN, True)
I = QScalar._raw({0: (0, 1)}, _ONE_DEN, True)
I_INV = QScalar._raw({0: (0, -1)}, _ONE_DEN, True)  # 1/i = -i

#: lambda = q - 1/q
LAMBDA = QScalar._raw({1: (1, 0), -1: (-1, 0)}, _ONE_DEN, True)
#: lambda_+ = q + 1/q
LAMBDA_PLUS = QScalar._raw({1: (1, 0), -1: (1, 0)}, _ONE_DEN, True)
#: kappa = q^6
KAPPA = QScalar.q(6)

#: the names of the six truncated q-exponentials (``qexp.build_exponential``);
#: defined at the bottom layer so the expression parser checks a name
#: without loading the calculus
VARIANTS = (
    "x_ip",
    "ipinv_x",
    "bar_x_ip",
    "bar_ipinv_x",
    "star_ip_x",
    "star_x_ipinv",
)


@lru_cache(maxsize=None)
def q_number(a: int, base_exponent: int = 1) -> QScalar:
    """[[a]] in base q**base_exponent: 1 + q^b + ... + q^(b(a-1)).

    Always the expanded polynomial, never a quotient.
    """
    if a < 0:
        raise ValueError("q_number requires a >= 0")
    counts: dict[int, int] = {}
    for k in range(a):
        e = base_exponent * k
        counts[e] = counts.get(e, 0) + 1
    return QScalar._make({e: (n, 0) for e, n in counts.items()}, _ONE_DEN)


@lru_cache(maxsize=None)
def q_factorial(n: int, base_exponent: int = 1) -> QScalar:
    """[[n]]! in base q**base_exponent, with [[0]]! = 1."""
    if n < 0:
        raise ValueError("q_factorial requires n >= 0")
    out = ONE
    for k in range(1, n + 1):
        out = out * q_number(k, base_exponent)
    return out


def _times_binomial(p: list[int], m: int) -> list[int]:
    """``p * (1 - q^m)`` on an integer coefficient list (``p[i]`` multiplies
    ``q^i``)."""
    out = p + [0] * m
    for i, c in enumerate(p):
        out[i + m] -= c
    return out


def _div_binomial(p: list[int], m: int) -> list[int]:
    """``p / (1 - q^m)`` on an integer coefficient list, ``m > 0``.

    Runs the quotient up from the constant term, ``r[i] = p[i] + r[i - m]``;
    then ``p = r_low * (1 - q^m) + r_top`` with ``r_top`` the last ``m``
    entries, which must vanish: a nonzero remainder raises
    ``ExactnessError``.
    """
    out = p[:]
    for i in range(m, len(out)):
        out[i] += out[i - m]
    if any(out[-m:]):
        raise ExactnessError(f"non-exact division by 1 - q^{m}")
    return out[:-m]


def q_binomial(n: int, k: int, base_exponent: int = 1) -> QScalar:
    """Gaussian binomial [n choose k] in base q**base_exponent.

    Computed in base q by the product formula
    prod_{j=1..k} (1 - q^(n-k+j)) / (1 - q^j), with k replaced by
    min(k, n - k): each step multiplies by one binomial and divides exactly
    by another, and every division checks that its remainder is zero (an
    internal consistency assertion that the result stays in the ring).
    Base q**b is the exponent map e -> b*e, which for b < 0 is q -> 1/q of
    the base q**|b| result; base 1 (b = 0) is ``math.comb``.  This is not a
    recurrence in n, so the Pascal-type identity stays an independent test.
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError("q_binomial requires 0 <= k <= n")
    if base_exponent == 0:
        return QScalar._raw({0: (comb(n, k), 0)}, _ONE_DEN, True)
    k = min(k, n - k)
    coeffs = [1]
    for j in range(1, k + 1):
        coeffs = _div_binomial(_times_binomial(coeffs, n - k + j), j)
    return QScalar._raw(
        {base_exponent * e: (c, 0) for e, c in enumerate(coeffs)},
        _ONE_DEN,
        True,
    )


def q_pochhammer(z: QScalar, k: int) -> QScalar:
    """(z; q)_k = (1 - z)(1 - z q)...(1 - z q^(k-1)) expanded exactly."""
    if k < 0:
        raise ValueError("q_pochhammer requires k >= 0")
    out = ONE
    for j in range(k):
        out = out * (ONE - z.shift(j))
    return out


def q_double_factorial_even(k: int, base_exponent: int = 1) -> QScalar:
    """[[2k]]!! = [[2]].[[4]]...[[2k]] in the given base; [[0]]!! = 1."""
    if k < 0:
        raise ValueError("q_double_factorial_even requires k >= 0")
    out = ONE
    for j in range(1, k + 1):
        out = out * q_number(2 * j, base_exponent)
    return out
