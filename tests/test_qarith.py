import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuclid import qarith
from qeuclid.qarith import (
    ExactnessError,
    GRat,
    QScalar,
    ZERO,
    ONE,
    I,
    LAMBDA,
    LAMBDA_PLUS,
    q_number,
    q_factorial,
    q_binomial,
    q_pochhammer,
    q_double_factorial_even,
)


def scalar_strategy():
    coeff = st.builds(
        GRat,
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )
    term = st.tuples(st.integers(min_value=-5, max_value=5), coeff)
    return st.lists(term, max_size=4).map(
        lambda items: sum(
            (QScalar.monomial(e, c) for e, c in items), ZERO
        )
    )


@given(scalar_strategy(), scalar_strategy())
@settings(max_examples=60)
def test_ring_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(scalar_strategy(), scalar_strategy(), scalar_strategy())
@settings(max_examples=40)
def test_ring_associativity_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalar_strategy())
@settings(max_examples=60)
def test_substitution_involution(s):
    assert s.subs_q_inverse().subs_q_inverse() == s
    assert s.conjugate().conjugate() == s


@given(scalar_strategy(), scalar_strategy())
@settings(max_examples=40)
def test_fraction_field(a, b):
    if b.is_zero():
        return
    assert (a / b) * b == a


def test_q_number_values():
    assert q_number(0, 1).is_zero()
    assert q_number(2, 1) == ONE + QScalar.q(1)
    assert q_number(3, 4) == ONE + QScalar.q(4) + QScalar.q(8)


def test_q_number_negative_rejected():
    with pytest.raises(ValueError):
        q_number(-1)


def test_q_factorial_values():
    assert q_factorial(0, 1).is_one()
    assert q_factorial(2, 1) == ONE + QScalar.q(1)
    assert q_factorial(3, 1) == q_number(2, 1) * q_number(3, 1)


def test_q_binomial_values():
    assert q_binomial(5, 0, 2).is_one()
    assert q_binomial(2, 1, 1) == ONE + QScalar.q(1)
    want = q_factorial(4, 4) / (q_factorial(2, 4) * q_factorial(2, 4))
    assert q_binomial(4, 2, 4) == want


def test_q_binomial_rejects_bad_args():
    with pytest.raises(ValueError):
        q_binomial(2, 3)
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


def test_q_binomial_stays_in_the_ring():
    for n in range(9):
        for k in range(n + 1):
            assert set(q_binomial(n, k, 4).to_json()) == {"terms"}


@pytest.mark.parametrize("base", [-4, -2, -1, 0, 1, 2, 4])
def test_q_binomial_is_the_factorial_quotient(base):
    for n in range(15):
        for k in range(n + 1):
            want = q_factorial(n, base) / (
                q_factorial(k, base) * q_factorial(n - k, base)
            )
            assert q_binomial(n, k, base).to_json() == want.to_json(), (n, k, base)


def test_binomial_division_checks_its_remainder():
    # (1 - q^3)(1 + q^3) / (1 - q^3) and (1 + q^3) / (1 - q^2)
    assert qarith._div_binomial([1, 0, 0, 0, 0, 0, -1], 3) == [1, 0, 0, 1]
    with pytest.raises(ExactnessError):
        qarith._div_binomial([1, 0, 0, 1], 2)


def test_pochhammer():
    z = QScalar.q(1)
    assert q_pochhammer(z, 0).is_one()
    assert q_pochhammer(z, 1) == ONE - z
    assert q_pochhammer(z, 2) == (ONE - z) * (ONE - z.shift(1))


def test_double_factorial():
    assert q_double_factorial_even(0, -2).is_one()
    assert q_double_factorial_even(2, -2) == q_number(2, -2) * q_number(4, -2)


def test_numeric_eval():
    assert abs(LAMBDA.eval(1.0)) == 0.0
    assert abs(LAMBDA_PLUS.eval(2.0) - 2.5) < 1e-15
    assert abs(q_number(3, 1).eval(1.1) - 3.31) < 1e-12
    with pytest.raises(ZeroDivisionError):
        ONE.eval(0.0)


def test_json_roundtrip_fraction():
    s = LAMBDA / q_factorial(2, 4) + QScalar.monomial(-3, GRat(Fraction(1, 7)))
    assert QScalar.from_json(s.to_json()) == s
    plain = q_number(4, 2)
    data = plain.to_json()
    assert set(data) == {"terms"}  # ring elements keep the plain schema


# -- cross-check against sympy rational functions in q ---------------------------

Q = sympy.Symbol("q", real=True)


def laurent_spec():
    """Terms ``[(exp, re, im), ...]`` of a Gaussian-rational Laurent polynomial."""
    part = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    term = st.tuples(st.integers(min_value=-3, max_value=3), part, part)
    return st.lists(term, min_size=1, max_size=3)


def build(spec):
    """The same polynomial as a QScalar and as a sympy expression."""
    s = ZERO
    e = sympy.Integer(0)
    for exp, re, im in spec:
        s = s + QScalar.monomial(exp, GRat(re, im))
        e = e + (sympy.Rational(re.numerator, re.denominator)
                 + sympy.I * sympy.Rational(im.numerator, im.denominator)) * Q**exp
    return s, e


def fraction_case():
    """A quotient of two such polynomials (non-monic, complex denominators
    included), as a QScalar and as a sympy expression."""

    def make(specs):
        (n, en), (d, ed) = build(specs[0]), build(specs[1])
        if d.is_zero():
            return n, en
        return n / d, en / ed

    return st.tuples(laurent_spec(), laurent_spec()).map(make)


def same(s: QScalar, expr) -> bool:
    data = s.to_json()

    def poly(obj):
        return sum(
            ((sympy.Rational(re) + sympy.I * sympy.Rational(im)) * Q**e
             for e, re, im in obj["terms"]),
            sympy.Integer(0),
        )

    mine = poly(data) if "terms" in data else poly(data["num"]) / poly(data["den"])
    return sympy.cancel(mine - expr) == 0


@given(fraction_case(), fraction_case(), laurent_spec().map(build))
@settings(max_examples=30)
def test_field_operations_match_sympy(a, b, p):
    (x, ex), (y, ey), (z, ez) = a, b, p
    assert same(x + y, ex + ey)
    assert same(x * y, ex * ey)
    assert same(x.subs_q_inverse(), ex.subs(Q, 1 / Q))
    assert same(x.conjugate(), sympy.conjugate(ex))
    if y.is_zero():
        return
    assert same(x / y, ex / ey)
    assert same((z * y) / y, ez)


@pytest.mark.parametrize("base", [1, 2, 4])
def test_q_binomial_matches_sympy(base):
    b = Q**base
    for n in range(11):
        for k in range(n + 1):
            want = sympy.Integer(1)
            for j in range(k):
                want *= (1 - b ** (n - j)) / (1 - b ** (j + 1))
            assert same(q_binomial(n, k, base), want), (n, k, base)


# -- canonical form ---------------------------------------------------------------

#: ``to_json`` of a few scalars, pinned from the Fraction-coefficient
#: implementation: rational, imaginary and non-monic denominators
PINNED = [
    (lambda: QScalar.from_rational(Fraction(-3, 7)) + QScalar.q(2).scale(Fraction(5, 6)),
     {"terms": [[0, "-3/7", "0"], [2, "5/6", "0"]]}),
    (lambda: QScalar.monomial(-2, GRat(Fraction(0), Fraction(-5, 3))) + I.shift(1),
     {"terms": [[-2, "0", "-5/3"], [1, "0", "1"]]}),
    (lambda: QScalar.monomial(1, GRat(Fraction(1, 2), Fraction(3, 4))),
     {"terms": [[1, "1/2", "3/4"]]}),
    (lambda: LAMBDA / q_factorial(2, 4),
     {"den": {"terms": [[0, "1", "0"], [4, "1", "0"]]},
      "num": {"terms": [[-1, "-1", "0"], [1, "1", "0"]]}}),
    (lambda: (ONE + QScalar.q(1)) / (QScalar.from_rational(2) + QScalar.q(2).scale(3)),
     {"den": {"terms": [[0, "2/3", "0"], [2, "1", "0"]]},
      "num": {"terms": [[0, "1/3", "0"], [1, "1/3", "0"]]}}),
    (lambda: QScalar.q(1) / (I + QScalar.q(1).scale(GRat(Fraction(2), Fraction(1)))),
     {"den": {"terms": [[0, "1/5", "2/5"], [1, "1", "0"]]},
      "num": {"terms": [[1, "2/5", "-1/5"]]}}),
    (lambda: (QScalar.q(-3) + I.shift(1))
     / (QScalar.q(2) * (ONE + I * QScalar.q(1))),
     {"den": {"terms": [[0, "0", "-1"], [1, "1", "0"]]},
      "num": {"terms": [[-5, "0", "-1"], [-1, "1", "0"]]}}),
    (lambda: q_number(3, 1).scale(Fraction(2, 9))
     / (LAMBDA_PLUS.scale(Fraction(3, 4)) + ONE),
     {"den": {"terms": [[0, "1", "0"], [1, "4/3", "0"], [2, "1", "0"]]},
      "num": {"terms": [[1, "8/27", "0"], [2, "8/27", "0"], [3, "8/27", "0"]]}}),
    # built with unreduced one-term denominators, reduced when read
    (lambda: QScalar.q(3).scale(Fraction(2, 4)),
     {"terms": [[3, "1/2", "0"]]}),
    (lambda: (QScalar.from_rational(Fraction(1, 3)) + QScalar.monomial(2, Fraction(5, 6)))
     .scale(Fraction(6, 4)),
     {"terms": [[0, "1/2", "0"], [2, "5/4", "0"]]}),
    (lambda: (QScalar.monomial(1, Fraction(2, 3))
              * QScalar.from_rational(Fraction(3, 4), Fraction(1, 2)))
     .subs_q_inverse().conjugate(),
     {"terms": [[-1, "1/2", "-1/3"]]}),
]


@pytest.mark.parametrize("index", range(len(PINNED)))
def test_pinned_canonical_json(index):
    make, want = PINNED[index]
    assert make().to_json() == want


def test_equal_values_hash_equal():
    q = QScalar.q(1)
    two = QScalar.from_rational(2)
    one_plus_i = QScalar.from_rational(1, 1)
    forms = [
        QScalar.monomial(1, 1),
        (q.scale(2)) / two,
        q * one_plus_i / one_plus_i,
        (q + q * q) / (ONE + q),
        QScalar.from_json({"num": {"terms": [[2, "3", "0"]]},
                           "den": {"terms": [[1, "3", "0"]]}}),
    ]
    for s in forms:
        assert s == forms[0] and hash(s) == hash(forms[0])
        assert s.to_json() == {"terms": [[1, "1", "0"]]}


def _count_reductions(monkeypatch) -> list:
    calls = []
    reduce = qarith._reduce

    def counting(*args):
        calls.append(1)
        return reduce(*args)

    monkeypatch.setattr(qarith, "_reduce", counting)
    return calls


@pytest.mark.parametrize("read", [
    QScalar.to_json, str, hash, lambda s: s.eval(1.5),
], ids=["to_json", "str", "hash", "eval"])
def test_a_fraction_is_reduced_when_read(monkeypatch, read):
    """The one reduction rule: building, adding, multiplying and scaling
    over one-term denominators reduces nothing; a value's first read
    reduces it once and a second read not again."""
    calls = _count_reductions(monkeypatch)
    third = QScalar.from_rational(Fraction(1, 3))
    five_sixths_q2 = QScalar.monomial(2, Fraction(5, 6))
    half_q = QScalar.q(1).scale(Fraction(2, 4))
    built = [
        third, five_sixths_q2, half_q,
        third + five_sixths_q2, third * five_sixths_q2,
        (third + half_q) * five_sixths_q2, half_q.scale(Fraction(3, 5)),
    ]
    assert calls == []
    for s in built:
        read(s)
        assert len(calls) == 1
        read(s)
        assert len(calls) == 1
        calls.clear()


def test_a_fraction_past_the_size_bound_is_reduced_at_once(monkeypatch):
    calls = _count_reductions(monkeypatch)
    assert len(q_number(30)._num) > QScalar._REDUCE_THRESHOLD
    s = ONE / q_number(30)
    assert len(calls) == 1
    s.to_json()
    hash(s)
    assert len(calls) == 1
    ONE / q_number(3)
    assert len(calls) == 1


def test_reduction_internals_stay_in_qarith():
    """No module but ``qarith`` names the constructors and the reduction
    that the one reduction rule is written with."""
    internals = {"_raw", "_reduce", "_canonical", "_reduce_inplace"}
    package = Path(__file__).resolve().parent.parent / "src" / "qeuclid"
    found = [
        f"{path.name}:{lineno} {word}"
        for path in sorted(package.glob("*.py"))
        if path.name != "qarith.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for word in re.findall(r"\w+", line)
        if word in internals
    ]
    assert not found, "qarith internals named outside qarith:\n  " + "\n  ".join(found)


def test_grat_is_a_value():
    a, b = GRat(Fraction(1, 2), Fraction(-3)), GRat(Fraction(1, 2), Fraction(-3))
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != GRat(Fraction(1, 2)) and a != (Fraction(1, 2), Fraction(-3))
    assert GRat() == GRat(Fraction(0), Fraction(0))
    assert GRat(Fraction(2)).im == 0
    with pytest.raises(AttributeError):
        a.re = Fraction(1)
    with pytest.raises(AttributeError):
        del a.im
    assert a == b


def test_every_frozen_class_is_a_value():
    """Each _Frozen subclass, built twice from equal arguments, gives equal
    values with equal hashes, a Name(slot=value, ...) repr and refused
    assignment, all from the base class alone."""
    import importlib
    import pkgutil

    import numpy as np

    import qeuclid
    from qeuclid.starcalc import P_SECTOR, Poly, X_SECTOR
    from qeuclid.qexp import Y_SECTOR
    from qeuclid.lattice import AxisFn

    for mod in pkgutil.iter_modules(qeuclid.__path__):
        importlib.import_module(f"qeuclid.{mod.name}")
    samples = {
        "GRat": lambda: (Fraction(1, 2), Fraction(-3)),
        "Sector": lambda: ("x", "y"),
        "DerivativeLabel": lambda: ("+", "hat", "right_bar", "upper"),
        "QLattice": lambda: (1.1, -10, 10),
        "_LogGaussian": lambda: (1.1, 0.3, 0.9, 0.35),
        "STerm": lambda: (0.5j, (1, 0, 2), (AxisFn(np.cos), None, AxisFn(np.cos))),
        "QExponential": lambda: ("x_ip", 2, Poly.one((X_SECTOR, P_SECTOR))),
        "Family": lambda: (("x_ip", 6), ("plain", "left_bar", "r"), "star_ip_x"),
        "TranslationResult": lambda: ("plus", Poly.one((X_SECTOR, Y_SECTOR))),
        "Hamiltonian": lambda: (Fraction(2),),
        "PlaneWave": lambda: ("u_lower", 2, 1, Fraction(3), Poly.one((X_SECTOR, P_SECTOR))),
        "MomentumPropagator": lambda: ("KR", -1, 3, Fraction(1, 2)),
        "Form": lambda: ("translation kind", ("plus", "plusbar"), "plus", ("expr",), False),
    }
    classes = qarith._Frozen.__subclasses__()
    assert sorted(cls.__name__ for cls in classes) == sorted(samples)
    for cls in classes:
        assert not {"__eq__", "__hash__", "__repr__"} & set(vars(cls)), cls
        a, b = cls(*samples[cls.__name__]()), cls(*samples[cls.__name__]())
        assert a == b and not a != b, cls
        values = [getattr(a, slot) for slot in cls.__slots__]
        try:
            hash(tuple(values))
        except TypeError:  # a Poly field: unhashable, as the class then is
            pass
        else:
            assert hash(a) == hash(b), cls
        fields = ", ".join(f"{slot}={value!r}" for slot, value in zip(cls.__slots__, values))
        assert repr(a) == f"{cls.__name__}({fields})"
        for slot in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(a, slot, getattr(b, slot))


@given(fraction_case())
@settings(max_examples=60)
def test_json_roundtrip_is_canonical(case):
    s, _ = case
    data = s.to_json()
    assert QScalar.from_json(data).to_json() == data
    assert hash(QScalar.from_json(data)) == hash(s)


# -- printing from the integer form -------------------------------------------------


def old_format(s: QScalar):
    """``to_json()`` and ``str()`` built from ``GRat`` coefficients, as
    before the integer formatter."""
    lead = s._lead_den()
    parts = [
        {e: GRat(Fraction(a, lead), Fraction(b, lead)) for e, (a, b) in terms.items()}
        for terms in ((s._num,) if len(s._den) == 1 else (s._num, s._den))
    ]

    def dump(terms):
        return {"terms": [[e, str(c.re), str(c.im)] for e, c in sorted(terms.items())]}

    def text(terms):
        if not terms:
            return "0"
        out = []
        for e, c in sorted(terms.items()):
            base = "" if e == 0 else ("q" if e == 1 else f"q^{e}")
            cs = str(c)
            if base and cs in ("1", "-1"):
                out.append(base if cs == "1" else f"-{base}")
            else:
                out.append(f"{cs}*{base}" if base else cs)
        return " + ".join(out).replace("+ -", "- ")

    if len(parts) == 1:
        return dump(parts[0]), text(parts[0])
    return (
        {"num": dump(parts[0]), "den": dump(parts[1])},
        f"({text(parts[0])})/({text(parts[1])})",
    )


@given(fraction_case())
@settings(max_examples=100)
def test_integer_formatting_matches_grat_formatting(case):
    s, _ = case
    assert (s.to_json(), str(s)) == old_format(s)


def test_formatting_builds_no_fraction(monkeypatch):
    made = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    num = LAMBDA.scale(Fraction(2, 3)) + QScalar.monomial(
        2, GRat(Fraction(1, 6), Fraction(-3, 4))
    )
    s = num / (q_factorial(2, 4).scale(Fraction(5, 7)) + I)
    assert "den" in s.to_json() and s._lead_den() > 1
    monkeypatch.setattr(qarith, "Fraction", Counting)
    s.to_json()
    str(s)
    assert made == []
    QScalar.from_json(s.to_json())  # the GRat constructors still build them
    assert made
