from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeuclid.qarith import (
    ExactnessError,
    GRat,
    QScalar,
    ONE,
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
            (QScalar.monomial(e, c) for e, c in items), QScalar.zero()
        )
    )


@given(scalar_strategy(), scalar_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(scalar_strategy(), scalar_strategy(), scalar_strategy())
@settings(max_examples=40, deadline=None)
def test_ring_associativity_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalar_strategy())
@settings(max_examples=60, deadline=None)
def test_substitution_involution(s):
    assert s.subs_q_inverse().subs_q_inverse() == s
    assert s.conjugate().conjugate() == s


@given(scalar_strategy(), scalar_strategy())
@settings(max_examples=40, deadline=None)
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
    want = q_factorial(4, 4).exact_div(q_factorial(2, 4) * q_factorial(2, 4))
    assert q_binomial(4, 2, 4) == want


def test_q_binomial_rejects_bad_args():
    with pytest.raises(ValueError):
        q_binomial(2, 3)
    with pytest.raises(ValueError):
        q_binomial(-1, 0)


def test_q_binomial_stays_in_the_ring():
    for n in range(9):
        for k in range(n + 1):
            assert q_binomial(n, k, 4).is_polynomial()


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


def test_exact_div_guard():
    with pytest.raises(ExactnessError):
        (ONE + QScalar.q(1)).exact_div(ONE + QScalar.q(2))


def test_json_roundtrip_fraction():
    s = LAMBDA / q_factorial(2, 4) + QScalar.monomial(-3, GRat(Fraction(1, 7)))
    assert QScalar.from_json(s.to_json()) == s
    plain = q_number(4, 2)
    data = plain.to_json()
    assert set(data) == {"terms"}  # ring elements keep the plain schema
