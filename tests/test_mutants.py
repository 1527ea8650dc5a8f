"""Every verify case can fail: one committed mutant per case.

Each entry of ``MUTANTS`` names a case of a ``verify`` suite and a wrong
variant of one engine function.  The variant is patched in where the suite
looks the function up (``verify.q_number``, not ``qarith.q_number``; a
``QScalar`` method on its class), the suite runs at its defaults, and the
named case must fail with a nonempty detail.  The mutants mutate the
engine, never the check.  Covered so far: the ``qarith`` suite.
"""

import pytest

from qeuclid import qarith, verify
from qeuclid.qarith import ONE, QScalar

#: (suite, case, owner, attribute, wrong variant built from the original)
MUTANTS = [
    ("qarith", "q-number additivity [[a+b]] = [[a]] + q^a [[b]]",
     verify, "q_number", lambda q_number: lambda a, b=1: q_number(a + (a == 5), b)),
    ("qarith", "Pascal-type identity for q-binomials (n <= 10)",
     verify, "q_binomial",
     lambda q_binomial: lambda n, k, b=1: q_binomial(n, k, b).shift(int(k == 2))),
    ("qarith", "q -> 1/q is an involution",
     QScalar, "subs_q_inverse", lambda subs: lambda s: subs(s) + ONE),
    ("qarith", "numeric evaluation is a ring homomorphism (1e-12)",
     QScalar, "__mul__",
     lambda mul: lambda a, b: (
         mul(a, b) + QScalar.q() if min(len(a._num), len(b._num)) >= 2 else mul(a, b))),
    ("qarith", "q-Pochhammer (z;q)_2 expansion",
     verify, "q_pochhammer", lambda poch: lambda z, k: poch(z, k + 1)),
]


@pytest.fixture
def fresh_caches():
    """Empty the q-number caches after a run, which a wrong product may have
    filled with wrong values."""
    yield
    qarith.q_number.cache_clear()
    qarith.q_factorial.cache_clear()


@pytest.mark.parametrize("suite, case, owner, attribute, wrong", MUTANTS,
                         ids=[m[1] for m in MUTANTS])
def test_the_case_fails_under_its_mutant(monkeypatch, fresh_caches,
                                         suite, case, owner, attribute, wrong):
    monkeypatch.setattr(owner, attribute, wrong(getattr(owner, attribute)))
    results = {c.name: c for c in verify.run_suite(suite).cases}
    assert not results[case].ok and results[case].detail, case


@pytest.mark.parametrize("suite", sorted({m[0] for m in MUTANTS}))
def test_every_case_of_a_covered_suite_has_a_mutant(suite):
    report = verify.run_suite(suite)
    assert not report.failures, report.render()
    assert [c.name for c in report.cases] == [m[1] for m in MUTANTS if m[0] == suite]
