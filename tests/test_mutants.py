"""Every verify case can fail: one committed mutant per case.

Each entry of ``MUTANTS`` names a case of a ``verify`` suite and a wrong
variant of one engine function.  The variant is patched in where the suite
looks the function up (``verify.q_number``, not ``qarith.q_number``; a
``QScalar`` method on its class), the suite runs at its defaults, and the
named case must fail with a nonempty detail.  The mutants mutate the
engine, never the check.  The ``ncalgebra`` suite looks its names up in
``ncalgebra``, and the ``starcalc`` and ``qcalculus`` suites import from
their modules (and ``lattice``) when they run, so each is patched there.
Covered so far: the ``qarith``, ``ncalgebra``, ``starcalc`` and
``qcalculus`` suites.
"""

from itertools import islice

import numpy as np
import pytest

from qeuclid import ncalgebra, qarith, qcalculus, starcalc, verify
from qeuclid.lattice import StructuredFn
from qeuclid.ncalgebra import X3, XP
from qeuclid.qarith import ONE, ZERO, QScalar
from qeuclid.starcalc import Metric

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
    # X3 X+ = q^3 X+ X3: an overlap such as X- X3 X+ then reduces differently
    # from either end
    ("ncalgebra", "confluence: reduction strategy independence",
     ncalgebra, "_swap_pair",
     lambda swap: lambda u, v, convention: (
         (((XP, X3), {3: (1, 0)}),) if (u, v, convention) == (X3, XP, "W")
         else swap(u, v, convention))),
    # the fold reads the first letter of an odd-length word twice
    ("ncalgebra", "normal ordering preserves total degree",
     ncalgebra, "normal_order",
     lambda order: lambda f, convention="W", strategy="leftmost": order(
         {(w[:1] + w if len(w) % 2 else w): c for w, c in f.items()}, convention, strategy)),
    ("ncalgebra", "weyl_unmap o weyl_map = id (100 random)",
     ncalgebra, "_mono_from_word",
     lambda mono: lambda word, convention: (mono(word, convention)[0], 0)),
    ("ncalgebra", "Weyl homomorphism: oracle route equals star product",
     ncalgebra, "nc_multiply", lambda mul: lambda a, b: mul(b, a)),
    ("starcalc", "defining coordinate relations",
     starcalc, "star_product", lambda star: lambda f, g: star(g, f)),
    ("starcalc", "star associativity (random triples)",
     starcalc, "_star_coeff",
     lambda coeff: lambda c1, a2, k, m: coeff(c1, a2, k, m).shift(int(k == 2))),
    ("starcalc", "conjugation anti-multiplicativity",
     starcalc, "conjugate", lambda conj: lambda f: conj(f).scale(QScalar.q())),
    ("starcalc", "classical limit: star at q=1 is the plain product",
     starcalc, "_star_coeff",
     lambda coeff: lambda c1, a2, k, m: coeff(c1, a2, k, m) + (ONE if k == 0 else ZERO)),
    # a left operand holding t picks up a factor q: t is not central
    ("starcalc", "t is central",
     starcalc, "star_product",
     lambda star: lambda f, g: (
         star(f, g).scale(QScalar.q()) if any(t for _, t in f.terms) else star(f, g))),
    ("starcalc", "metric contraction p^A * p_A",
     starcalc, "coord",
     lambda coord: lambda kind, index, position="upper", convention="W": coord(
         kind, Metric.partner[index], position, convention)),
    ("starcalc", "raise(lower(v)) = v",
     Metric, "lower", lambda lower: lambda a: (lower(a)[0], lower(a)[1].shift(1))),
    ("starcalc", "JSON round trip is byte-stable",
     starcalc, "coord_poly_from_json",
     lambda from_json: lambda data: from_json(
         {**data, "terms": [[[c, b, a, t], coeff] for (a, b, c, t), coeff in data["terms"]]})),
    # d_+ acts as d_-: a swapped index partner
    ("qcalculus", "d_A |> x^B = delta",
     qcalculus, "_left_rep",
     lambda rep: lambda index, f, s, m: rep({"+": "-"}.get(index, index), f, s, m)),
    # the mirror keeps the index: the hatted family acts at the unswapped one
    ("qcalculus", "hat family is the substituted plain family",
     qcalculus, "_mirror",
     lambda mirror: lambda index, m: (index, 2, 0) if m < 0 else mirror(index, m)),
    # the d- series stops after its first term
    ("qcalculus", "inverse derivatives: round trips",
     qcalculus, "_orbit", lambda orbit: lambda g, step: islice(orbit(g, step), 1)),
    # D_Q steps by q0^(k+1) on a lattice of base q0^k: its sum no longer telescopes
    ("qcalculus", "lattice Stokes theorem (both families, 1e-10)",
     StructuredFn, "jackson_d",
     lambda jd: lambda f, s, slot, base_exp: jd(f, s, slot, base_exp + 1)),
    # the inverse diagonal of O_3^3 loses its last slot's q^-2
    ("qcalculus", "lattice integration by parts (plain family, 1e-9)",
     qcalculus, "_ADJ_DIAG_INV", lambda diag: {**diag, "3": (-2, -2, 0)}),
    ("qcalculus", "conjugation of integrals (1e-10)",
     StructuredFn, "conjugate", lambda conj: lambda f: -conj(f)),
    # the first slot read one shell further out than asked
    ("qcalculus", "dense Jackson derivative is the exact difference quotient",
     StructuredFn, "values_on",
     lambda values_on: lambda f, js1, js2, js3: values_on(f, np.add(js1, 1), js2, js3)),
]


#: the engine's cached functions, held here: a mutant may stand in their place
CACHED = (qarith.q_number, qarith.q_factorial, starcalc._star_coeff)


def _clear_caches():
    for fn in CACHED:
        fn.cache_clear()
    for table in ncalgebra._INSERT_TABLES.values():
        table.clear()


@pytest.fixture
def fresh_caches():
    """Empty the engine's caches before a run, whose kept values would hide
    a mutant, and after it, which a mutant may have filled with wrong
    values."""
    _clear_caches()
    yield
    _clear_caches()


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
