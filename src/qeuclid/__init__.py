"""Exact calculus on the three-dimensional q-deformed Euclidean space.

The package has three layers:

* exact symbolic algebra over Laurent polynomials in q (``qarith``,
  ``starcalc``, ``ncalgebra``, ``qcalculus``, ``qexp``),
* the free-particle layer: plane waves, phase factors, momentum-space
  propagators (``schrodinger``),
* a numeric q-lattice backend for integrals, wave packets and expectation
  values (``lattice``).  It is the only layer that needs numpy; ``QLattice``
  and ``StructuredFn`` load it on first access, so the exact layers start
  without numpy.

``verify`` drives the per-module property suites; ``cli`` is the command
line surface.
"""

from .qarith import (
    GRat,
    QScalar,
    LAMBDA,
    LAMBDA_PLUS,
    KAPPA,
    q_number,
    q_factorial,
    q_binomial,
    q_pochhammer,
)
from .starcalc import (
    Poly,
    Metric,
    coord_variable,
    star_product,
    conjugate,
)
from .qcalculus import DerivativeLabel, apply_derivative, inverse_partial
from .qexp import build_exponential, q_translate, q_invert
from .schrodinger import Hamiltonian, build_plane_wave, propagator_momentum

#: names this package re-exports from ``lattice``, loaded on first access
_LATTICE_NAMES = ("QLattice", "StructuredFn")

__all__ = [
    "GRat",
    "QScalar",
    "LAMBDA",
    "LAMBDA_PLUS",
    "KAPPA",
    "q_number",
    "q_factorial",
    "q_binomial",
    "q_pochhammer",
    "Poly",
    "Metric",
    "coord_variable",
    "star_product",
    "conjugate",
    "DerivativeLabel",
    "apply_derivative",
    "inverse_partial",
    "build_exponential",
    "q_translate",
    "q_invert",
    "Hamiltonian",
    "build_plane_wave",
    "propagator_momentum",
    "QLattice",
    "StructuredFn",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LATTICE_NAMES:
        from . import lattice

        return getattr(lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
