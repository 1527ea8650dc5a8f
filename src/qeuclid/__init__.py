"""Exact calculus on the three-dimensional q-deformed Euclidean space.

The package has three layers:

* exact symbolic algebra over Laurent polynomials in q (``qarith``,
  ``starcalc``, ``ncalgebra``, ``qcalculus``, ``qexp``),
* the free-particle layer: plane waves, phase factors, momentum-space
  propagators (``schrodinger``),
* a numeric q-lattice backend for integrals, wave packets and expectation
  values (``lattice``).  It is the only layer that needs numpy.

``verify`` drives the per-module property suites; ``cli`` is the command
line surface.

Importing the package loads none of them.  Every re-export below and every
submodule (``qeuclid.lattice``, ...) loads on first access, so a process
pays only for the layers it uses: the exact layers start without numpy,
and ``qeuclid parse`` without the calculus.
"""

import sys

#: each re-exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("GRat", "QScalar", "LAMBDA", "LAMBDA_PLUS", "KAPPA",
         "q_number", "q_factorial", "q_binomial", "q_pochhammer"),
        "qarith",
    ),
    **dict.fromkeys(
        ("Poly", "Metric", "coord_variable", "star_product", "conjugate"), "starcalc"
    ),
    **dict.fromkeys(("DerivativeLabel", "apply_derivative", "inverse_partial"), "qcalculus"),
    **dict.fromkeys(("build_exponential", "q_translate", "q_invert"), "qexp"),
    **dict.fromkeys(("Hamiltonian", "build_plane_wave", "propagator_momentum"), "schrodinger"),
    **dict.fromkeys(("QLattice", "StructuredFn"), "lattice"),
}

_SUBMODULES = (
    "qarith", "starcalc", "ncalgebra", "qcalculus", "qexp",
    "schrodinger", "lattice", "verify", "dsl", "cli",
)

__all__ = list(_EXPORTS)

__version__ = "0.1.0"

#: the highest truncation order of an exact series: ``exp[...](N)`` in
#: ``dsl``, and ``propagator --order``, ``verify --N`` and ``--K`` and a
#: packet file's ``phase_order`` in ``cli``.  Term count, time and printed
#: size grow steeply with the order (a propagator takes 0.3 s at order 20,
#: 15 s at 40).  It lives here so that ``cli`` can check an order without
#: loading ``dsl``.
MAX_ORDER = 20


def __getattr__(name):
    module = _EXPORTS.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # as an import statement: -X importtime shows it
    value = sys.modules[f"{__name__}.{module}"]
    return value if module == name else getattr(value, name)
