"""Lattice star integrals against a dense Jackson sum of the star product, and
the memory of a process that evaluates many packets."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import qeuclid
from qeuclid.lattice import QLattice
from qeuclid.qcalculus import DerivativeLabel, apply_derivative
from qeuclid.schrodinger import gaussian_packet


def dense_integral(f) -> complex:
    """Jackson sum of f's values over the signed integration points of each
    slot, weighted by the slot's Jackson weights."""
    lat = f.lattice
    pts, weights = [], []
    for slot in range(3):
        x, w = lat.integration_points(slot), lat.integration_weights(slot)
        pts.append(np.concatenate([x, -x]))
        weights.append(np.concatenate([w, w]))
    return complex(np.einsum("ijk,i,j,k->", f.values_on(*pts), *weights))


@pytest.fixture(scope="module")
def operands():
    """c(t), c*(t) of a small criterion-10-style packet at t = 0.1, and the
    right-bar derivative of c*(t) that the position expectation integrates."""
    lat = QLattice(1.1, -6, 6)
    wp = gaussian_packet(
        lat, Fraction(2), center_j=0.3, width_j=0.9, odd_fraction=0.35, phase_order=20
    )
    ct, cst = wp.coefficients_at(0.1)
    acted = apply_derivative(DerivativeLabel("+", "plain", "right_bar", "upper"), cst)
    return {"c": ct, "cstar": cst, "right_bar": acted}


@pytest.mark.parametrize(
    "left, right, mirror",
    [
        ("cstar", "c", False),
        ("c", "cstar", True),
        ("right_bar", "c", False),
        ("c", "right_bar", True),
    ],
)
def test_star_integral_is_dense_jackson_sum(operands, left, right, mirror):
    a, b = operands[left], operands[right]
    want = dense_integral(a.star_wt(b) if mirror else a.star(b))
    got = a.star_integral(b, mirror=mirror)
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


#: run in a fresh interpreter: ten packets with distinct centres, each with
#: one norm and one position expectation at t > 0
MEMORY_SCRIPT = """
import resource
from fractions import Fraction
from qeuclid.lattice import QLattice
from qeuclid.schrodinger import gaussian_packet

lat = QLattice(1.1, -12, 12)
peaks = []
for i in range(10):
    wp = gaussian_packet(lat, Fraction(2), center_j=0.1 + 0.04 * i, width_j=0.9,
                         odd_fraction=0.35, phase_order=20)
    assert wp.norm_check(0.1) <= 1e-10
    wp.expectation_position("+", 0.1)
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
print(peaks[0], peaks[-1])
"""


def test_memory_bounded_over_many_packets():
    src = os.path.dirname(os.path.dirname(qeuclid.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    first, last = map(int, proc.stdout.split())
    assert last <= 1.05 * first, (first, last)
