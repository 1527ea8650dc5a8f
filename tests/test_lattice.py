"""Lattice star integrals against a dense Jackson sum of the star product, and
the memory of a process that evaluates many packets."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import qeuclid
from qeuclid import lattice
from qeuclid.lattice import QLattice, _profiles
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
    right-bar derivatives of c*(t) that the position expectation integrates,
    at the upper and the lower index.  The lower one has 275 terms, negative
    degrees on both enveloped slots and many middle-slot profiles."""
    lat = QLattice(1.1, -6, 6)
    wp = gaussian_packet(
        lat, Fraction(2), center_j=0.3, width_j=0.9, odd_fraction=0.35, phase_order=20
    )
    ct, cst = wp.coefficients_at(0.1)
    return {
        "c": ct,
        "cstar": cst,
        **{
            name: apply_derivative(DerivativeLabel("+", "plain", "right_bar", position), cst)
            for name, position in (("right_bar", "upper"), ("right_bar_lower", "lower"))
        },
    }


@pytest.mark.parametrize(
    "left, right, mirror",
    [
        ("cstar", "c", False),
        ("c", "cstar", True),
        ("right_bar", "c", False),
        ("c", "right_bar", True),
        ("right_bar_lower", "c", False),
        ("c", "right_bar_lower", True),
    ],
)
def test_star_integral_is_dense_jackson_sum(operands, left, right, mirror):
    a, b = operands[left], operands[right]
    want = dense_integral(a.star_wt(b) if mirror else a.star(b))
    got = a.star_integral(b, mirror=mirror)
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


@pytest.mark.parametrize("block", [1, 100, 2000])
@pytest.mark.parametrize("left, right, mirror", [("right_bar_lower", "c", False),
                                                 ("c", "right_bar_lower", True)])
def test_star_integral_does_not_depend_on_blocks(operands, monkeypatch, left, right, mirror,
                                                 block):
    """Blocks hold whole left terms: at 1 each holds one, at 100 and 2000 the
    block edges fall between left terms at other places than by default."""
    a, b = operands[left], operands[right]
    want = a.star_integral(b, mirror=mirror)
    monkeypatch.setattr(lattice, "_BLOCK_TRIPLES", block)
    assert len(list(a._star_triples(b, mirror))) > 1
    got = a.star_integral(b, mirror=mirror)
    assert abs(got - want) <= 1e-13 * abs(want), (got, want)


def test_star_integral_of_an_empty_operand_is_zero(operands):
    c, acted = operands["c"], operands["right_bar_lower"]
    empty = c - c
    assert empty.is_zero()
    for a, b, mirror in ((empty, c, False), (acted, empty, False),
                         (c, empty, True), (empty, acted, True), (empty, empty, False)):
        assert a.star_integral(b, mirror=mirror) == 0j


def test_profiles_decode_to_each_factor():
    """Each factor's decoded profile is its own (root, offset) per position,
    with an absent envelope's offset read as 0, and equal profiles share a
    row."""
    rng = np.random.default_rng(7)
    n = 500
    columns = [(rng.integers(0, 4, n), rng.integers(-9, 7, n)),
               (rng.integers(0, 3, n), rng.integers(2, 5, n))]
    idx, off, profile = _profiles(columns)
    for p, (root, offset) in enumerate(columns):
        assert np.array_equal(idx[profile, p], root)
        assert np.array_equal(off[profile, p], np.where(root > 0, offset, 0))
    assert len(np.unique(np.concatenate([idx, off], axis=1), axis=0)) == len(idx)


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
