"""Numeric q-lattice backend: Jackson integrals, the lattice carrier, wave
packets' raw material.

Points live on the geometric lattice {+- q0^j : j_min <= j <= j_max} per
axis.  The integral over all space is the nested Jackson sum on the smaller
lattice: base q^2 on the outer axes and q on the middle one, with the fixed
coset offsets (0, 0, 1), which make the integral exactly compatible with
quantum space conjugation.

The carrier, :class:`StructuredFn`, is a finite sum  coeff * monomial *
per-axis envelopes, each envelope (:class:`AxisFn`) a product of leaves
x -> base(+-q0^m x).  Every envelope operation (slot scalings, conjugation,
Jackson shifts) dilates by +-q0^m, which is arithmetic on the leaves and, on
the lattice, an index shift plus a branch swap.  The carrier supports an
exact star product against operands whose coupled axes are envelope-free
(the pairing classes used by the expectation-value suite), because the
star's degree-coupled scaling operators then act as such dilations.

One routine, :func:`_axis_rows`, samples envelopes on the integration
lattice; it keeps nothing between calls.  An integral writes each envelope as
a root and an offset (the root dilated by q0^offset), so every dilation of
one envelope shares its root.  :func:`_profiles` codes each factor's dilated
envelope product as one integer and finds the distinct ones;
:func:`_factor_sums` samples each of them once and reduces all of them
against every monomial degree in one matrix product.
:meth:`StructuredFn.values_on` evaluates a carrier at arbitrary points, for
export and for pointwise checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qarith import QScalar

#: byte bound on one gathered block of envelope samples in _axis_rows
_BLOCK_BYTES = 1 << 20
#: bound on the (left term, right term, k) triples a star integral reduces at once
_BLOCK_TRIPLES = 1 << 13
#: per-slot Jackson bases of the all-space integral, as exponents of q0
STEPS = (2, 1, 2)
#: the residue class of j (mod the slot's step) each slot sums over
COSETS = (0, 0, 1)


@dataclass(frozen=True)
class QLattice:
    """Grid config: base q0 > 1 and the exponent window [j_min, j_max].

    The all-space integral sums slot s over the window's j with
    j = COSETS[s] mod STEPS[s], weighted by the Jackson weights of base
    q0^STEPS[s]: the smaller-lattice integral with conjugation-compatible
    offsets.  The window's end points q0^j_min and q0^j_max must be normal
    floats.
    """

    q0: float
    j_min: int = -20
    j_max: int = 20

    def __post_init__(self):
        if not self.q0 > 1:
            raise ValueError("q0 must be > 1")
        if self.j_min > self.j_max:
            raise ValueError("empty lattice window")
        for j in (self.j_min, self.j_max):
            try:
                x = float(self.q0) ** j
            except OverflowError:
                x = math.inf
            if not sys.float_info.min <= x < math.inf:
                raise ValueError(f"q0^{j} is not a normal float")

    def js(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)

    def axis_values(self) -> np.ndarray:
        return self.q0 ** self.js().astype(float)

    def integration_js(self, slot: int) -> np.ndarray:
        js = self.js()
        return js[js % STEPS[slot] == COSETS[slot]]

    def integration_points(self, slot: int) -> np.ndarray:
        """q0^j for the slot's sub-lattice."""
        return self.q0 ** self.integration_js(slot).astype(float)

    def integration_weights(self, slot: int) -> np.ndarray:
        """(Q - 1) q0^j for the slot's sub-lattice, Q = q0^step."""
        return (self.q0 ** STEPS[slot] - 1.0) * self.integration_points(slot)


# -- per-axis envelopes ---------------------------------------------------------


class AxisFn:
    """A per-axis envelope: a product of leaves.

    A leaf ``(base, m, sign, conj)`` is the function
    x -> base(sign * q0^m * x), complex-conjugated when ``conj`` is set;
    ``AxisFn(fn)`` is the single leaf ``(fn, 0, 1, False)``.  Bases must be
    vectorized over numpy arrays and defined on the whole real line minus
    zero (they are evaluated at dilated lattice points of either sign).
    Envelopes are values: equal leaf products compare and hash equal, so
    carriers merge equal terms without any identity bookkeeping.
    """

    __slots__ = ("leaves",)

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.leaves = ((fn, 0, 1, False),)

    @classmethod
    def _of(cls, leaves) -> "AxisFn":
        env = object.__new__(cls)
        env.leaves = tuple(sorted(leaves, key=lambda lf: (id(lf[0]),) + lf[1:]))
        return env

    def __eq__(self, other):
        return isinstance(other, AxisFn) and self.leaves == other.leaves

    def __hash__(self):
        return hash(self.leaves)

    def values(self, x, q0: float) -> np.ndarray:
        """The envelope at the points x of a lattice with base q0."""
        x = np.asarray(x, dtype=float)
        out = 1.0
        for base, m, sign, conj in self.leaves:
            v = base(sign * q0**m * x)
            out = out * (np.conjugate(v) if conj else v)
        return out

    def __call__(self, x):
        """Values of an envelope no carrier has dilated."""
        if any(m for _, m, _, _ in self.leaves):
            raise ValueError("a dilated envelope needs its lattice: use values(x, q0)")
        return self.values(x, 1.0)


def _dilate(env, m: int, sign: int = 1, conj: bool = False):
    """x -> env(sign * q0^m * x), complex-conjugated if ``conj``; the
    absent envelope (None, the constant 1) stays absent."""
    if env is None or (m == 0 and sign == 1 and not conj):
        return env
    return AxisFn._of(
        (base, bm + m, bs * sign, bc != conj) for base, bm, bs, bc in env.leaves
    )


def _times(e1, e2):
    if e1 is None:
        return e2
    if e2 is None:
        return e1
    return AxisFn._of(e1.leaves + e2.leaves)


def _with(items: tuple, slot: int, value) -> tuple:
    return items[:slot] + (value,) + items[slot + 1 :]


def log_gaussian(
    lattice: QLattice,
    center_j: float = 0.0,
    width_j: float = 2.0,
    amplitude: complex = 1.0,
) -> AxisFn:
    """exp(-((ln|x|/ln q0 - center)^2) / (2 width^2)): a Gaussian in the
    lattice index, decaying toward both 0 and infinity; sign-symmetric."""
    lnq = np.log(lattice.q0)
    c, w = float(center_j), float(width_j)

    def fn(x):
        j = np.log(np.abs(x)) / lnq
        return amplitude * np.exp(-((j - c) ** 2) / (2.0 * w * w))

    return AxisFn(fn)


def odd_log_gaussian(lattice: QLattice, center_j=0.0, width_j=2.0) -> AxisFn:
    """Sign-odd variant (vanishing integral by symmetry)."""
    base = log_gaussian(lattice, center_j, width_j)

    def fn(x):
        return np.sign(x) * base(x)

    return AxisFn(fn)


def _canonical(envs):
    """Each envelope as a root and an offset: the offset is its smallest leaf
    shift m, the root the envelope dilated by q0^-m, so that every dilation
    of one envelope has the same root.  Returns ``(roots, idx, off)``: the
    distinct roots as a list whose entry 0 is None (the constant 1), and per
    envelope its root's index and its offset; the absent envelope is (0, 0).
    """
    roots: dict = {}
    idx = np.zeros(len(envs), dtype=int)
    off = np.zeros(len(envs), dtype=int)
    for e, env in enumerate(envs):
        if env is not None:
            m = min(leaf[1] for leaf in env.leaves)
            idx[e], off[e] = roots.setdefault(_dilate(env, -m), len(roots) + 1), m
    return [None, *roots], idx, off


def _axis_rows(lat: QLattice, slot: int, roots, root_idx, offsets):
    """Weighted samples of envelope profiles on the slot's integration
    lattice, yielded as ``(start, rows)`` blocks of consecutive profiles.

    Profile f is the product over p of the envelope ``roots[root_idx[f, p]]``
    (None is the constant 1) dilated by q0^offsets[f, p].  Its row holds
    w_j (product)(s x_j) for the signs s = +1, -1 (axis 1) and the
    integration points x_j with Jackson weights w_j (axis 2); it carries no
    monomial.  Each distinct base is evaluated once, on the index window the
    leaves' shifts reach.  A window holding no j of the slot's coset (one
    exponent only) yields no block: the slot's rows are empty and its
    integrals 0.
    """
    n_f, n_p = root_idx.shape
    js = lat.integration_js(slot)
    if n_f == 0 or js.size == 0:
        return
    # each root's leaves as integer arrays, padded with base row 0 (= 1)
    n_l = max([len(e.leaves) for e in roots if e is not None], default=1)
    lb, lm, ls, lc = (np.zeros((len(roots), n_l), dtype=int) for _ in range(4))
    bases: dict = {}
    for e, env in enumerate(roots):
        for l, (base, m, sign, conj) in enumerate(env.leaves if env is not None else ()):
            lb[e, l] = bases.setdefault(base, len(bases) + 1)
            lm[e, l], ls[e, l], lc[e, l] = m, sign < 0, conj
    lb, ls, lc = lb[root_idx], ls[root_idx], lc[root_idx]
    m_all = np.where(lb > 0, lm[root_idx] + offsets[:, :, None], 0)
    lo = js[0] + m_all.min()
    pts = lat.q0 ** np.arange(lo, js[-1] + m_all.max() + 1).astype(float)
    table = np.ones((len(bases) + 1, 2, 2, pts.size), dtype=complex)  # base, conj, sign, j
    for base, b in bases.items():
        table[b, 0] = base(pts), base(-pts)
    table[:, 1] = np.conjugate(table[:, 0])
    weights = lat.integration_weights(slot)
    step = max(1, _BLOCK_BYTES // (n_p * n_l * 2 * js.size * 16))
    sign_row = np.arange(2)[:, None]
    for start in range(0, n_f, step):
        blk = slice(start, start + step)
        vals = table[
            lb[blk, :, :, None, None],
            lc[blk, :, :, None, None],
            sign_row ^ ls[blk, :, :, None, None],
            m_all[blk, :, :, None, None] + (js - lo),
        ]
        yield start, np.prod(vals, axis=(1, 2)) * weights


def _profiles(columns):
    """The distinct envelope profiles among n factors, as ``(idx, off, profile)``.

    ``columns`` holds one ``(root_idx, offsets)`` pair of 1-D arrays per
    envelope position p.  Factor f is coded as one int64 mixed-radix
    number, built position by position: the digit of p is the root index
    times the position's offset span, plus the offset above the least of 0
    and the position's offsets (an absent envelope's offset counts as 0).
    One ``np.unique`` over the codes finds the distinct profiles; their
    codes are decoded into the ``(n_u, n_p)`` arrays ``idx`` and ``off``
    that :func:`_axis_rows` takes, and ``profile[f]`` is factor f's row in
    them.  The code space, the product of (roots x span) over the
    positions, stays far inside int64 for the one or two positions of an
    integral."""
    code = np.zeros(len(columns[0][0]), dtype=np.int64)
    radices = []
    for root, offset in columns:
        offset = np.where(root > 0, offset, 0)
        lo = offset.min(initial=0)
        span = offset.max(initial=0) - lo + 1
        radix = (root.max(initial=0) + 1) * span
        code = code * radix + (root * span + (offset - lo))
        radices.append((lo, span, radix))
    assert math.prod(int(r) for _, _, r in radices) < 1 << 63
    codes, profile = np.unique(code, return_inverse=True)
    idx = np.empty((len(codes), len(columns)), dtype=int)
    off = np.empty_like(idx)
    for p in reversed(range(len(columns))):
        lo, span, radix = radices[p]
        codes, digit = np.divmod(codes, radix)
        idx[:, p], off[:, p] = np.divmod(digit, span)
        off[:, p] += lo
    return idx, off, profile


def _profile_rows(lat: QLattice, slot: int, roots, idx, off) -> np.ndarray:
    """:func:`_axis_rows` of the profiles ``(idx, off)``, one flat row each."""
    out = np.empty((len(idx), 2 * lat.integration_js(slot).size), dtype=complex)
    for start, rows in _axis_rows(lat, slot, roots, idx, off):
        out[start : start + len(rows)] = rows.reshape(len(rows), -1)
    return out


def _reduce(lat: QLattice, slot: int, rows, profile, ns) -> np.ndarray:
    """Per-factor integrals: factor f is x^ns[f] times the sampled profile
    ``rows[profile[f]]``.  Degrees index the range ns.min() .. ns.max();
    all profiles are reduced in one matrix product against the degrees
    present, found by counting, without sorting.  Absent degrees get no
    column: a star's middle-slot degrees b1 + b2 + 2k often take every
    other value, and a product twice as wide would also cross the size at
    which the BLAS starts a second thread."""
    lo = ns.min()
    d = ns - lo
    present = np.bincount(d) > 0
    degrees = lo + np.flatnonzero(present)
    xs = lat.integration_points(slot)
    mono = (np.stack([xs, -xs]) ** degrees[:, None, None]).reshape(len(degrees), -1)
    sums = np.zeros((len(rows), len(present)), dtype=complex)
    sums[:, present] = rows @ mono.T
    return sums[profile, d]


def _factor_sums(lat: QLattice, slot: int, roots, columns, ns) -> np.ndarray:
    """Per-factor integrals over one axis: factor f is x^ns[f] times the
    product over positions p of the envelope ``roots[root_idx]`` dilated by
    q0^offsets, for ``(root_idx, offsets) = columns[p]`` at f.

    Each distinct profile (:func:`_profiles`) is sampled once.  For n
    factors the arrays held are O(n): the codes, and at most n sampled rows
    of 2 x (integration points) values, reduced in :func:`_reduce`."""
    if not len(ns):
        return np.zeros(0, dtype=complex)
    idx, off, profile = _profiles(columns)
    return _reduce(lat, slot, _profile_rows(lat, slot, roots, idx, off), profile, ns)


def _falling(dmax: int, Q: float) -> np.ndarray:
    """The q-falling factorials [[d]]_Q [[d-1]]_Q ... [[d-k+1]]_Q at [d, k]
    for 0 <= k <= d <= dmax; [k, k] is [[k]]_Q!."""
    qn = np.concatenate([[0.0], np.cumsum(Q ** np.arange(dmax, dtype=float))])
    fall = np.zeros((dmax + 1, dmax + 1))
    for d in range(dmax + 1):
        fall[d, : d + 1] = np.cumprod(np.concatenate([[1.0], qn[d:0:-1]]))
    return fall


# -- structured carrier -----------------------------------------------------------


@dataclass(frozen=True)
class STerm:
    coeff: complex
    exps: tuple[int, int, int]
    envs: tuple[AxisFn | None, AxisFn | None, AxisFn | None]


class ClassConstraintError(ValueError):
    """An exact lattice star product needs the coupled axes envelope-free."""


class StructuredFn:
    """Finite sum of  coeff * (slot monomial) * (per-axis envelopes).

    Slot degrees are integers; a negative degree appears only on an
    enveloped slot, after a Jackson derivative.  Envelopes are
    :class:`AxisFn` values or None; terms with equal degrees and equal
    envelopes are merged on construction.

    Implements the same operand interface as the symbolic carrier
    (`jackson_d`, `scale_slot`, `mul_slot_var`, `scale_q`, `conjugate`,
    arithmetic), so the derivative representations in
    :mod:`qeuclid.qcalculus` apply unchanged.  ``sector_kind`` is "x" or
    "p"; slot order matches the symbolic carriers.
    """

    __slots__ = ("lattice", "sector_kind", "terms")

    def __init__(self, lattice: QLattice, sector_kind: str, terms: Sequence[STerm]):
        self.lattice = lattice
        self.sector_kind = sector_kind
        acc: dict = {}
        for t in terms:
            if t.coeff == 0:
                continue
            key = (t.exps, t.envs)
            prev = acc.get(key)
            if prev is None:
                acc[key] = t
            else:
                c = prev.coeff + t.coeff
                if c == 0:
                    del acc[key]
                else:
                    acc[key] = STerm(c, prev.exps, prev.envs)
        self.terms = list(acc.values())

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_envelopes(
        lattice: QLattice,
        sector_kind: str,
        envs,
        exps=(0, 0, 0),
        coeff: complex = 1.0,
    ) -> "StructuredFn":
        return StructuredFn(
            lattice, sector_kind, [STerm(coeff, tuple(exps), tuple(envs))]
        )

    @staticmethod
    def from_poly(lattice: QLattice, poly, t0: complex = 0.0) -> "StructuredFn":
        """Evaluate a single-sector symbolic Poly's coefficients at q0 (and
        the central time at t0) and wrap it as an envelope-free carrier."""
        if len(poly.sectors) != 1:
            raise ValueError("from_poly needs a single-sector polynomial")
        terms = []
        for (triples, t), coeff in poly.terms.items():
            c = coeff.eval(lattice.q0)
            if t:
                c = c * t0**t
            terms.append(STerm(c, triples[0], (None, None, None)))
        return StructuredFn(lattice, poly.sectors[0].kind, terms)

    def _new(self, terms) -> "StructuredFn":
        return StructuredFn(self.lattice, self.sector_kind, terms)

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "StructuredFn") -> "StructuredFn":
        if other.sector_kind != self.sector_kind:
            raise ValueError("sector mismatch")
        return self._new(list(self.terms) + list(other.terms))

    def __sub__(self, other: "StructuredFn") -> "StructuredFn":
        return self + (-other)

    def __neg__(self) -> "StructuredFn":
        return self._new(
            [STerm(-t.coeff, t.exps, t.envs) for t in self.terms]
        )

    def scale_complex(self, c: complex) -> "StructuredFn":
        return self._new(
            [STerm(t.coeff * c, t.exps, t.envs) for t in self.terms]
        )

    def scale_q(self, s: QScalar) -> "StructuredFn":
        return self.scale_complex(s.eval(self.lattice.q0))

    def is_zero(self) -> bool:
        return not self.terms

    # -- operand interface for the derivative representations ----------------

    def jackson_d(self, sector_index: int, slot: int, base_exp: int) -> "StructuredFn":
        """D_Q on one slot, Q = q0^base_exp, through the identity
        D_Q(x^n e) = x^(n-1) (Q^n e(Qx) - e(x)) / (Q - 1), which holds for
        every integer n.  On an envelope-free slot the two terms merge into
        [[n]]_Q x^(n-1), and cancel for n = 0."""
        assert sector_index == 0
        Q = self.lattice.q0**base_exp
        out = []
        for t in self.terms:
            n = t.exps[slot]
            exps = _with(t.exps, slot, n - 1)
            shifted = _with(t.envs, slot, _dilate(t.envs[slot], base_exp))
            out.append(STerm(t.coeff * Q**n / (Q - 1.0), exps, shifted))
            out.append(STerm(-t.coeff / (Q - 1.0), exps, t.envs))
        return self._new(out)

    def jackson_d_inv(self, *args):
        raise NotImplementedError("antiderivatives act on symbolic carriers")

    def scale_slot(self, sector_index: int, slot: int, q_exp: int) -> "StructuredFn":
        assert sector_index == 0
        factor = self.lattice.q0**q_exp
        out = []
        for t in self.terms:
            envs = _with(t.envs, slot, _dilate(t.envs[slot], q_exp))
            out.append(STerm(t.coeff * factor ** t.exps[slot], t.exps, envs))
        return self._new(out)

    def mul_slot_var(self, sector_index: int, slot: int, power: int = 1) -> "StructuredFn":
        assert sector_index == 0
        return self._new(
            [STerm(t.coeff, _with(t.exps, slot, t.exps[slot] + power), t.envs) for t in self.terms]
        )

    def d_dt(self):
        raise NotImplementedError("lattice carriers hold no symbolic time")

    # -- structure maps -------------------------------------------------------

    def conjugate(self) -> "StructuredFn":
        """Quantum space conjugation; swaps the outer axes with the metric's
        sign and scale factors and conjugates envelopes at dilated
        arguments."""
        q0 = self.lattice.q0
        if self.sector_kind == "x":  # x+ -> -q x-, x- -> -x+/q
            first_fac, first_m, last_fac, last_m = -q0, 1, -1.0 / q0, -1
        else:  # p- -> -p+/q, p+ -> -q p-
            first_fac, first_m, last_fac, last_m = -1.0 / q0, -1, -q0, 1
        out = []
        for t in self.terms:
            a, b, c = t.exps
            e1, e2, e3 = t.envs
            coeff = np.conjugate(t.coeff) * first_fac**a * last_fac**c
            envs = (
                _dilate(e3, last_m, -1, True),
                _dilate(e2, 0, 1, True),
                _dilate(e1, first_m, -1, True),
            )
            out.append(STerm(coeff, (c, b, a), envs))
        return self._new(out)

    # -- star product -----------------------------------------------------------

    def _star_triples(self, other: "StructuredFn", mirror: bool):
        """The W star (mirror=False) or the Wt star (mirror=True) term by
        term, as arrays over the triples (left term, right term, k) in
        blocks of left terms.

        The left operand must be polynomial on the axis its Jackson
        derivatives act on (last slot for W, first for Wt) and likewise the
        right operand on its own coupled axis; the coupled scaling operators
        act on the middle envelopes as dilations.  The operands are checked
        and the q-factorials computed on the call, which returns an iterator
        of blocks ``(i1, i2, coeff, exps, shift1, shift2)``: the term
        indices, the product term's coefficient and degrees (shape (N, 3)),
        and the powers of q0 dilating the left and right middle envelopes.
        """
        if other.sector_kind != self.sector_kind:
            raise ValueError("sector mismatch")
        l_slot, r_slot = (0, 2) if mirror else (2, 0)
        for side, f, slot in (("left", self, l_slot), ("right", other, r_slot)):
            if any(t.envs[slot] is not None for t in f.terms):
                raise ClassConstraintError(
                    f"{side} star operand must be polynomial on its coupled axis"
                )
        if not self.terms or not other.terms:
            return iter(())
        q0 = self.lattice.q0
        sgn = -1 if mirror else 1
        lam = sgn * (q0 - 1.0 / q0)
        c1 = np.array([t.coeff for t in self.terms], dtype=complex)
        c2 = np.array([t.coeff for t in other.terms], dtype=complex)
        e1 = np.array([t.exps for t in self.terms], dtype=int)
        e2 = np.array([t.exps for t in other.terms], dtype=int)
        d1, d2 = e1[:, l_slot], e2[:, r_slot]
        fall = _falling(int(max(d1.max(), d2.max())), q0 ** (4 * sgn))
        counts = np.minimum.outer(d1, d2) + 1  # k = 0 .. min(d1, d2)
        step = max(1, _BLOCK_TRIPLES // int(counts.sum(axis=1).max()))

        def blocks():
            for lo in range(0, len(c1), step):
                n = counts[lo : lo + step].ravel()
                pair = np.repeat(np.arange(n.size), n)
                k = np.arange(pair.size) - np.repeat(np.cumsum(n) - n, n)
                i1, i2 = np.divmod(pair, len(c2))
                i1 += lo
                (a1, b1, x1), (a2, b2, x2) = e1[i1].T, e2[i2].T
                k1, k2 = d1[i1] - k, d2[i2] - k
                coeff = (
                    c1[i1] * c2[i2] * lam**k / fall[k, k] * fall[d1[i1], k] * fall[d2[i2], k]
                )
                coeff *= q0 ** (2.0 * sgn * (b1 * k2 + k1 * b2))
                exps = np.stack([a1 + a2 - k, b1 + b2 + 2 * k, x1 + x2 - k], axis=1)
                yield i1, i2, coeff, exps, 2 * sgn * k2, 2 * sgn * k1

        return blocks()

    def _star(self, other: "StructuredFn", mirror: bool) -> "StructuredFn":
        out = []
        for block in self._star_triples(other, mirror):
            for i1, i2, c, exps, s1, s2 in zip(*(a.tolist() for a in block)):
                t1, t2 = self.terms[i1], other.terms[i2]
                first, last = (t2, t1) if mirror else (t1, t2)
                mid = _times(_dilate(t1.envs[1], s1), _dilate(t2.envs[1], s2))
                out.append(STerm(c, tuple(exps), (first.envs[0], mid, last.envs[2])))
        return self._new(out)

    def star(self, other: "StructuredFn") -> "StructuredFn":
        """The deformed product, exact on the pairing classes."""
        return self._star(other, mirror=False)

    def star_wt(self, other: "StructuredFn") -> "StructuredFn":
        """The Wt-ordered star product (the hatted calculus' product)."""
        return self._star(other, mirror=True)

    def star_integral(self, other: "StructuredFn", mirror: bool = False) -> complex:
        """Integral over all space of self (star) other, the Wt star with
        ``mirror``, reduced over the product's terms without building them.

        Each operand's envelopes are written as roots and offsets once.  An
        outer slot's envelope is one operand term's, so each term's outer
        profile is found and every distinct one sampled once per call; a
        block of triples only gathers them by term.  The middle slot's
        profile pairs both terms' middle envelopes, dilated by k, so each
        block codes and samples its own (:func:`_factor_sums`).  Beyond the
        operands' per-term arrays, memory is O(_BLOCK_TRIPLES)."""
        lat = self.lattice
        blocks = self._star_triples(other, mirror)
        first, last = (other, self) if mirror else (self, other)
        outer = []
        for slot, f in ((0, first), (2, last)):
            roots, idx, off = _canonical([t.envs[slot] for t in f.terms])
            u_idx, u_off, profile = _profiles([(idx, off)])
            outer.append((_profile_rows(lat, slot, roots, u_idx, u_off), profile))
        (rows0, prof0), (rows2, prof2) = outer
        roots1, idx1, off1 = _canonical([t.envs[1] for t in self.terms + other.terms])
        n1 = len(self.terms)
        total = 0j
        for i1, i2, coeff, exps, s1, s2 in blocks:
            i_first, i_last = (i2, i1) if mirror else (i1, i2)
            mid = [(idx1[i1], off1[i1] + s1), (idx1[n1 + i2], off1[n1 + i2] + s2)]
            f0 = _reduce(lat, 0, rows0, prof0[i_first], exps[:, 0])
            f1 = _factor_sums(lat, 1, roots1, mid, exps[:, 1])
            f2 = _reduce(lat, 2, rows2, prof2[i_last], exps[:, 2])
            total += np.sum(coeff * f0 * f1 * f2)
        return complex(total)

    # -- evaluation and integration ----------------------------------------------

    def _slot_factors(self, slot: int):
        """Each term's envelope on one slot as a root index and an offset
        into the slot's roots (:func:`_canonical`), and its degree."""
        roots, idx, off = _canonical([t.envs[slot] for t in self.terms])
        ns = np.array([t.exps[slot] for t in self.terms], dtype=int)
        return roots, idx, off, ns

    def integral_all_space(self) -> complex:
        """Nested smaller-lattice Jackson sums; separable per term."""
        total = np.array([t.coeff for t in self.terms], dtype=complex)
        for slot in range(3):
            roots, idx, off, ns = self._slot_factors(slot)
            total = total * _factor_sums(self.lattice, slot, roots, [(idx, off)], ns)
        return complex(total.sum())

    def boundary_mass(self) -> float:
        """Relative weight carried by the outermost included shell of each
        axis; small values certify that the window truncation is harmless."""
        worst = 0.0
        for slot in range(3):
            roots, idx, off, ns = self._slot_factors(slot)
            xs = self.lattice.integration_points(slot)
            for start, rows in _axis_rows(self.lattice, slot, roots, idx[:, None], off[:, None]):
                rows = rows * np.stack([xs, -xs]) ** ns[start : start + len(rows), None, None]
                prof = np.abs(rows).sum(axis=1)
                total = prof.sum(axis=1)
                edge = prof[:, 0] + prof[:, -1]
                nz = total != 0.0
                worst = max(worst, float(np.max(edge[nz] / total[nz], initial=0.0)))
        return worst

    def values_on(self, pts1, pts2, pts3) -> np.ndarray:
        """Evaluate on a meshgrid of per-axis point arrays: the sum over terms
        of the outer product of their per-axis factors, each distinct
        envelope sampled once per axis."""
        coeff = np.array([t.coeff for t in self.terms], dtype=complex)
        factors = []
        for slot, pts in enumerate((pts1, pts2, pts3)):
            x = np.asarray(pts, dtype=float)
            sampled = {None: 1.0}
            rows = np.empty((len(self.terms), x.size), dtype=complex)
            for i, t in enumerate(self.terms):
                env = t.envs[slot]
                if env not in sampled:
                    sampled[env] = env.values(x, self.lattice.q0)
                rows[i] = x ** t.exps[slot] * sampled[env]
            factors.append(rows)
        return np.einsum("t,ti,tj,tk->ijk", coeff, *factors)
