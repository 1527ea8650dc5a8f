"""Numeric q-lattice backend: Jackson integrals, lattice carriers, wave
packets' raw material.

Points live on the geometric lattice {+- q0^j : j_min <= j <= j_max} per
axis.  The integral over all space is the nested Jackson sum on the smaller
lattice: base q^2 on the outer axes and q on the middle one, with
configurable coset offsets (default (0, 0, 1), which makes the integral
exactly compatible with quantum space conjugation).

Two carriers are provided:

* :class:`LatticeFn` - dense samples over the full 3d grid.  Exact under
  Jackson derivatives and dilations (lattice shifts, zero beyond the
  window); used for Stokes-type checks and CSV export.

* :class:`StructuredFn` - finite sums  coeff * monomial * per-axis
  envelopes, each envelope (:class:`AxisFn`) a product of leaves
  x -> base(+-q0^m x).  Every envelope operation (slot scalings,
  conjugation, Jackson shifts) dilates by +-q0^m, which is arithmetic on
  the leaves and, on the lattice, an index shift plus a branch swap.  This
  carrier supports an exact star product against operands whose coupled
  axes are envelope-free (the pairing classes used by the expectation-value
  suite), because the star's degree-coupled scaling operators then act as
  such dilations.  One routine, :func:`_axis_rows`, samples envelopes on
  the integration lattice; it keeps nothing between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qarith import QScalar

#: byte bound on one gathered block of envelope samples in _axis_rows
_BLOCK_BYTES = 1 << 20
#: bound on the (left term, right term, k) triples a star integral reduces at once
_BLOCK_TRIPLES = 1 << 13


@dataclass(frozen=True)
class QLattice:
    """Grid config: base q0 > 1 and the exponent window [j_min, j_max].

    ``steps`` are the per-slot Jackson bases (exponents of q0) of the
    all-space integral; ``cosets`` pick which residue class of j each axis
    sums over.  The defaults implement the smaller-lattice integral with
    conjugation-compatible offsets.
    """

    q0: float
    j_min: int = -20
    j_max: int = 20
    steps: tuple[int, int, int] = (2, 1, 2)
    cosets: tuple[int, int, int] = (0, 0, 1)

    def __post_init__(self):
        if not self.q0 > 1:
            raise ValueError("q0 must be > 1")
        if self.j_min > self.j_max:
            raise ValueError("empty lattice window")

    @property
    def n_points(self) -> int:
        return self.j_max - self.j_min + 1

    def js(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)

    def axis_values(self) -> np.ndarray:
        return self.q0 ** self.js().astype(float)

    def integration_js(self, slot: int) -> np.ndarray:
        js = self.js()
        step, coset = self.steps[slot], self.cosets[slot]
        return js[(js % step) == (coset % step)]

    def integration_weights(self, slot: int) -> np.ndarray:
        """(Q - 1) q0^j for the slot's sub-lattice, Q = q0^step."""
        js = self.integration_js(slot)
        return (self.q0 ** self.steps[slot] - 1.0) * self.q0 ** js.astype(
            float
        )


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


def _axis_rows(lat: QLattice, slot: int, envs, env_idx, shifts, ns):
    """Weighted samples of per-axis factors on the slot's integration
    lattice, yielded as ``(start, rows)`` blocks of consecutive factors.

    Factor f is x^ns[f] times the product over p of the envelope
    ``envs[env_idx[f, p]]`` (None is the constant 1) dilated by
    q0^shifts[f, p].  Its row holds w_j (s x_j)^n (product)(s x_j) for the
    signs s = +1, -1 (axis 1) and the integration points x_j with Jackson
    weights w_j (axis 2).  Each distinct base is evaluated once, on the
    index window the leaves' shifts reach.
    """
    n_f, n_p = env_idx.shape
    if n_f == 0:
        return
    js = lat.integration_js(slot)
    # each envelope's leaves as integer arrays, padded with base row 0 (= 1)
    n_l = max([len(e.leaves) for e in envs if e is not None], default=1)
    lb, lm, ls, lc = (np.zeros((len(envs), n_l), dtype=int) for _ in range(4))
    bases: dict = {}
    for e, env in enumerate(envs):
        for l, (base, m, sign, conj) in enumerate(env.leaves if env is not None else ()):
            lb[e, l] = bases.setdefault(base, len(bases) + 1)
            lm[e, l], ls[e, l], lc[e, l] = m, sign < 0, conj
    lb, ls, lc = lb[env_idx], ls[env_idx], lc[env_idx]
    m_all = np.where(lb > 0, lm[env_idx] + shifts[:, :, None], 0)
    lo = js[0] + m_all.min()
    pts = lat.q0 ** np.arange(lo, js[-1] + m_all.max() + 1).astype(float)
    table = np.ones((len(bases) + 1, 2, 2, pts.size), dtype=complex)  # base, conj, sign, j
    for base, b in bases.items():
        table[b, 0] = base(pts), base(-pts)
    table[:, 1] = np.conjugate(table[:, 0])
    xs = lat.q0 ** js.astype(float)
    degrees, n_row = np.unique(ns, return_inverse=True)
    mono = lat.integration_weights(slot) * np.stack([xs, -xs]) ** degrees[:, None, None]
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
        yield start, np.prod(vals, axis=(1, 2)) * mono[n_row[blk]]


def _factor_sums(lat: QLattice, slot: int, envs, env_idx, shifts, ns) -> np.ndarray:
    """Per-factor integrals over one axis (factors as in :func:`_axis_rows`),
    each distinct factor summed once."""
    keys = np.column_stack([env_idx, shifts, ns])
    if not len(keys):
        return np.zeros(0, dtype=complex)
    lo = keys.min(axis=0)
    code = np.ravel_multi_index((keys - lo).T, keys.max(axis=0) - lo + 1)
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    uniq = keys[first]
    n_p = env_idx.shape[1]
    sums = np.zeros(len(uniq), dtype=complex)
    for start, rows in _axis_rows(lat, slot, envs, uniq[:, :n_p], uniq[:, n_p:-1], uniq[:, -1]):
        sums[start : start + len(rows)] = rows.sum(axis=(1, 2))
    return sums[inverse.ravel()]


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


class BoundaryError(ValueError):
    """The integrand carries non-negligible mass on the window boundary."""


def integral_all_space(fn, boundary_tol: float | None = None) -> complex:
    """Integrate a lattice carrier over all space.

    With ``boundary_tol`` given, non-decaying integrands are rejected with
    the measured boundary mass in the message.
    """
    if boundary_tol is not None:
        bm = fn.boundary_mass()
        if not bm < boundary_tol:
            raise BoundaryError(
                f"integrand does not decay on the lattice window "
                f"(boundary mass {bm:.3e} >= {boundary_tol:.1e})"
            )
    return fn.integral_all_space()


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
        act on the middle envelopes as dilations.  Yields
        ``(i1, i2, coeff, exps, shift1, shift2)``: the term indices, the
        product term's coefficient and degrees (shape (N, 3)), and the
        powers of q0 dilating the left and right middle envelopes.
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
            return
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
        ``mirror``, reduced over the product's terms without building them:
        per block of triples, each distinct per-axis factor is summed once."""
        lat = self.lattice
        first, last = (other, self) if mirror else (self, other)
        first_envs = [t.envs[0] for t in first.terms]
        last_envs = [t.envs[2] for t in last.terms]
        mid_envs = [t.envs[1] for t in self.terms] + [t.envs[1] for t in other.terms]
        total = 0j
        for i1, i2, coeff, exps, s1, s2 in self._star_triples(other, mirror):
            i_first, i_last = (i2, i1) if mirror else (i1, i2)
            zero = np.zeros((len(coeff), 1), dtype=int)
            f0 = _factor_sums(lat, 0, first_envs, i_first[:, None], zero, exps[:, 0])
            mids = np.stack([i1, len(self.terms) + i2], axis=1)
            f1 = _factor_sums(lat, 1, mid_envs, mids, np.stack([s1, s2], axis=1), exps[:, 1])
            f2 = _factor_sums(lat, 2, last_envs, i_last[:, None], zero, exps[:, 2])
            total += np.sum(coeff * f0 * f1 * f2)
        return complex(total)

    # -- evaluation and integration ----------------------------------------------

    def _slot_factors(self, slot: int):
        """Each term's factor on one slot, as :func:`_axis_rows` arguments."""
        n = len(self.terms)
        return (
            [t.envs[slot] for t in self.terms],
            np.arange(n)[:, None],
            np.zeros((n, 1), dtype=int),
            np.array([t.exps[slot] for t in self.terms], dtype=int),
        )

    def integral_all_space(self) -> complex:
        """Nested smaller-lattice Jackson sums; separable per term."""
        total = np.array([t.coeff for t in self.terms], dtype=complex)
        for slot in range(3):
            total = total * _factor_sums(self.lattice, slot, *self._slot_factors(slot))
        return complex(total.sum())

    def boundary_mass(self) -> float:
        """Relative weight carried by the outermost included shell of each
        axis; small values certify that the window truncation is harmless."""
        worst = 0.0
        for slot in range(3):
            for _, rows in _axis_rows(self.lattice, slot, *self._slot_factors(slot)):
                prof = np.abs(rows).sum(axis=1)
                total = prof.sum(axis=1)
                edge = prof[:, 0] + prof[:, -1]
                nz = total != 0.0
                worst = max(worst, float(np.max(edge[nz] / total[nz], initial=0.0)))
        return worst

    def values_on(self, pts1, pts2, pts3) -> np.ndarray:
        """Evaluate on a meshgrid of per-axis point arrays."""
        grids = np.meshgrid(pts1, pts2, pts3, indexing="ij")
        acc = np.zeros(grids[0].shape, dtype=complex)
        for t in self.terms:
            v = t.coeff
            for g, n, env in zip(grids, t.exps, t.envs):
                v = v * g**n
                if env is not None:
                    v = v * env.values(g, self.lattice.q0)
            acc += v
        return acc


# -- dense carrier ------------------------------------------------------------------


class LatticeFn:
    """Dense complex samples over the full (sign, j)^3 grid.

    Indices: values[s1, j1, s2, j2, s3, j3] with sign index 0 for +, 1 for
    -, and j offset by j_min.  Dilations shift the j axes exactly; samples
    shifted beyond the window enter as zero, so the carrier is meant for
    compactly supported data.
    """

    __slots__ = ("lattice", "sector_kind", "values")

    def __init__(self, lattice: QLattice, sector_kind: str, values: np.ndarray):
        n = lattice.n_points
        expected = (2, n, 2, n, 2, n)
        if values.shape != expected:
            raise ValueError(f"values must have shape {expected}")
        self.lattice = lattice
        self.sector_kind = sector_kind
        self.values = values.astype(complex)

    @staticmethod
    def sample(lattice: QLattice, sector_kind: str, fn) -> "LatticeFn":
        """Sample fn(x1, x2, x3) (vectorized) over the grid."""
        axis = lattice.axis_values()
        coords = np.concatenate([axis, -axis])  # sign index 0 then 1
        n = lattice.n_points
        c = coords.reshape(2, n)
        g1 = c[:, :, None, None, None, None]
        g2 = c[None, None, :, :, None, None]
        g3 = c[None, None, None, None, :, :]
        vals = fn(
            np.broadcast_to(g1, (2, n, 2, n, 2, n)),
            np.broadcast_to(g2, (2, n, 2, n, 2, n)),
            np.broadcast_to(g3, (2, n, 2, n, 2, n)),
        )
        return LatticeFn(lattice, sector_kind, np.asarray(vals, dtype=complex))

    def _new(self, values) -> "LatticeFn":
        return LatticeFn(self.lattice, self.sector_kind, values)

    def __add__(self, other: "LatticeFn") -> "LatticeFn":
        return self._new(self.values + other.values)

    def __sub__(self, other: "LatticeFn") -> "LatticeFn":
        return self._new(self.values - other.values)

    def __neg__(self) -> "LatticeFn":
        return self._new(-self.values)

    def scale_complex(self, c: complex) -> "LatticeFn":
        return self._new(self.values * c)

    def scale_q(self, s: QScalar) -> "LatticeFn":
        return self.scale_complex(s.eval(self.lattice.q0))

    def _shift(self, slot: int, amount: int) -> np.ndarray:
        """values at j + amount on one axis, zero-filled at the window."""
        axis = 1 + 2 * slot
        v = np.zeros_like(self.values)
        n = self.lattice.n_points
        if amount == 0:
            return self.values.copy()
        idx_src = [slice(None)] * 6
        idx_dst = [slice(None)] * 6
        if amount > 0:
            idx_dst[axis] = slice(0, n - amount)
            idx_src[axis] = slice(amount, n)
        else:
            idx_dst[axis] = slice(-amount, n)
            idx_src[axis] = slice(0, n + amount)
        v[tuple(idx_dst)] = self.values[tuple(idx_src)]
        return v

    def _coords(self, slot: int) -> np.ndarray:
        axis_vals = self.lattice.axis_values()
        coords = np.stack([axis_vals, -axis_vals])  # (2, n)
        shape = [1] * 6
        shape[2 * slot] = 2
        shape[2 * slot + 1] = self.lattice.n_points
        return coords.reshape(shape)

    def jackson_d(self, sector_index: int, slot: int, base_exp: int) -> "LatticeFn":
        assert sector_index == 0
        Q = self.lattice.q0**base_exp
        shifted = self._shift(slot, base_exp)
        return self._new((shifted - self.values) / ((Q - 1.0) * self._coords(slot)))

    def scale_slot(self, sector_index: int, slot: int, q_exp: int) -> "LatticeFn":
        assert sector_index == 0
        return self._new(self._shift(slot, q_exp))

    def mul_slot_var(self, sector_index: int, slot: int, power: int = 1) -> "LatticeFn":
        assert sector_index == 0
        return self._new(self.values * self._coords(slot) ** power)

    def mul_pointwise(self, other: "LatticeFn") -> "LatticeFn":
        return self._new(self.values * other.values)

    def d_dt(self):
        raise NotImplementedError("lattice carriers hold no symbolic time")

    def conjugate(self) -> "LatticeFn":
        """Quantum space conjugation on dense samples.

        conj(f)(y1, y2, y3) = conj(f(a*y3, y2, b*y1)) where (a, b) are the
        metric factors (-q, -1/q) for positions and (-1/q, -q) for momenta;
        on the lattice the sign flips move between branches and the q powers
        become index shifts (zero beyond the window).
        """
        n = self.lattice.n_points
        if self.sector_kind == "x":
            d_first, d_last = +1, -1  # x1 arg = -q y3, x3 arg = -y1/q
        else:
            d_first, d_last = -1, +1
        pad = np.zeros((2, n + 2, 2, n + 2, 2, n + 2), dtype=complex)
        pad[:, 1 : n + 1, :, 1 : n + 1, :, 1 : n + 1] = np.conjugate(
            self.values
        )
        s = np.arange(2)
        j = np.arange(n)
        S1, J1, S2, J2, S3, J3 = np.meshgrid(s, j, s, j, s, j, indexing="ij")
        out = pad[
            1 - S3,
            J3 + d_first + 1,
            S2,
            J2 + 1,
            1 - S1,
            J1 + d_last + 1,
        ]
        return self._new(out)

    def integral_all_space(self) -> complex:
        """Smaller-lattice nested Jackson sums over the dense grid."""
        lat = self.lattice
        total = self.values
        for slot in (2, 1, 0):
            js_idx = lat.integration_js(slot) - lat.j_min
            w = lat.integration_weights(slot)
            sel = np.take(total, js_idx, axis=2 * slot + 1)
            summed = sel.sum(axis=2 * slot)  # both sign branches
            total = np.tensordot(summed, w, axes=([2 * slot], [0]))
        return complex(total)

    def boundary_mass(self) -> float:
        """Fraction of absolute mass on the outermost j shells."""
        a = np.abs(self.values)
        total = float(a.sum())
        if total == 0.0:
            return 1.0
        edge = float(
            a[:, 0].sum()
            + a[:, -1].sum()
            + a[:, :, :, 0].sum()
            + a[:, :, :, -1].sum()
            + a[..., 0].sum()
            + a[..., -1].sum()
        )
        return edge / total

    def to_csv(self, path: str) -> None:
        lat = self.lattice
        axis = lat.axis_values()
        coords = np.stack([axis, -axis])
        with open(path, "w") as fh:
            fh.write("x1,x2,x3,re,im\n")
            for s1 in range(2):
                for j1 in range(lat.n_points):
                    for s2 in range(2):
                        for j2 in range(lat.n_points):
                            for s3 in range(2):
                                for j3 in range(lat.n_points):
                                    v = self.values[s1, j1, s2, j2, s3, j3]
                                    if v == 0:
                                        continue
                                    fh.write(
                                        f"{coords[s1, j1]},{coords[s2, j2]},"
                                        f"{coords[s3, j3]},{v.real},{v.imag}\n"
                                    )
