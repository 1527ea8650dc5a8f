"""Numeric q-lattice backend: Jackson integrals, the lattice carrier, wave
packets' raw material.

Points live on the geometric lattice {+- q0^j : j_min <= j <= j_max} per
axis.  The integral over all space is the nested Jackson sum on the smaller
lattice: base q^2 on the outer axes and q on the middle one, with the fixed
coset offsets (0, 0, 1), which make the integral exactly compatible with
quantum space conjugation.

The carrier, :class:`StructuredFn`, is a finite sum  coeff * monomial *
per-axis envelopes, each envelope (:class:`AxisFn`) a product of leaves
x -> base(+-q0^m x), each base a real function, a log-Gaussian value
(:func:`log_gaussian`) or an opaque callable: phases live in the
coefficients.  Every envelope operation (slot scalings, conjugation,
Jackson shifts) dilates by +-q0^m, which is arithmetic on the leaves and, on
the lattice, an index shift plus a branch swap.  The carrier supports an
exact star product against operands whose coupled axes are envelope-free
(the pairing classes used by the expectation-value suite), because the
star's degree-coupled scaling operators then act as such dilations.
:meth:`StructuredFn.star` builds it pair by pair: each left term, right term
and k up to the smaller coupled degree gives one product term.

Each envelope base keeps its values at +-q0^j on the widest index window
asked of it (:class:`_Samples`), shared by every dilation of the envelope
and freed with it, so a packet evaluates each base once per window.  One
routine, :func:`_axis_rows`, reads the distinct envelopes of a sum from
those values by index shift; :func:`_moments` reduces each against each
monomial degree.  A star integral contracts small per-slot tables
(:func:`_slot_sums`) over the star's k, without building the product's
terms.  A table is summed by outer factor: the terms sharing a coupled
degree, an outer degree and an outer envelope fold into one sampled middle
row, so c(t) = phase * c, whose terms of one coupled degree share both,
sums one row per degree.  The contraction serves W pairs, the ordering of
every packet value; a Wt pair integrates its star product.  Each carrier
keeps, freed with it, that grouping per outer slot (:class:`_TermGroups`)
and, per role: as a ket, one table per outer-window shift and extent (the
columns and middle exponents it covers), summed once and returned whole,
its own pairing a slice of the extent its table views ask on the
unshifted window (:data:`_REACH`); as a bra, no table but one array of
rows and its read mask, its table contracted over k against every
coupled degree e up to the larger of its widest ket's and its own plus
one (:func:`_contracted_rows`).  A scaled carrier keeps both scaled, so
a normalized packet pairs at t = 0 what its norm summed.
A :class:`TableView` is a ket derived from one carrier c by slot
operations and envelope-free left factors, held as one map of merged
index shifts and factors of c's kept tables: it pairs like a carrier and
builds no terms.  As no entry depends on the range asked or on the other
rows, a packet's bra c*(t) is summed and contracted once, and c(t) once
per window shift, for all its pairings at t; each later pairing costs a
rewrite of c(t)'s tables and one product-sum, and no integral depends on
the ones before it.
An envelope is evaluated only through :meth:`AxisFn.samples` and, at
arbitrary points (:meth:`StructuredFn.values_on`), :meth:`AxisFn.values`.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from typing import Callable, Sequence

import numpy as np

from .qarith import QScalar, _Frozen
from .starcalc import P_SECTOR, X_SECTOR, Sector

#: per-slot Jackson bases of the all-space integral, as exponents of q0
STEPS = (2, 1, 2)
#: the residue class of j (mod the slot's step) each slot sums over
COSETS = (0, 0, 1)


class QLattice(_Frozen):
    """Grid config: base q0 > 1 and the exponent window [j_min, j_max].

    The all-space integral sums slot s over the window's j with
    j = COSETS[s] mod STEPS[s], weighted by the Jackson weights of base
    q0^STEPS[s]: the smaller-lattice integral with conjugation-compatible
    offsets.  The window's ends are integers (Python or numpy), and its end
    points q0^j_min and q0^j_max must be normal floats.  A value: equal and
    hashed by (q0, j_min, j_max).
    """

    __slots__ = ("q0", "j_min", "j_max")

    def __init__(self, q0: float, j_min: int = -20, j_max: int = 20):
        if not q0 > 1:
            raise ValueError("q0 must be > 1")
        try:
            j_min, j_max = operator.index(j_min), operator.index(j_max)
        except TypeError:
            raise ValueError(f"window ends must be integers: {j_min!r}, {j_max!r}") from None
        if j_min > j_max:
            raise ValueError("empty lattice window")
        for j in (j_min, j_max):
            try:
                x = float(q0) ** j
            except OverflowError:
                x = math.inf
            if not sys.float_info.min <= x < math.inf:
                raise ValueError(f"q0^{j} is not a normal float")
        super().__init__(q0, j_min, j_max)

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


class _Samples:
    """One envelope base and its real values at +-q0^j on the widest index
    window asked of it: equal and hashed by the base (hashed once: envelopes
    sort their leaves by it), so that equal bases give equal envelopes."""

    __slots__ = ("fn", "_hash", "q0", "lo", "vals")

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.fn, self._hash, self.q0, self.lo = fn, hash(fn), None, 0
        self.vals = np.empty((2, 0))

    def __eq__(self, other):
        return isinstance(other, _Samples) and self.fn == other.fn

    def __hash__(self):
        return self._hash

    def __call__(self, x: np.ndarray):
        if np.iscomplexobj(v := self.fn(x)):
            raise TypeError("an envelope base is real: put its phase in the coefficient")
        return v

    def window(self, q0: float, lo: int, hi: int) -> np.ndarray:
        """fn(q0^j) (row 0) and fn(-q0^j) (row 1) for lo <= j <= hi; a window
        past the kept one is sampled anew over the union of both."""
        have = self.vals.shape[1]
        if q0 != self.q0 or lo < self.lo or hi >= self.lo + have:
            if q0 == self.q0 and have:
                lo_new, hi_new = min(lo, self.lo), max(hi, self.lo + have - 1)
            else:
                lo_new, hi_new = lo, hi
            pts = q0 ** np.arange(lo_new, hi_new + 1).astype(float)
            vals = np.empty((2, pts.size))
            vals[0], vals[1] = self(pts), self(-pts)
            self.q0, self.lo, self.vals = q0, lo_new, vals
        return self.vals[:, lo - self.lo : hi + 1 - self.lo]


class AxisFn:
    """A per-axis envelope: a product of leaves.

    A leaf ``(base, m, sign)`` is the function x -> base(sign * q0^m * x);
    ``AxisFn(fn)`` is the single leaf ``(fn, 0, 1)``, its base held in a
    :class:`_Samples`.  A base is a log-Gaussian value
    (:func:`log_gaussian`) or an opaque callable, real-valued (a complex
    value raises ``TypeError``: a phase belongs in the term's coefficient),
    vectorized over numpy arrays and defined on the whole real line minus
    zero (it is evaluated at dilated lattice points of either sign).
    Envelopes are values: equal leaf products compare and hash equal, so
    carriers merge equal terms without any identity bookkeeping.  An
    envelope is evaluated only on its lattice, through :meth:`values` and
    :meth:`samples`.

    Every dilation and product of the envelope shares that :class:`_Samples`:
    on the lattice a base is evaluated once per window, and its samples are
    freed with the last envelope holding it.
    """

    __slots__ = ("leaves", "_hash")

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]):
        self.leaves = ((_Samples(fn), 0, 1),)
        self._hash = hash(self.leaves)

    @classmethod
    def _of(cls, leaves) -> "AxisFn":
        env = object.__new__(cls)
        env.leaves = tuple(sorted(leaves, key=lambda lf: (lf[0]._hash,) + lf[1:]))
        env._hash = hash(env.leaves)  # a carrier hashes its envelopes at every step
        return env

    def __eq__(self, other):
        return isinstance(other, AxisFn) and self.leaves == other.leaves

    def __hash__(self):
        return self._hash

    def values(self, x, q0: float) -> np.ndarray:
        """The envelope at the points x of a lattice with base q0."""
        x = np.asarray(x, dtype=float)
        return math.prod((base(sign * q0**m * x) for base, m, sign in self.leaves), start=1.0)

    def samples(self, q0: float, lo: int, hi: int) -> np.ndarray:
        """The envelope at q0^j (row 0) and -q0^j (row 1) for lo <= j <= hi,
        read from its bases' windows by index shift (and a row swap for a
        sign-flipped leaf)."""
        return math.prod((base.window(q0, lo + m, hi + m)[::sign]
                          for base, m, sign in self.leaves), start=1.0)


def _dilate(env, m: int, sign: int = 1):
    """x -> env(sign * q0^m * x); the absent envelope (None, the constant 1)
    stays absent."""
    if env is None or (m == 0 and sign == 1):
        return env
    return AxisFn._of((base, bm + m, bs * sign) for base, bm, bs in env.leaves)


def _times(e1, e2):
    if e1 is None:
        return e2
    if e2 is None:
        return e1
    return AxisFn._of(e1.leaves + e2.leaves)


def _with(items: tuple, slot: int, value) -> tuple:
    return items[:slot] + (value,) + items[slot + 1 :]


class _LogGaussian(_Frozen):
    """The envelope base e(x) + odd_fraction sign(x) e(x), where
    e(x) = exp(-((ln|x|/ln q0 - center_j)^2) / (2 width_j^2)) is a Gaussian
    in the lattice index: a value, equal and hashed by its four fields."""

    __slots__ = ("q0", "center_j", "width_j", "odd_fraction")

    def __call__(self, x):
        j = np.log(np.abs(x)) / np.log(self.q0)
        e = np.exp(-((j - self.center_j) ** 2) / (2.0 * self.width_j * self.width_j))
        return e + self.odd_fraction * (np.sign(x) * e) if self.odd_fraction else e


def log_gaussian(lattice: QLattice, center_j: float = 0.0, width_j: float = 2.0,
                 odd_fraction: float = 0.0) -> AxisFn:
    """The one-leaf envelope of a :class:`_LogGaussian` base: sign-symmetric
    unless ``odd_fraction`` admixes its sign-odd part."""
    return AxisFn(_LogGaussian(lattice.q0, float(center_j), float(width_j), odd_fraction))


def _axis_rows(lat: QLattice, envs, lo: int, hi: int, step: int = 1):
    """The distinct envelopes among ``envs`` (None is the constant 1) at
    +-q0^j for j = lo, lo + step, ... <= hi, as ``(rows, idx)``: rows has
    shape (distinct, 2, points), its axis 1 the signs +1, -1, and envs[i]
    is rows[idx[i]].  Each row is read from the bases' sample windows
    (:meth:`AxisFn.samples`), each base first widened once to every shift
    its leaves here ask for."""
    index: dict = {}
    idx = np.fromiter((index.setdefault(e, len(index)) for e in envs), int, len(envs))
    need: dict = {}
    for env in index:
        for base, m, _ in env.leaves if env is not None else ():
            a, b = need.get(base, (lo + m, hi + m))
            need[base] = min(a, lo + m), max(b, hi + m)
    for base, (a, b) in need.items():
        base.window(lat.q0, a, b)
    rows = np.ones((len(index), 2, len(range(lo, hi + 1, step))), dtype=complex)
    for env, u in index.items():
        if env is not None:
            rows[u] = env.samples(lat.q0, lo, hi)[:, ::step]
    return rows, idx


def _signed_powers(x: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """(s x)^n at [i, 0] (s = 1) and [i, 1] (s = -1) for each n = ns[i]
    and points x > 0: x^n, its sign flipped for odd n.  A float power of a
    negative base takes a path many times slower."""
    pos = x ** ns[:, None]
    return np.stack([pos, pos * (1 - 2 * (ns[:, None] % 2))], axis=1)


def _moments(lat: QLattice, slot: int, envs, ns, shift: int = 0) -> np.ndarray:
    """Per term i and entry of ns[i]: the slot's integral of x^n envs[i],
    the sum over s = +-1 and the integration points x_j of
    w_j (s x_j)^n envs[i](s x_j), on the slot's window of exponents j
    shifted by ``shift`` (x_j = q0^(j + shift), w_j = (Q - 1) x_j).  Each
    distinct envelope is sampled once and reduced against each degree
    present by ``einsum``, whose entries, unlike a matrix product's, do not
    depend on the operands' shapes.  A window holding no j of the slot's
    coset (one exponent only) gives 0."""
    js = lat.integration_js(slot) + shift
    out = np.zeros(ns.shape, dtype=complex)
    if js.size == 0 or ns.size == 0:
        return out
    rows, idx = _axis_rows(lat, envs, js[0], js[-1], STEPS[slot])
    xs = lat.q0 ** js.astype(float)
    rows = (rows * ((lat.q0 ** STEPS[slot] - 1.0) * xs)).reshape(len(rows), -1)
    lo = ns.min()
    d = ns - lo
    present = np.bincount(d.ravel()) > 0
    degrees = lo + np.flatnonzero(present)
    mono = _signed_powers(xs, degrees).reshape(len(degrees), -1)
    sums = np.zeros((len(rows), len(present)), dtype=complex)
    sums[:, present] = np.einsum("ep,dp->ed", rows, mono)
    return sums[idx.reshape(idx.shape + (1,) * (ns.ndim - 1)), d]


class _TermGroups:
    """How :func:`_slot_sums` sums a carrier's terms for one outer slot,
    kept so that every table and row set of the carrier derives it
    once.  Terms of one coupled degree d (on slot 2 - outer), one outer
    degree n and one outer envelope share their outer moment M(n + v) at
    every column v: they form one group, and their middle factors fold
    into one row.  ``order`` sorts the terms by group and ``starts`` opens
    each group's run; in that order ``coeffs`` are the coefficients,
    ``e_idx`` index the distinct middle envelopes ``mid_envs`` and
    ``b_idx`` the distinct middle exponents ``powers``.  The groups are
    sorted by d: ``outer_degs`` and ``outer_envs`` are each group's outer
    factor, ``seg`` opens each run of one degree and ``degrees`` lists the
    degrees present, ascending."""

    __slots__ = ("order", "starts", "coeffs", "e_idx", "mid_envs", "b_idx", "powers",
                 "outer_degs", "outer_envs", "seg", "degrees")

    def __init__(self, f: "StructuredFn", outer: int):
        terms = f.terms
        groups: dict = {}
        g_idx = np.fromiter((groups.setdefault((t.exps[2 - outer], t.exps[outer], t.envs[outer]),
                                               len(groups)) for t in terms), int, len(terms))
        deg = np.array([t.exps[2 - outer] for t in terms], dtype=int)
        self.order = np.lexsort((g_idx, deg))
        g_idx = g_idx[self.order]
        self.starts = np.flatnonzero(np.concatenate([[True], g_idx[1:] != g_idx[:-1]]))
        ordered = [terms[i] for i in self.order]
        self.coeffs = np.array([t.coeff for t in ordered], dtype=complex)
        mids: dict = {}
        self.e_idx = np.fromiter((mids.setdefault(t.envs[1], len(mids)) for t in ordered), int,
                                 len(ordered))
        self.mid_envs = list(mids)
        # np.unique would load numpy.ma on its first call
        bs = [t.exps[1] for t in ordered]
        self.powers = np.array(sorted(set(bs)), dtype=int)
        self.b_idx = np.searchsorted(self.powers, bs)
        firsts = [ordered[i] for i in self.starts]
        self.outer_degs = np.array([t.exps[outer] for t in firsts], dtype=int)
        self.outer_envs = [t.envs[outer] for t in firsts]
        deg = deg[self.order[self.starts]]
        self.seg = np.flatnonzero(np.concatenate([[True], deg[1:] != deg[:-1]]))
        self.degrees = deg[self.seg]


def _slot_sums(f: "StructuredFn", outer: int, start: int, span: int, shift: int = 0,
               reach: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Columns v = start..span of one W star-integral operand's per-slot
    table: entry [d, v - start, s, i] is the sum over f's terms i of degree d
    on the coupled slot 2 - outer of c_i M_i(n_i + v) g_i(s q0^(j + 2v)),
    where n_i is the term's degree on the ``outer`` slot, M_i its moment
    there (:func:`_moments`) on the outer window shifted by ``shift``,
    g_i(y) = y^b_i e_i(y) its middle factor and j = j_0 - reach[0] + i runs
    over the middle slot's integration exponents j_0..j_1, extended by
    reach = (below, above).

    The sum is taken by outer factor (:class:`_TermGroups`, derived once
    per carrier and outer slot): a group g of terms sharing d, n and the
    outer envelope folds into one row h_g(y) = sum_i c_i y^b_i e_i(y),
    sampled once on the middle window all the columns read, each +-y
    raised once per distinct exponent b.  Then entry [d, v] is
    sum_g M_g(n_g + v) h_g(s q0^(j + 2v)) over the groups of degree
    d: one windowed gather of the rows, one product with the moments and
    one segment sum over each degree's groups.  The moments and rows are
    computed for these columns only, and every sum runs over terms or
    groups in a fixed order, elementwise, so no entry depends on start,
    span or reach."""
    lat, grp = f.lattice, f._term_groups(outer)
    v = np.arange(start, span + 1)
    m = _moments(lat, outer, grp.outer_envs, grp.outer_degs[:, None] + v, shift)
    js = lat.integration_js(1)
    width = js.size + reach[0] + reach[1]
    # the middle window the columns read: js, extended by reach, dilated by 2v
    lo, hi = js[0] - reach[0] + 2 * start, js[-1] + reach[1] + 2 * span
    rows, _ = _axis_rows(lat, grp.mid_envs, lo, hi)
    pts = lat.q0 ** np.arange(lo, hi + 1).astype(float)
    powers = _signed_powers(pts, grp.powers)
    h = np.add.reduceat(grp.coeffs[:, None, None] * powers[grp.b_idx] * rows[grp.e_idx],
                        grp.starts, axis=0)
    # each column's window into h, gathered as [group, v, s, i]; np.take
    # lays the gather out in C order, which the product reads faster than
    # the strided result of h[:, :, cols]
    cols = (js[0] - reach[0] - lo + 2 * v)[:, None] + np.arange(width)
    vals = m[:, :, None, None] * np.take(h, cols, axis=2).transpose(0, 2, 1, 3)
    out = np.zeros((grp.degrees[-1] + 1, v.size, 2, width), dtype=complex)
    out[grp.degrees] = np.add.reduceat(vals, grp.seg, axis=0)
    return out


def _contracted_rows(f: "StructuredFn", top: int) -> tuple:
    """f's slot table S as the bra of a W star integral (outer slot 0)
    contracted over the star's k against each coupled degree e = 0..top of
    the ket, lam and fall as in :meth:`StructuredFn.star_integral`:

        rows[e, u](s, j) = sum_k lam^k / fall[k, k] fall[u+k, k] fall[e, k]
                               w_j x_j^(2k) S[u+k, e-k](s, j)

    for u = 0..D, D f's largest coupled degree, over k <= e and u + k <=
    D.  Returns ``(rows, read)``, read[e, u] true where some degree d
    present in f reaches (e, u): only these entries of the ket's table
    are read, so an entry that no present degree pair needs cannot
    overflow into nan.  One step per k adds into the slice rows[k:, :D+1-k]
    from the slice S[k:, :top+1-k], S's absent degrees zeroed first, so
    each entry is summed over k in ascending order and no row depends on
    which others are built with it.  S is summed here over the columns
    0..top the rows read, on the middle slot's own window
    (:func:`_slot_sums`), and not kept."""
    lat, degrees = f.lattice, f._degrees(0)
    dmax, present = degrees[-1], np.bincount(degrees) > 0
    table = _slot_sums(f, 0, 0, top)
    table[~present] = 0
    fall = _falling(max(dmax, top), lat.q0**4)
    lam = lat.q0 - 1.0 / lat.q0
    xs, weights = lat.integration_points(1), lat.integration_weights(1)
    rows = np.zeros((top + 1, dmax + 1, 2, xs.size), dtype=complex)
    read = np.zeros((top + 1, dmax + 1), dtype=bool)
    for k in range(min(top, dmax) + 1):  # each term at [e - k, u] of rows[k:]
        coef = (lam**k / fall[k, k] * fall[k : dmax + 1, k]) * fall[k : top + 1, k, None]
        part = table[k:, : top + 1 - k].swapaxes(0, 1)
        rows[k:, : dmax + 1 - k] += coef[:, :, None, None] * part * (weights * xs ** (2 * k))
        read[k:, : dmax + 1 - k] |= present[k:]
    return rows, read


def _falling(dmax: int, Q: float) -> np.ndarray:
    """The q-falling factorials [[d]]_Q [[d-1]]_Q ... [[d-k+1]]_Q at [d, k]
    for 0 <= k <= d <= dmax; [k, k] is [[k]]_Q!."""
    # [[n]]_Q at dmax + n for n >= 1, and 1 below
    qn = np.concatenate([np.ones(dmax + 1), np.cumsum(Q ** np.arange(dmax, dtype=float))])
    n = np.arange(dmax + 1)
    fall = np.ones((dmax + 1, dmax + 1))
    # row d multiplies [[d]], [[d-1]], ..., [[1]], then 1s, in turn: one cumprod
    np.cumprod(qn[n[:, None] - n[1:] + dmax + 1], axis=1, out=fall[:, 1:])
    return np.tril(fall)


#: (first, last) column and (first, last) middle exponent shifts past the
#: columns 0..span asked that a W ket's table is summed over on its
#: unshifted window: what every momentum coordinate and left derivative
#: label of a table view reads there
_REACH = (-1, 1, 0, 4)


# -- structured carrier -----------------------------------------------------------


class STerm(_Frozen):
    """One term of a :class:`StructuredFn`: ``coeff`` times the slot
    monomial of degrees ``exps`` times the per-slot envelopes ``envs``
    (:class:`AxisFn` or None).  A value: equal and hashed by its three
    fields."""

    __slots__ = ("coeff", "exps", "envs")

    # written out, not the generic loop: a packet builds thousands of terms
    def __init__(self, coeff: complex, exps: tuple[int, int, int],
                 envs: tuple[AxisFn | None, AxisFn | None, AxisFn | None]):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "envs", envs)


class ClassConstraintError(ValueError):
    """An exact lattice star product needs the coupled axes envelope-free."""


class StructuredFn:
    """Finite sum of  coeff * (slot monomial) * (per-axis envelopes).

    Slot degrees are integers; a negative degree appears only on an
    enveloped slot, after a Jackson derivative.  Envelopes are
    :class:`AxisFn` values or None; terms with equal degrees and equal
    envelopes are merged on construction.

    Implements the operand interface of :mod:`qeuclid.qcalculus`, as the
    symbolic carrier does, so the derivative representations apply
    unchanged.  ``sector_kind`` is "x" or "p"; slot order matches the
    symbolic carriers.  ``convention`` is the ordering tag "W" or "Wt": it
    selects the star formula, and operands of ``+`` and ``star`` share it.
    """

    __slots__ = ("lattice", "sector_kind", "convention", "terms", "_tables", "_groups", "_rows")

    def __init__(self, lattice: QLattice, sector_kind: str, terms: Sequence[STerm], convention="W"):
        if convention not in ("W", "Wt"):
            raise ValueError(f"unknown convention {convention!r}")
        if sector_kind not in ("x", "p"):
            raise ValueError(f"unknown sector kind {sector_kind!r}")
        self.lattice = lattice
        self.sector_kind = sector_kind
        self.convention = convention
        # each (degrees, envelopes) key is hashed once: envelopes hash in Python
        index: dict = {}
        firsts, coeffs = [], []
        for t in terms:
            if t.coeff == 0:
                continue
            i = index.setdefault((t.exps, t.envs), len(firsts))
            if i == len(firsts):
                firsts.append(t)
                coeffs.append(t.coeff)
            else:
                coeffs[i] = coeffs[i] + t.coeff
        self.terms = [t if c is t.coeff else STerm(c, t.exps, t.envs)
                      for t, c in zip(firsts, coeffs) if c != 0]
        # as a ket: (window shift, extent) -> _slot_sums table (StructuredFn._table)
        self._tables = {}
        self._groups = {}  # outer slot -> the _TermGroups the sums are taken by
        self._rows = None  # as a bra: _contracted_rows for e = 0..top

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_envelopes(
        lattice: QLattice, sector_kind: str, envs, exps=(0, 0, 0), convention: str = "W"
    ) -> "StructuredFn":
        return StructuredFn(
            lattice, sector_kind, [STerm(1.0, tuple(exps), tuple(envs))], convention
        )

    @staticmethod
    def from_poly(lattice: QLattice, poly) -> "StructuredFn":
        """Evaluate a single-sector symbolic Poly's coefficients at q0 and
        wrap it as an envelope-free carrier in the polynomial's ordering."""
        if len(poly.sectors) != 1:
            raise ValueError("from_poly needs a single-sector polynomial")
        terms = []
        for (triples, t), coeff in poly.terms.items():
            if t:
                raise ValueError("lattice carriers hold no symbolic time")
            terms.append(STerm(coeff.eval(lattice.q0), triples[0], (None, None, None)))
        return StructuredFn(lattice, poly.sectors[0].kind, terms, poly.convention)

    def _new(self, terms) -> "StructuredFn":
        return StructuredFn(self.lattice, self.sector_kind, terms, self.convention)

    @property
    def sectors(self) -> tuple[Sector]:
        """The carrier's one sector, as the symbolic carrier lists its sectors."""
        return (X_SECTOR,) if self.sector_kind == "x" else (P_SECTOR,)

    def coordinate(self, sector_index: int, slot: int) -> "StructuredFn":
        """The coordinate variable of one slot, in this carrier's ordering."""
        assert sector_index == 0
        return self._new([STerm(1.0, _with((0, 0, 0), slot, 1), (None, None, None))])

    def _check_compatible(self, other: "StructuredFn | TableView"):
        if other.lattice != self.lattice:
            raise ValueError(f"lattice mismatch: {self.lattice} vs {other.lattice}")
        if other.sector_kind != self.sector_kind:
            raise ValueError("sector mismatch")
        if other.convention != self.convention:
            raise ValueError(f"convention mismatch: {self.convention} vs {other.convention}")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "StructuredFn") -> "StructuredFn":
        self._check_compatible(other)
        return self._new(list(self.terms) + list(other.terms))

    def __sub__(self, other: "StructuredFn") -> "StructuredFn":
        return self + (-other)

    def __neg__(self) -> "StructuredFn":
        return self._new(
            [STerm(-t.coeff, t.exps, t.envs) for t in self.terms]
        )

    def scale_complex(self, c: complex) -> "StructuredFn":
        """c times self.  The product keeps self's kept ket tables and bra
        rows times c: each is linear in the coefficients, so only rounding
        differs from summing the product's anew."""
        out = self._new([STerm(t.coeff * c, t.exps, t.envs) for t in self.terms])
        out._tables = {key: c * table for key, table in self._tables.items()}
        if self._rows is not None:
            out._rows = c * self._rows[0], self._rows[1]
        return out

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
        sign and scale factors, conjugates the coefficients and dilates and
        sign-flips the outer envelopes: the real middle one stays."""
        q0 = self.lattice.q0
        if self.sector_kind == "x":  # x+ -> -q x-, x- -> -x+/q
            first_fac, first_m, last_fac, last_m = -q0, 1, -1.0 / q0, -1
        else:  # p- -> -p+/q, p+ -> -q p-
            first_fac, first_m, last_fac, last_m = -1.0 / q0, -1, -q0, 1
        images: dict = {}  # each envelope dilation is built once per call

        def image(env, m: int):
            key = env, m
            if key not in images:
                images[key] = _dilate(env, m, -1)
            return images[key]

        out = []
        for t in self.terms:
            a, b, c = t.exps
            e1, e2, e3 = t.envs
            coeff = np.conjugate(t.coeff) * first_fac**a * last_fac**c
            envs = (image(e3, last_m), e2, image(e1, first_m))
            out.append(STerm(coeff, (c, b, a), envs))
        return self._new(out)

    # -- star product -----------------------------------------------------------

    def _coupling(self, other: "StructuredFn") -> bool:
        """Check that the operands can be star-multiplied exactly and return
        whether their ordering is the mirrored one (Wt)."""
        self._check_compatible(other)
        mirror = self.convention == "Wt"
        l_slot, r_slot = (0, 2) if mirror else (2, 0)
        for side, f, slot in (("left", self, l_slot), ("right", other, r_slot)):
            if f._enveloped(slot):
                raise ClassConstraintError(
                    f"{side} star operand must be polynomial on its coupled axis"
                )
        return mirror

    def star(self, other: "StructuredFn") -> "StructuredFn":
        """The deformed product of the operands' ordering, exact on the
        pairing classes: the W star, or for Wt its mirror image (the hatted
        calculus' product), built pair by pair.

        A left term c1, degrees (a1, b1, x1), and a right term c2, degrees
        (a2, b2, x2), give one product term per k <= min(d1, d2), with d1
        the left degree on the axis its Jackson derivatives act on (last
        slot for W, first for Wt), d2 the right one on its own coupled axis,
        k1 = d1 - k and k2 = d2 - k:

            c1 c2 lam^k / fall[k, k] fall[d1, k] fall[d2, k] q0^(2 sgn (b1 k2 + k1 b2))

        of degrees (a1 + a2 - k, b1 + b2 + 2k, x1 + x2 - k), where sgn = +1
        (W) or -1 (Wt), lam = sgn (q0 - 1/q0) and ``fall`` holds the
        q-falling factorials of base q0^(4 sgn).  The coupled scaling
        operators dilate the middle envelopes, the left by q0^(2 sgn k2) and
        the right by q0^(2 sgn k1); the outer envelopes pass through."""
        mirror = self._coupling(other)
        l_slot, r_slot = (0, 2) if mirror else (2, 0)
        q0 = self.lattice.q0
        sgn = -1 if mirror else 1
        lam = sgn * (q0 - 1.0 / q0)
        dmax = max(
            (t.exps[s] for f, s in ((self, l_slot), (other, r_slot)) for t in f.terms), default=0
        )
        fall = _falling(dmax, q0 ** (4 * sgn)).tolist()
        mids: dict = {}  # each middle envelope product is built once per call
        out = []
        for t1 in self.terms:
            (a1, b1, x1), d1, c1 = t1.exps, t1.exps[l_slot], complex(t1.coeff)
            for t2 in other.terms:
                (a2, b2, x2), d2, c2 = t2.exps, t2.exps[r_slot], complex(t2.coeff)
                first, last = (t2, t1) if mirror else (t1, t2)
                for k in range(min(d1, d2) + 1):
                    k1, k2 = d1 - k, d2 - k
                    coeff = c1 * c2 * lam**k / fall[k][k] * fall[d1][k] * fall[d2][k]
                    coeff *= q0 ** (2.0 * sgn * (b1 * k2 + k1 * b2))
                    key = t1.envs[1], k2, t2.envs[1], k1
                    if key not in mids:
                        mids[key] = _times(_dilate(t1.envs[1], 2 * sgn * k2),
                                           _dilate(t2.envs[1], 2 * sgn * k1))
                    out.append(STerm(coeff, (a1 + a2 - k, b1 + b2 + 2 * k, x1 + x2 - k),
                                     (first.envs[0], mids[key], last.envs[2])))
        return self._new(out)

    # a non-finite result is reported by the FloatingPointError alone, not
    # preceded by numpy's overflow warnings
    @np.errstate(over="ignore", invalid="ignore")
    def star_integral(self, other: "StructuredFn | TableView") -> complex:
        """Integral over all space of self (star) other, for W operands
        contracted slot by slot without building the product.

        Self, the bra, carries the slot-0 envelopes and is polynomial in
        slot 2 with degree d_F; other, the ket, is polynomial in slot 0 with
        degree d_L.  With lam = q0 - 1/q0 and the falling factorials
        fall[d, k] = [[d]]_Q ... [[d-k+1]]_Q, Q = q0^4, the integral is

            sum_k lam^k / fall[k, k] sum_(u, v) fall[u+k, k] fall[v+k, k]
                sum_(s = +-1, j in slot 1) w_j x_j^(2k)
                    S_F[u+k, v](s, j) S_L[v+k, u](s, j),

        where S_F[d, v](s, j) sums, over the bra's terms i with d_F = d,
        c_i M0_i(a_i + v) g_i(s q0^(j + 2v)): M0_i is the term's slot-0
        moment, a_i its slot-0 degree and g_i(y) = y^b_i e_i(y) its middle
        factor; S_L is the mirror image with the slot-2 moments
        (:func:`_slot_sums`).  The star's q0^(2 (b1 k2 + k1 b2)) factor
        lives in the dilated arguments of g.  The sum is taken as
        sum_(e, u, s, j) S_L[e, u](s, j) rows[e, u](s, j) over the entries
        read[e, u] of the ket's degrees e, rows[e] being the bra's table
        contracted over k against e.  A Wt pair integrates its star
        product (:meth:`integral_all_space`), as no caller pairs Wt
        carriers.

        The bra keeps no table, only one array of rows and its read mask
        (:func:`_contracted_rows`) for e = 0..top, top the larger of the
        widest coupled degree its kets had so far and its own coupled
        degree plus one.  A wider ket sums and contracts them anew over the
        union; a later ket one degree higher than the bra (p^+ * c(t))
        finds its row kept, and the rows do not depend on the order of the
        kets.  A carrier ket keeps its table per outer-window shift and
        extent (:meth:`_table`), freed with it; a :class:`TableView` ket's
        table is a rewrite of its carrier's kept tables.  In a packet the
        bra is c*(t) and the ket a view of c(t) in every pairing at t, so
        once the bra's rows and c(t)'s tables are kept a pairing costs the
        view's rewrite, O(r D^2 J) for r reads, D the largest coupled
        degree and J the middle slot's points, and a product-sum over
        O(D^2 J) entries.  A ket carrier of n terms in g groups
        (:class:`_TermGroups`) costs O(n (J + D)) to fold its middle rows
        and O(g D J) for its table; its largest temporaries are the folded
        terms' samples, n x 2 x (J + 2D) numbers, and the gathered
        product, g x D x 2 x J (130 KB for the 66-term c(0.1) on +-12).
        A result past the float range (a factor that overflowed, times
        zero, gives nan) raises ``FloatingPointError``."""
        if self._coupling(other):
            total = self.star(other).integral_all_space()
        elif self.is_zero() or other.is_zero():
            return 0j
        else:
            d_other, d_mine = other._degrees(2), self._degrees(0)
            s_other = other._slot_table(d_mine[-1])
            if self._rows is None or self._rows[0].shape[0] <= d_other[-1]:
                self._rows = _contracted_rows(self, max(d_other[-1], d_mine[-1] + 1))
            rows, read = self._rows
            # only the entries read enter the sum, in (e, u, s, j) order; np.sum
            # adds them pairwise, which keeps cancelling pairings accurate
            m = read[d_other]
            total = complex(np.sum(s_other[d_other][m] * rows[d_other][m]))
        if not cmath.isfinite(total):
            raise FloatingPointError(f"star integral is not finite: {total}")
        return total

    def _term_groups(self, outer: int) -> _TermGroups:
        """The kept :class:`_TermGroups` for one outer slot."""
        grp = self._groups.get(outer)
        if grp is None:
            grp = self._groups[outer] = _TermGroups(self, outer)
        return grp

    def _degrees(self, outer: int) -> np.ndarray:
        """The degrees present on the coupled slot 2 - outer, ascending."""
        return self._term_groups(outer).degrees

    def _enveloped(self, slot: int) -> bool:
        return any(t.envs[slot] is not None for t in self.terms)

    def _table(self, shift: int, extent: tuple) -> np.ndarray:
        """:func:`_slot_sums` of this carrier as the ket of a W star integral
        (outer slot 2) on the outer window shifted by ``shift``,
        over extent = (first column, last column, middle exponents below,
        above the window): summed once per (shift, extent), kept and
        returned whole."""
        table = self._tables.get((shift, extent))
        if table is None:
            first, last, below, above = extent
            table = self._tables[shift, extent] = _slot_sums(self, 2, first, last, shift,
                                                             (below, above))
        return table

    def _slot_table(self, span: int) -> np.ndarray:
        """:func:`_slot_sums` of this carrier as the ket of a W star
        integral, for dilations up to ``span``, on its own window: a slice
        of its kept table over the extent a table view with no read past
        :data:`_REACH` asks (:meth:`TableView._needs`), so that its own
        pairings and all its table views share one summation.  A bra reads
        no kept table (:func:`_contracted_rows`)."""
        first, _, below, above = extent = TableView._needs(span)[0]
        table = self._table(0, extent)
        return table[:, -first : span + 1 - first, :, below : table.shape[3] - above]

    # -- evaluation and integration ----------------------------------------------

    def integral_all_space(self) -> complex:
        """Nested smaller-lattice Jackson sums; separable per term."""
        total = np.array([t.coeff for t in self.terms], dtype=complex)
        for slot in range(3):
            ns = np.array([t.exps[slot] for t in self.terms], dtype=int)
            total = total * _moments(self.lattice, slot, [t.envs[slot] for t in self.terms], ns)
        return complex(total.sum())

    def boundary_mass(self) -> float:
        """Relative weight carried by the outermost included shell of each
        axis: the window's edge share of this carrier, not of any built from it."""
        worst = 0.0
        for slot in range(3):
            js = self.lattice.integration_js(slot)
            if js.size == 0:
                continue
            rows, idx = _axis_rows(
                self.lattice, [t.envs[slot] for t in self.terms], js[0], js[-1], STEPS[slot]
            )
            ns = np.array([t.exps[slot] for t in self.terms], dtype=int)
            xs = self.lattice.integration_points(slot)
            weights = self.lattice.integration_weights(slot)
            prof = np.abs(rows[idx] * weights * _signed_powers(xs, ns))
            prof = prof.sum(axis=1)
            total = prof.sum(axis=1)
            # a one-shell sub-lattice's edge is that shell, counted once
            edge = prof[:, 0] + prof[:, -1] if js.size > 1 else prof[:, 0]
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


# -- table views --------------------------------------------------------------------


def _mapped(q0: float, key: tuple, rcoef: complex, rfac: np.ndarray, coef: complex = 1.0,
            dfac=None, a=0, b=0, c=0, p=0, e=0, w=0) -> tuple:
    """The :class:`TableView` read (key, (rcoef, rfac)) put into one summand
    of a table map, T'[d, v](s, j) = coef dfac(d) y^p q0^(e v) T_w[d + a,
    v + b](s, j + c): read at column v + b and exponent j + c, its own y is
    q0^(c + 2b) y.  ``dfac`` maps an array of degrees d to factors."""
    rp, re, rdd, rdv, rdj, rw = key
    dd = rdd + a
    fac = rfac if dfac is None else rfac * dfac(np.arange(rfac.size) - dd)
    coef = rcoef * coef * q0 ** (rp * (c + 2 * b) + re * b)
    return (rp + p, re + e, dd, rdv + b, rdj + c, rw + w), (coef, fac)


def _merged(reads) -> dict:
    """Reads (key, (coef, fac)) as one map in first-seen order: a key read
    again becomes (1, sum of coef fac)."""
    out: dict = {}
    for key, (coef, fac) in reads:
        if key in out:
            c0, f0 = out[key]
            coef, fac = 1.0, c0 * f0 + coef * fac
        out[key] = coef, fac
    return out


def _qnum(n, Q: float):
    """The q-numbers [[n]]_Q = (Q^n - 1) / (Q - 1), elementwise."""
    return (Q ** np.asarray(n, dtype=float) - 1.0) / (Q - 1.0)


def _qfall(n, k: int, Q: float):
    """[[n]]_Q [[n-1]]_Q ... [[n-k+1]]_Q, elementwise: 0 for 0 <= n < k."""
    return math.prod((_qnum(np.asarray(n) - i, Q) for i in range(k)), start=1.0)


class TableView:
    """A ket derived from one W-ordered carrier c, envelope-free on slot 0,
    by the slot operations of :mod:`qeuclid.qcalculus` and left star
    multiplication by envelope-free factors, held as exact rewrites of c's
    slot table instead of as carrier terms.

    As the last operand of a W star integral, c has the table
    T[d, v](s, j) = sum_i c_i M_i(n_i + v) g_i(y), y = s q0^(j + 2v)
    (:func:`_slot_sums`, outer slot 2, coupled slot 0), and each operation
    on the ket reindexes the same finite sum, so that the ket's table is the
    sum of the view's reads: ``terms`` maps (p, e, dd, dv, dj, w) to (coef,
    fac), read at (d, v, s, j) as coef fac[d + dd] y^p q0^(e v) T_w[d + dd,
    v + dv](s, j + dj), T_w the table on the outer window shifted by w and
    ``fac`` over c's coupled degrees.  Reads of one key merge
    (:func:`_merged`), and each operation maps every read:

    * slot 0, envelope-free: D_Q gives T'[d] = [[d+1]]_Q T[d+1],
      a scaling by q0^m gives q0^(m d) T[d], and x gives T[d-1];
    * slot 1: a scaling by q0^m gives T(j + m), D_Q with Q = q0^m gives
      (T(j + m) - T(j)) / ((Q - 1) y), and x gives y T;
    * slot 2: D_Q with Q = q0^b gives (Q^-v T^(W+b)[v-1](j+2) -
      T[v-1](j+2)) / (Q - 1), T^(W+b) the table on the outer window shifted
      by b, since the sum of w_j x_j^n e(Q x_j) over a window is Q^-(n+1)
      times that over the window shifted by b; a scaling by q0^m gives
      q0^(-m(v+1)) T^(W+m)[v], and x gives T[v+1](j-2);
    * each term c_1 x^(a, b, x) of a left factor gives, per k <= x,
      c_1 lam^k / [[k]]! fall[x, k] fall[d - a + k, k] q0^(2b(d - a))
      y^(b + 2k) T[d - a + k, v + x - k], the star's terms in base q0^4.

    Only rounding differs from building the ket's terms.  The view pairs as
    the ket of :meth:`StructuredFn.star_integral` from c's kept tables and
    builds no carrier; past the float range it pairs to "not finite".
    Another ordering, slot 0 envelopes or enveloped left factors raise."""

    __slots__ = ("src", "terms", "_kept")

    def __init__(self, src: StructuredFn):
        if src.convention != "W":
            raise ValueError("a table view reads a W-ordered carrier")
        if src._enveloped(0):
            raise ClassConstraintError("a table view needs its carrier polynomial on slot 0")
        size = 0 if src.is_zero() else src._degrees(2)[-1] + 1
        self.src, self._kept = src, None
        self.terms = {(0,) * 6: (1.0, np.ones(size))} if size else {}

    def _new(self, terms) -> "TableView":
        """A view of the same source holding ``terms`` but the reads whose factor is
        zero at every source degree: operations keep it zero, so it never pairs."""
        ds = self.src._degrees(2)
        view = object.__new__(TableView)
        view.src, view._kept = self.src, None
        view.terms = {key: read for key, read in terms.items() if read[1][ds].any()}
        return view

    def _map(self, *summands) -> "TableView":
        """Each read put into each summand (keywords of :func:`_mapped`)."""
        q0 = self.src.lattice.q0
        return self._new(_merged(_mapped(q0, key, *read, **m)
                                 for key, read in self.terms.items() for m in summands))

    @property
    def lattice(self) -> QLattice:
        return self.src.lattice

    @property
    def sector_kind(self) -> str:
        return self.src.sector_kind

    @property
    def convention(self) -> str:
        return self.src.convention

    @property
    def sectors(self) -> tuple[Sector]:
        return self.src.sectors

    # -- operand interface for the derivative representations ----------------

    def jackson_d(self, sector_index: int, slot: int, base_exp: int) -> "TableView":
        assert sector_index == 0
        Q = self.src.lattice.q0**base_exp
        if slot == 0:
            return self._map(dict(dfac=lambda d: _qnum(d + 1, Q), a=1))
        if slot == 1:
            return self._map(dict(coef=1.0 / (Q - 1.0), c=base_exp, p=-1),
                             dict(coef=-1.0 / (Q - 1.0), p=-1))
        return self._map(dict(coef=1.0 / (Q - 1.0), b=-1, c=2, e=-base_exp, w=base_exp),
                         dict(coef=-1.0 / (Q - 1.0), b=-1, c=2))

    def scale_slot(self, sector_index: int, slot: int, q_exp: int) -> "TableView":
        assert sector_index == 0
        factor = self.src.lattice.q0**q_exp
        if slot == 0:
            return self._map(dict(dfac=lambda d: factor ** d.astype(float)))
        if slot == 1:
            return self._map(dict(c=q_exp))
        return self._map(dict(coef=1.0 / factor, e=-q_exp, w=q_exp))

    def mul_slot_var(self, sector_index: int, slot: int, power: int = 1) -> "TableView":
        assert sector_index == 0
        if slot == 0:
            return self._map(dict(a=-power))
        if slot == 1:
            return self._map(dict(p=power))
        return self._map(dict(b=power, c=-2 * power))

    def scale_q(self, s: QScalar) -> "TableView":
        return self._map(dict(coef=s.eval(self.src.lattice.q0)))

    def __add__(self, other: "TableView") -> "TableView":
        if other.src is not self.src:
            raise ValueError("table views of different carriers")
        return self._new(_merged([*self.terms.items(), *other.terms.items()]))

    def is_zero(self) -> bool:
        return not self._live()

    def left_star(self, f: StructuredFn) -> "TableView":
        """f * (this ket) in the W ordering, for f envelope-free."""
        self.src._check_compatible(f)
        if any(map(f._enveloped, range(3))):
            raise ClassConstraintError("a table view is star-multiplied by an envelope-free factor")
        q0 = self.src.lattice.q0
        Q, lam = q0**4, q0 - 1.0 / q0
        return self._map(*(
            dict(coef=t.coeff * lam**k / _qfall(k, k, Q) * _qfall(x1, k, Q),
                 dfac=lambda d, k=k, a1=a1, b1=b1: (_qfall(d - a1 + k, k, Q)
                                                    * q0 ** (2.0 * b1 * (d - a1))),
                 a=k - a1, b=x1 - k, p=b1 + 2 * k)
            for t in f.terms for a1, b1, x1 in [t.exps] for k in range(x1 + 1)))

    # -- the ket side of a star integral --------------------------------------

    def _enveloped(self, slot: int) -> bool:
        return self.src._enveloped(slot)

    def _live(self) -> list:
        """(key, coef, fac, source degrees read) per read, kept: the degrees
        present in the source whose factor is nonzero and whose coupled degree d >= 0."""
        if self._kept is None:
            ds = self.src._degrees(2) if self.terms else None
            self._kept = [(key, coef, fac, rows) for key, (coef, fac) in self.terms.items()
                          for rows in [ds[(fac[ds] != 0) & (ds >= key[2])]] if rows.size]
        return self._kept

    def _degrees(self, outer: int) -> np.ndarray:
        assert outer == 2  # a view pairs only as the ket
        ds = {int(d) for key, *_, rows in self._live() for d in rows - key[2]}
        return np.array(sorted(ds), dtype=int)

    @staticmethod
    def _needs(span: int, reads=()) -> dict:
        """Per outer-window shift w: the extent (first column, last column,
        middle exponents below, above the window) of the source's table that
        reads at (w, column shift, middle exponent shift) ask for columns
        0..span of a view's table; on the unshifted window at least
        :data:`_REACH`, the extent the source sums when it pairs itself."""
        need: dict = {0: _REACH}
        for w, dv, dj in reads:
            c0, c1, lo, hi = need.get(w, (dv, dv, dj, dj))
            need[w] = min(c0, dv), max(c1, dv), min(lo, dj), max(hi, dj)
        return {w: (c0, span + c1, max(0, -lo), max(0, hi))
                for w, (c0, c1, lo, hi) in need.items()}

    def _slot_table(self, span: int) -> np.ndarray:
        """The view's table for columns 0..span: each live read of the
        source's kept tables over the range of source degrees it reads,
        weighted and added in read order; each weight y^p q0^(e v) is
        computed once per distinct (p, e).  A zero view's table has no
        degree rows."""
        lat = self.src.lattice
        js = lat.integration_js(1)
        v = np.arange(span + 1)
        y = lat.q0 ** (js[None, :] + 2 * v[:, None]).astype(float)
        ys = np.stack([y, -y], axis=1)  # [v, s, j]
        needs = self._needs(span, ((w, dv, dj) for (*_, dv, dj, w), *_ in self._live()))
        tables = {w: (extent, self.src._table(w, extent)) for w, extent in needs.items()}
        out = np.zeros((self._degrees(2).max(initial=-1) + 1, v.size, 2, js.size),
                       dtype=complex)
        weights: dict = {}
        for (p, e, dd, dv, dj, w), coef, fac, rows in self._live():
            (c0, _, below, _), table = tables[w]
            lo, hi, col, mid = rows[0], rows[-1] + 1, dv - c0, below + dj
            # degrees absent from the source have zero rows in its table
            part = table[lo:hi, col : col + v.size, :, mid : mid + js.size]
            if (p, e) not in weights:
                weights[p, e] = ys**p * (lat.q0 ** (e * v.astype(float)))[:, None, None]
            out[lo - dd : hi - dd] += part * ((coef * fac[lo:hi])[:, None, None, None]
                                              * weights[p, e])
        return out

