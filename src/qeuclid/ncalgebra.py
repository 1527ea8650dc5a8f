"""Noncommutative words, PBW normal ordering, and the Weyl isomorphism.

This module is the brute-force oracle for the star product: multiply words
by concatenation, rewrite to the normal-ordered basis with the defining
commutation relations

    X3 X+ = q^2 X+ X3
    X3 X- = q^-2 X- X3
    X- X+ = X+ X- + lam X3 X3
    X0 central,

and pull back along the basis bijection with commutative monomials.  Both
orderings are supported: *W* sorts X+ <= X3 <= X- <= X0, *Wt* sorts
X0 <= X- <= X3 <= X+.

The momentum algebra (p-, p3, p+) satisfies relations of exactly this shape
under the slot identification used by :mod:`qeuclid.starcalc`, so the same
engine serves as the oracle for both sectors.

A word combination is a plain dict {word: QScalar} that holds no zero
coefficient, the invariant ``starcalc._add_term`` keeps.  The rewrite
multipliers are qarith ``Terms``, the Gaussian-integer Laurent dicts of a
``QScalar`` numerator, added and multiplied by qarith's own routines.
"""

from __future__ import annotations

from .qarith import QScalar, Terms, _ONE_DEN, _d_add, _d_mul
from .starcalc import Poly, Sector, _add_term

XP, X3, XM, X0 = "X+", "X3", "X-", "X0"
LETTERS = (XP, X3, XM, X0)

_RANK = {
    "W": {XP: 0, X3: 1, XM: 2, X0: 3},
    "Wt": {X0: 0, XM: 1, X3: 2, XP: 3},
}

Word = tuple[str, ...]
#: a word combination {word: coefficient}; no coefficient is zero
Words = dict[Word, QScalar]


def nc_multiply(a: Words, b: Words) -> Words:
    """Concatenation product, bilinear; result not normal-ordered."""
    out: Words = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            _add_term(out, w1 + w2, c1 * c2)
    return out


def _swap_pair(u: str, v: str, convention: str):
    """Rewrite the out-of-order pair u v as a combination of v u (and the
    lam correction when the pair is (X-, X+) or (X+, X-)).

    Each multiplier is a qarith ``Terms`` dict {exponent: (re, im)}, the
    numerator of a ``QScalar`` over ``_ONE_DEN`` (lam = q - 1/q is
    {1: (1, 0), -1: (-1, 0)}), so the rewriting stays in integer arithmetic.
    """
    if X0 in (u, v):
        return (((v, u), _ONE_DEN),)
    pair = (u, v)
    if convention == "W":
        if pair == (X3, XP):
            return (((XP, X3), {2: (1, 0)}),)
        if pair == (XM, X3):
            return (((X3, XM), {2: (1, 0)}),)
        if pair == (XM, XP):
            return (((XP, XM), _ONE_DEN), ((X3, X3), {1: (1, 0), -1: (-1, 0)}))
    else:
        if pair == (XP, X3):
            return (((X3, XP), {-2: (1, 0)}),)
        if pair == (X3, XM):
            return (((XM, X3), {-2: (1, 0)}),)
        if pair == (XP, XM):
            return (((XM, XP), _ONE_DEN), ((X3, X3), {1: (-1, 0), -1: (1, 0)}))
    raise AssertionError(f"pair {pair} is not out of order in {convention}")


def _l_add(out: dict, key, m: Terms) -> None:
    """Add the multiplier ``m`` at ``key`` of a sparse sum; drop a cancelled key."""
    old = out.get(key)
    if old is None:
        out[key] = m
    elif s := _d_add(old, m):
        out[key] = s
    else:
        del out[key]


#: one insertion table per (convention, at_end): {(sorted word, letter):
#: {sorted word: multiplier}}, kept for the process.  A sorted word is fixed
#: by its four letter counts, so a table grows only with the largest degree
#: met, and each reduction strategy keeps its own, so the confluence check
#: still compares two independent reductions.  Multipliers are qarith
#: ``Terms``; entries are never mutated, so results and the numerators of
#: the scalars built from them can share them.
_INSERT_TABLES: dict[tuple[str, bool], dict] = {
    (convention, at_end): {} for convention in _RANK for at_end in (True, False)
}


def _insert(s: Word, x: str, at_end: bool, convention: str, memo: dict) -> dict:
    """Normal form of ``s x`` (``at_end``) or ``x s``, for a sorted ``s``, as
    {sorted word: multiplier}.

    The one inversion is the pair at the seam, the leftmost redex of ``s x``
    and the rightmost of ``x s``.  Its replacement ``a b`` is inserted one
    letter at a time into the rest of ``s``, the letter next to the rest
    first.  Results are memoized in ``memo``, the insertion table of
    (convention, at_end), per (s, x): equal rewrite states reached along
    different paths, or in earlier calls, are reduced once.
    """
    if not s:
        return {(x,): _ONE_DEN}
    u, v, rest = (s[-1], x, s[:-1]) if at_end else (x, s[0], s[1:])
    rank = _RANK[convention]
    if rank[u] <= rank[v]:
        return {(s + (x,) if at_end else (x,) + s): _ONE_DEN}
    key = (s, x)
    got = memo.get(key)
    if got is not None:
        return got
    got = {}
    for (a, b), c in _swap_pair(u, v, convention):
        first, second = (a, b) if at_end else (b, a)
        for t, m in _insert(rest, first, at_end, convention, memo).items():
            cm = _d_mul(c, m)
            for w, n in _insert(t, second, at_end, convention, memo).items():
                _l_add(got, w, _d_mul(cm, n))
    memo[key] = got
    return got


def normal_order(f: Words, convention: str = "W", strategy: str = "leftmost") -> Words:
    """Rewrite every word into the sorted PBW basis of the convention.

    Each rewrite either swaps an out-of-order pair, lowering the number of
    inversions by one, or (the lam term of X- X+) removes one X+ and one X-.
    So the pair (number of X+ and X- letters, number of inversions) falls
    lexicographically, and the procedure terminates with the unique normal
    form.  ``strategy`` picks the reduction order; the result is independent
    of it (tested), which is the confluence property.  ``"leftmost"`` folds
    each word from the left, inserting the next letter at the end of the
    normal-ordered prefix, so the redex reduced is always the leftmost one;
    ``"rightmost"`` is its mirror image, folding from the right and inserting
    at the front of the normal-ordered suffix.  Insertions are memoized in
    the process-wide table of (convention, strategy), and multipliers stay
    qarith ``Terms`` until one scalar per (input word, output word) is
    built, with the multiplier itself as its numerator.
    """
    if convention not in _RANK:
        raise ValueError(f"unknown convention {convention!r}")
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    at_end = strategy == "leftmost"
    memo = _INSERT_TABLES[convention, at_end]
    out: Words = {}
    for word, coeff in f.items():
        state: dict[Word, Terms] = {(): _ONE_DEN}
        for x in (word if at_end else reversed(word)):
            step: dict[Word, Terms] = {}
            for s, m in state.items():
                for t, n in _insert(s, x, at_end, convention, memo).items():
                    _l_add(step, t, _d_mul(m, n))
            state = step
        for t, m in state.items():
            _add_term(out, t, coeff * QScalar._make(m, _ONE_DEN))
    return out


def is_normal_ordered(word: Word, convention: str) -> bool:
    rank = _RANK[convention]
    return all(rank[word[i]] <= rank[word[i + 1]] for i in range(len(word) - 1))


# -- Weyl map -------------------------------------------------------------------


def _word_from_mono(triple, t_exp: int, convention: str) -> Word:
    a, b, c = triple
    if convention == "W":
        return (XP,) * a + (X3,) * b + (XM,) * c + (X0,) * t_exp
    return (X0,) * t_exp + (XM,) * c + (X3,) * b + (XP,) * a


def _mono_from_word(word: Word, convention: str):
    if not is_normal_ordered(word, convention):
        raise ValueError("word is not normal-ordered in the stated convention")
    a = sum(1 for x in word if x == XP)
    b = sum(1 for x in word if x == X3)
    c = sum(1 for x in word if x == XM)
    t = sum(1 for x in word if x == X0)
    return (a, b, c), t


def weyl_map(f: Poly) -> Words:
    """Monomial-by-monomial lift of a single-sector Poly into the word algebra."""
    if len(f.sectors) != 1:
        raise ValueError("weyl_map takes a single-sector polynomial")
    return {
        _word_from_mono(triples[0], t, f.convention): coeff
        for (triples, t), coeff in f.terms.items()
    }


def weyl_unmap(F: Words, sector: Sector, convention: str = "W") -> Poly:
    """Inverse of weyl_map on normal-ordered input; rejects unsorted words."""
    terms = {}
    for w, coeff in F.items():
        mono, t = _mono_from_word(w, convention)
        terms[((mono,), t)] = coeff
    return Poly((sector,), terms, convention)


def star_via_weyl(f: Poly, g: Poly) -> Poly:
    """The oracle route: lift, multiply, normal-order, pull back."""
    if f.sectors != g.sectors or len(f.sectors) != 1:
        raise ValueError("oracle route needs matching single-sector operands")
    conv = f.convention
    F = weyl_map(f)
    G = weyl_map(g)
    H = normal_order(nc_multiply(F, G), conv)
    return weyl_unmap(H, f.sectors[0], conv)
