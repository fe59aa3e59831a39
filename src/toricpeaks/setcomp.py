"""Subsets of [n], compositions of n, cyclic shifts and the bijections
between them.

A subset is a frozenset of elements of [n] together with an explicit
ambient size n; a composition is a tuple of positive parts. Residue 0 is
always stored as n, so shifted sets stay inside [n].

Internally a subset E of [n] is also an int bitmask with element e at bit
n - e; the elements of qsym store their keys this way. A cyclic shift by
+1 is then a rotation right by one bit, and within one cardinality the
lex-least sorted element list is the largest mask, so the canonical
cyclic class of E is the largest mask in its rotation orbit.

Masks decode to elements through two tables per degree n (``_halves``),
one for the high ⌈n/2⌉ bits and one for the low ⌊n/2⌋: each maps a
half's value to its element tuple and its text, and is filled on first
use, so it holds at most 2^⌈n/2⌉ entries and never a whole mask.

One map per degree, filled a whole orbit at a time, holds the canonical
masks met so far; no degree allocates a 2^n table. The class list of a
degree, built on first use by ``_class_list``, holds every cyclic class of
nonempty subsets of [n] once, with its canonical mask, size, cover (the
mask of K ∪ (K + 1)) and period; Kcyc and the cyclic peak sets read it
instead of the 2^n masks.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Iterable, Iterator

Composition = tuple[int, ...]


def shift_set(E: Iterable[int], n: int, i: int) -> frozenset[int]:
    """Cyclic shift i + E in [n], residues taken in [n] (0 stored as n)."""
    return frozenset((e + i - 1) % n + 1 for e in E)


def phi(E: Iterable[int], n: int) -> Composition:
    """Consecutive differences of 0 < e_1 < ... < e_k < n padded with n.

    Bijection from subsets of [n-1] to compositions of n.
    """
    elems = sorted(E)
    if n == 0 and not elems:
        return ()
    if any(not 1 <= e <= n - 1 for e in elems):
        raise ValueError(f"subset {elems} not contained in [{n - 1}]")
    points = [0] + elems + [n]
    return tuple(points[i + 1] - points[i] for i in range(len(points) - 1))


def psi(E: Iterable[int], n: int) -> Composition:
    """Cyclic gaps (e_2-e_1, ..., e_k-e_{k-1}, e_1-e_k+n) of nonempty E in [n]."""
    elems = sorted(E)
    if not elems:
        raise ValueError("psi is undefined on the empty set")
    if any(not 1 <= e <= n for e in elems):
        raise ValueError(f"subset {elems} not contained in [{n}]")
    k = len(elems)
    return tuple(
        elems[(i + 1) % k] - elems[i] + (n if i == k - 1 else 0)
        for i in range(k)
    )


def canonical_subset_class(E: Iterable[int], n: int) -> frozenset[int]:
    """Shift of E whose sorted element list is lexicographically least.

    Cardinality is shift-invariant, so the cardinality-then-lex order on
    subsets collapses to lex inside a class. E must be a nonempty subset
    of [n].
    """
    E = frozenset(E)
    if not E:
        raise ValueError("the empty set has no cyclic class in [n]")
    return _set(_canonical_mask(_mask(E, n), n), n)


# --- bitmask internals -------------------------------------------------------

# Per degree, mask -> canonical mask for every orbit met so far.
_CANONICAL: defaultdict[int, dict[int, int]] = defaultdict(dict)


def _mask(E: Iterable[int], n: int) -> int:
    """Bitmask of a subset of [n], element e at bit n - e."""
    mask = 0
    for e in E:
        if not 1 <= e <= n:
            raise ValueError(f"subset {sorted(E)} not contained in [{n}]")
        mask |= 1 << (n - e)
    return mask


def _elements(mask: int, n: int) -> tuple[int, ...]:
    """The elements of the subset of [n] with this mask, in increasing order."""
    h, low, hi, lo = _halves(n)
    return hi[mask >> h][0] + lo[mask & low][0]


def _set(mask: int, n: int) -> frozenset[int]:
    """Inverse of :func:`_mask`."""
    return frozenset(_elements(mask, n))


class _Half(dict):
    """The decoded values of one half of degree-n masks, filled on first
    use: the value x of the half maps to its elements, a tuple in
    increasing order, and their text with ", " before each element. Bit b
    of x holds the element ``top - b``."""

    __slots__ = ("top",)

    def __init__(self, top: int):
        self.top = top

    def __missing__(self, x: int) -> tuple[tuple[int, ...], str]:
        elems, rest = [], x
        while rest:
            b = rest.bit_length() - 1
            elems.append(self.top - b)
            rest ^= 1 << b
        entry = self[x] = (tuple(elems), "".join(f", {e}" for e in elems))
        return entry


@functools.cache
def _halves(n: int) -> tuple[int, int, _Half, _Half]:
    """(h, 2^h - 1, hi, lo) for degree n, with h = n // 2: a mask m of
    degree n has the elements ``hi[m >> h][0] + lo[m & (2^h - 1)][0]`` and
    the text ``(hi[m >> h][1] + lo[m & (2^h - 1)][1])[2:]``. The tables
    are filled on first use, so each holds at most 2^⌈n/2⌉ entries and a
    sparse element of high degree only the halves its keys have."""
    h = n // 2
    return h, (1 << h) - 1, _Half(n - h), _Half(n)


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of mask, from mask itself down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _orbit(mask: int, n: int) -> list[int]:
    """The n cyclic shifts of a mask (shift +i is rotation right by i)."""
    out, top = [], n - 1
    for _ in range(n):
        out.append(mask)
        mask = (mask >> 1) | ((mask & 1) << top)
    return out


def _canonical_mask(mask: int, n: int) -> int:
    """The largest mask in the rotation orbit of mask; a miss in the
    degree's map fills the whole orbit."""
    known = _CANONICAL[n]
    if mask not in known:
        orbit = _orbit(mask, n)
        known.update(dict.fromkeys(orbit, max(orbit)))
    return known[mask]


@functools.cache
def _class_list(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every cyclic class of nonempty subsets of [n] once, as
    (K, |K|, C | C << n, p): K is the canonical mask, C = K | (K + 1) the
    cover, doubled so that a rotation by b < n is ``>> b`` under an n-bit
    mask, and p the period, the size of the orbit.

    Read as bit strings from element 1 on, the canonical masks are the
    complements of the binary necklaces, the lex-least rotations. Those
    come from the Lyndon words w of length m dividing n, as w repeated
    n / m times with period m, and the Lyndon words from Duval's
    generation in lex order. Single keys go to the per-degree map of
    ``_canonical_mask``, filled an orbit at a time; no 2^n table is built.
    """
    full, top = (1 << n) - 1, n - 1
    out = []
    word = [-1]
    while word:
        word[-1] += 1
        m = len(word)
        if n % m == 0:
            value = 0
            for x in word:
                value = value << 1 | x
            K = full ^ value * (full // ((1 << m) - 1))
            if K:  # the necklace 1^n is the empty set's
                cover = K | K >> 1 | (K & 1) << top
                out.append((K, K.bit_count(), cover | cover << n, m))
        while len(word) < n:
            word.append(word[-m])
        while word and word[-1] == 1:
            word.pop()
    return tuple(out)
