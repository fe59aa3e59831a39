"""Exact homogeneous quasi-symmetric and cyclic quasi-symmetric functions.

The monomial basis is the canonical internal representation. A ``QSym``
of degree n stores a sparse map from subsets of [n-1] to integer
coefficients; a ``CQSym`` maps canonical cyclic subset classes in [n] to
integers. Both key their maps by the bitmasks of setcomp (element e at
bit n - e) and show frozenset keys only at the API edge: the ``terms``
view and the public constructors. JSON and ``repr`` rows list the
masks in the order of their sorted element lists, by an integer rank
(:func:`_ranked`), and read each mask's elements and text from the two
half tables of ``setcomp._halves``; a JSON row is one ``%`` template,
byte for byte what ``json.dumps`` gives. Fundamental and cyclic bases
are views and constructors on top of these.

Products walk the quasi-shuffle lattice paths one grid column at a time,
sharing the columns that consecutive right terms have in common (see
:meth:`QSym.__mul__`). Up to degree 10 each grid cell is one packed int,
a digit per partial-sum mask; above it a cell is a dict holding only the
masks that occur. A cyclic product goes through QSym, and the monomial
expansion of each cyclic class is cached for the process.
Multiplying a QSym by a CQSym, either way round, raises ``TypeError``.

All coefficients are exact Python integers.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping

from .setcomp import (
    _canonical_mask,
    _elements,
    _halves,
    _mask,
    _orbit,
    _set,
    _submasks,
)


class NotCyclicError(ValueError):
    """A quasi-symmetric function does not lie in cQSym."""


def _clean(terms: Mapping) -> dict:
    return {k: v for k, v in terms.items() if v != 0}


class _Homogeneous:
    """Homogeneous element of a fixed degree: a sparse map from keys to
    nonzero integers, shared by :class:`QSym` and :class:`CQSym`.

    ``masks`` maps each key, as a bitmask of degree ``degree``, to its
    coefficient. Subclasses supply ``_key``, which validates a subset and
    returns its mask, the basis name ``_symbol`` and the classmethods
    ``zero`` and ``unit`` (of ``_zero`` and ``_unit``). The public
    constructor validates the degree, every key and every coefficient;
    results the library builds itself come from ``_make``, which takes
    masks already known to be valid and adopts the dict it is handed.
    Elements of different subclasses never compare equal, add or multiply.
    """

    __slots__ = ("degree", "masks")

    def __init__(self, degree: int, terms: Mapping[frozenset, int]):
        self.masks = self._keyed(degree, terms)
        self.degree = degree

    @classmethod
    def _keyed(cls, degree: int, terms: Mapping[frozenset, int]) -> dict[int, int]:
        """The nonzero terms keyed by masks, with the degree, each key and
        each coefficient checked."""
        _degree(degree)
        masks = {}
        for E, c in terms.items():
            if type(c) is not int:  # a bool or other subclass prints as itself
                raise ValueError(f"coefficient {c!r} of {sorted(E)} is not an integer")
            key = cls._key(degree, E)
            if c:
                masks[key] = c
        return masks

    @classmethod
    def _make(cls, degree: int, masks: Mapping[int, int]):
        """An element from masks already known to be valid keys.

        A plain dict with no zero coefficient becomes the element's own
        ``masks``, not a copy, so callers hand over a fresh dict that
        nothing else holds or changes. Any other mapping, or a dict with
        a zero, is copied by ``_clean``.
        """
        out = object.__new__(cls)
        out.degree = degree
        if type(masks) is dict and 0 not in masks.values():
            out.masks = masks
        else:
            out.masks = _clean(masks)
        return out

    @property
    def terms(self) -> Mapping[frozenset, int]:
        """Read-only view of the coefficients keyed by frozensets, built
        on each access."""
        n = self.degree
        return MappingProxyType({_set(k, n): c for k, c in self.masks.items()})

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.degree == other.degree
            and self.masks == other.masks
        )

    def __bool__(self) -> bool:
        return bool(self.masks)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("cannot add elements of different degrees")
        out = dict(self.masks)
        for k, c in other.masks.items():
            out[k] = out.get(k, 0) + c
        return self._make(self.degree, out)

    def __neg__(self):
        return self._make(self.degree, {k: -c for k, c in self.masks.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        if type(c) is not int:
            raise ValueError(f"scalar {c!r} is not an integer")
        return self._make(self.degree, {k: c * v for k, v in self.masks.items()})

    def __rmul__(self, c: int):
        if not isinstance(c, int):
            return NotImplemented
        return self.scale(c)

    def __repr__(self) -> str:
        name, n = type(self).__name__, self.degree
        if not self.masks:
            return f"{name}({n}, 0)"
        parts = [
            f"{self.masks[m]}*{self._symbol}{{{','.join(map(str, _elements(m, n)))}}}"
            for m in _ranked(self.masks, n)
        ]
        return f"{name}({n}, {' + '.join(parts)})"

    def to_json(self) -> str:
        return _json(self._symbol, self.degree, self.masks)


def _json(basis: str, n: int, masks: Mapping[int, int]) -> str:
    """The JSON text of the payload {"degree", "basis", "terms"} of the
    degree-n terms masks in basis, with one row {"coeff", "set"} per mask
    in rank order, byte for byte what ``json.dumps(payload,
    sort_keys=True)`` gives. Each row is one ``%`` template over the
    coefficient and the text of the two half tables of ``setcomp._halves``."""
    h, low, hi, lo = _halves(n)
    rows = [
        '{"coeff": %d, "set": [%s]}' % (masks[m], (hi[m >> h][1] + lo[m & low][1])[2:])
        for m in _ranked(masks, n)
    ]
    return '{"basis": "%s", "degree": %d, "terms": [%s]}' % (basis, n, ", ".join(rows))


def _degree(n: int) -> int:
    """n, checked to be a nonnegative integer."""
    if type(n) is not int or n < 0:
        raise ValueError(f"degree {n!r} is not a nonnegative integer")
    return n


def _variables(m: int) -> None:
    """Refuse m as a number of variables unless it is a nonnegative integer."""
    if type(m) is not int or m < 0:
        raise ValueError(f"number of variables {m!r} is not a nonnegative integer")


def _json_terms(payload: str) -> tuple[object, object, dict[frozenset, int]]:
    """The degree, basis and term coefficients of a JSON payload, refusing
    a payload, row or set of the wrong shape and a set that repeats an
    element or is listed twice; ``_keyed`` checks degree and coefficients."""
    data = json.loads(payload)
    keys = {"degree", "basis", "terms"}
    if type(data) is not dict or not keys <= data.keys() or type(data["terms"]) is not list:
        raise ValueError("expected a JSON object with degree, basis and a list of terms")
    coeffs = {}
    for t in data["terms"]:
        if type(t) is not dict or not {"set", "coeff"} <= t.keys():
            raise ValueError(f"a row must be an object with set and coeff, not {json.dumps(t)}")
        if type(t["set"]) is not list or any(type(e) is not int for e in t["set"]):
            raise ValueError(f"set {json.dumps(t['set'])} is not a list of integers")
        E = frozenset(t["set"])
        if len(E) != len(t["set"]):
            raise ValueError(f"set {t['set']} repeats an element")
        if E in coeffs:
            raise ValueError(f"set {sorted(E)} is listed twice")
        coeffs[E] = t["coeff"]
    return data["degree"], data["basis"], coeffs


def _ranked(masks: Iterable[int], n: int) -> list[int]:
    """The masks of degree n in the order of their sorted element lists.

    That order ranks the subsets of [n] from 0, the empty set, to
    2^n - 1. A nonempty set's rank counts one for each of its elements,
    and 2^(n-e) for each absent element e below its largest, for the
    subsets that take e at that place. For the mask m those absent
    elements are the bits of ``full ^ m`` above its lowest set bit, so
    the rank is ``popcount(m) + ((full ^ m) & -((m & -m) << 1))``.
    """
    full = (1 << n) - 1
    return sorted(masks, key=lambda m: m.bit_count() + ((full ^ m) & -((m & -m) << 1)))


def _zero(cls, degree: int):
    return cls._make(degree, {})


def _unit(cls, coeff: int = 1):
    return cls._make(0, {0: 1}).scale(coeff)


class QSym(_Homogeneous):
    """Homogeneous degree-n quasi-symmetric function in the monomial basis."""

    __slots__ = ()
    _symbol = "M"

    # zero and unit have one body each but live on each subclass: a
    # classmethod of the base that is patched and then restored with
    # getattr (as perfbench's tracer does) comes back bound to the base.
    zero = classmethod(_zero)
    unit = classmethod(_unit)

    @staticmethod
    def _key(degree: int, E: Iterable[int]) -> int:
        E = frozenset(E)
        if not E <= frozenset(range(1, degree)):
            raise ValueError(f"subset {sorted(E)} not inside [{degree - 1}]")
        return _mask(E, degree)

    def __mul__(self, other: "QSym") -> "QSym":
        """Product via the quasi-shuffle of indexing compositions.

        Each quasi-shuffle of alpha and beta is a lattice path from (0, 0)
        to (len(alpha), len(beta)) with steps (1, 0), (0, 1) and (1, 1);
        its partial sums are A_i + B_j at the path's interior points, where
        A and B are the partial sums of alpha and beta. A DP over the grid
        counts the paths per set of partial sums, as bitmasks, one column
        j at a time. Column j depends only on A and B_0, ..., B_j, so for
        one left term the right terms are walked in order of their
        partial-sum lists, and each recomputes only the columns past the
        prefix it shares with the one before it.

        The degree n picks the cell type. Up to ``_PACKED_MAX_DEGREE`` (10)
        a cell is one int with a fixed-width digit per mask
        (:func:`_packed_product`): adding a bit to every mask is one shift
        and merging three cells two additions. A packed cell costs 2^(n-1)
        digits however few masks it holds, so above that degree a cell is
        a dict of the masks that occur (:func:`_shuffle_into`), which
        sparse high-degree products need.

        Multiplying by an int scales; any type other than ``int`` and
        ``QSym`` raises ``TypeError``.
        """
        if isinstance(other, int):
            return self.scale(other)
        if type(other) is not QSym:
            return NotImplemented
        p, q = self.degree, other.degree
        if not p:
            return other.scale(self.masks.get(0, 0))
        if not q:
            return self.scale(other.masks.get(0, 0))
        n = p + q
        rights = sorted((_partial_sums(L, q), b) for L, b in other.masks.items())
        if n <= _PACKED_MAX_DEGREE:
            return QSym._make(n, _packed_product(self.masks, p, rights, n))
        out: dict[int, int] = {}
        for E, a in self.masks.items():
            _shuffle_into(out, _partial_sums(E, p), a, rights, n)
        return QSym._make(n, out)

    def to_fundamental(self) -> dict[frozenset, int]:
        """F-basis coefficients by inclusion-exclusion over supersets."""
        n = self.degree
        return {_set(L, n): c for L, c in self._fundamental_masks().items()}

    def _fundamental_masks(self) -> dict[int, int]:
        """:meth:`to_fundamental` keyed by masks."""
        return _clean(_superset_sum(self.masks, self.degree, signed=True))

    @classmethod
    def from_fundamental(cls, degree: int, coeffs: Mapping[frozenset, int]) -> "QSym":
        """The sum of c F_{degree,E} over the items (E, c) of coeffs."""
        masks = cls._keyed(degree, coeffs)
        return cls._make(degree, _superset_sum(masks, degree, signed=False))

    def specialize_ones(self, m: int) -> int:
        """Value at x_1 = ... = x_m = 1, all other variables 0."""
        _variables(m)
        # A key E of degree n >= 1 has |E| + 1 parts; degree 0 has none.
        extra = 1 if self.degree else 0
        return sum(c * comb(m, E.bit_count() + extra) for E, c in self.masks.items())

    def to_json(self, basis: str = "M") -> str:
        if basis == "M":
            return _json(basis, self.degree, self.masks)
        if basis == "F":
            return _json(basis, self.degree, self._fundamental_masks())
        raise ValueError(f"unknown basis {basis!r}")

    @classmethod
    def from_json(cls, payload: str) -> "QSym":
        degree, basis, coeffs = _json_terms(payload)
        if basis == "M":
            return cls(degree, coeffs)
        if basis == "F":
            return cls.from_fundamental(degree, coeffs)
        raise ValueError(f"unknown basis {basis!r}")


def _superset_sum(masks: Mapping[int, int], n: int, signed: bool) -> dict[int, int]:
    """Add each coefficient c of a key E inside [n-1] to every superset L of
    E, negated when signed and |L - E| is odd: F to M unsigned, and its
    inverse, M to F, signed."""
    ambient, odd = _mask(range(1, n), n), int(signed)
    out: dict[int, int] = {}
    for mask, c in masks.items():
        for extra in _submasks(ambient ^ mask):
            L = mask | extra
            out[L] = out.get(L, 0) + (-c if extra.bit_count() & odd else c)
    return out


def _partial_sums(mask: int, n: int) -> list[int]:
    """Partial sums 0, a_1, a_1 + a_2, ..., n of the composition phi(E, n),
    for the mask of E inside [n-1]."""
    return [0, *(n - b for b in range(n - 1, 0, -1) if mask >> b & 1), n] if n else [0]


# Products of degree at most this pack their grid cells. At degree 10
# packing runs dense products (Kcyc by Kcyc) about three times as fast and
# a sparse one (2 M_1 by (2 M_1)^9) about 15 % slower; at degree 12 it
# runs that sparse one three times slower.
_PACKED_MAX_DEGREE = 10


def _packed_product(
    left: Mapping[int, int], p: int, rights: list[tuple[list[int], int]], n: int
) -> dict[int, int]:
    """The masks of sum of a * b * M_A * M_B over the left terms (E, a) and
    the right terms (B, b), with every grid cell one packed int.

    Digit d of a cell, W bits wide, counts the paths whose partial-sum
    mask is d, where sum s sits at bit s - 1, so cells near (0, 0) stay
    small. Adding sum s to every mask is a left shift by W << (s - 1).
    A digit never exceeds sum |a| * sum |b| times the number of lattice
    paths, at most 3^n, so W, a whole number of bytes, is at least that
    product's bit length plus 2n + 1. Positive and negative terms go to
    two accumulators, each decoded once.
    """
    size = sum(map(abs, left.values())) * sum(abs(b) for _, b in rights)
    width = (size.bit_length() + 2 * n + 8) // 8  # bytes per digit
    step = [0] + [8 * width << (s - 1) for s in range(1, n)]
    acc = [0, 0]  # the positive and the negated negative terms
    for E, a in left.items():
        A = _partial_sums(E, p)
        k = len(A) - 1
        cell, first = 1, [1]
        for x in A[1:]:
            cell <<= step[x]
            first.append(cell)
        column = functools.partial(_packed_column, A, step)
        for b, prev, last in _walk(first, rights, column, k):
            ab = a * b
            end = prev[k] + last[k - 1] + prev[k - 1]
            if ab > 0:
                acc[0] += ab * end
            else:
                acc[1] -= ab * end
    masks = _unpacked_masks(n)
    pos, neg = (_digits(total, width, len(masks)) for total in acc)
    return {m: x - y for m, x, y in zip(masks, pos, neg) if x != y}


def _digits(total: int, width: int, count: int) -> Iterable[int]:
    """The count digits of total, width bytes each, lowest first."""
    if not total:
        return itertools.repeat(0)
    raw = total.to_bytes(width * count, "little")
    return [int.from_bytes(raw[at : at + width], "little") for at in range(0, len(raw), width)]


def _packed_column(A: list[int], step: list[int], prev: list[int], x: int, rows: int) -> list[int]:
    """Rows 0, ..., rows - 1 of the packed grid column with partial sum x,
    from the column before it; see :func:`_packed_product`."""
    cell = prev[0] << step[x]
    col = [cell]
    for i in range(1, rows):
        cell = (cell + prev[i] + prev[i - 1]) << step[A[i] + x]
        col.append(cell)
    return col


@functools.cache
def _unpacked_masks(n: int) -> list[int]:
    """setcomp's mask of degree n for each packed mask, whose bit s - 1
    stands for the element s of [n-1]."""
    out = [0]
    for s in range(1, n):
        out += [m | 1 << (n - s) for m in out]
    return out


def _shuffle_into(
    out: dict[int, int], A: list[int], a: int, rights: list[tuple[list[int], int]], n: int
) -> None:
    """Add a * b * M_A * M_B into out for every right term (B, b), with
    every grid cell a dict; products above degree 10 take this route.

    A and each B are partial-sum lists of positive degree, and rights is
    sorted by B. Cell (i, j) of the grid maps each partial-sum mask of the
    paths from (0, 0) to (i, j) to their number, in setcomp's encoding;
    its own bit is that of A_i + B_j. The end cell, which sets no bit (its
    sum is n), is never built: its three neighbours go straight into out.
    """
    k = len(A) - 1
    shifts = [n - x for x in A]
    first, mask = [{0: 1}], 0
    for s in shifts[1:]:
        mask |= 1 << s
        first.append({mask: 1})
    column = functools.partial(_column, shifts)
    for b, prev, last in _walk(first, rights, column, k):
        ab = a * b
        for src in (prev[k], last[k - 1], prev[k - 1]):
            for m, c in src.items():
                out[m] = out.get(m, 0) + ab * c


def _walk(first: list, rights: list[tuple[list[int], int]], column, k: int):
    """For each right term (B, b), in order, yield b, the grid column
    before B's last one and rows 0, ..., k - 1 of the last one.

    ``first`` is column 0, and ``column(prev, x, rows)`` builds the column
    with partial sum x from the one before it. ``cols`` holds the columns
    of the current B before its last one; column j depends only on A and
    B_0, ..., B_j, so each B rebuilds only the columns past the prefix it
    shares with the B before it.
    """
    cols, before = [first], [0]
    for B, b in rights:
        j = 1
        while j < len(before) and B[j] == before[j]:
            j += 1
        del cols[j:]
        for x in B[j:-1]:
            cols.append(column(cols[-1], x, k + 1))
        prev = cols[-1]
        yield b, prev, column(prev, B[-1], k)
        before = B


def _column(
    shifts: list[int], prev: list[dict[int, int]], x: int, rows: int
) -> list[dict[int, int]]:
    """Rows 0, ..., rows - 1 of the grid column with partial sum x, from
    the column before it. No source mask holds the cell's own bit."""
    bit = 1 << (shifts[0] - x)
    cell = {m | bit: c for m, c in prev[0].items()}
    col = [cell]
    for i in range(1, rows):
        bit = 1 << (shifts[i] - x)
        cell = {m | bit: c for m, c in cell.items()}
        for src in (prev[i], prev[i - 1]):
            for m, c in src.items():
                m |= bit
                cell[m] = cell.get(m, 0) + c
        col.append(cell)
    return col


def monomial(n: int, E: Iterable[int]) -> QSym:
    """M_{n,E} for E inside [n-1]."""
    return QSym._make(n, {QSym._key(_degree(n), E): 1})


def fundamental(n: int, E: Iterable[int]) -> QSym:
    """F_{n,E} = sum of M_{n,L} over supersets L of E in [n-1]."""
    return QSym.from_fundamental(n, {frozenset(E): 1})


class CQSym(_Homogeneous):
    """Homogeneous cyclic quasi-symmetric function in the cyclic monomial basis.

    Term keys are canonical cyclic subset classes in [n], as the largest
    mask of their rotation orbit (degree 0 uses mask 0, the empty set, as
    the unit key).
    """

    __slots__ = ()
    _symbol = "Mcyc"

    zero = classmethod(_zero)
    unit = classmethod(_unit)

    @staticmethod
    def _key(degree: int, E: Iterable[int]) -> int:
        E = frozenset(E)
        if degree == 0:
            if E:
                raise ValueError("degree-0 element admits only the unit term")
            return 0
        mask = _mask(E, degree)
        if not mask or _canonical_mask(mask, degree) != mask:
            raise ValueError(f"{sorted(E)} is not a canonical class key")
        return mask

    def __mul__(self, other: "CQSym") -> "CQSym":
        """Product in cQSym, computed in QSym and folded back.

        A :class:`NotCyclicError` here signals an internal inconsistency:
        products of cyclic elements are always cyclic. Multiplying by an
        int scales; any type other than ``int`` and ``CQSym`` raises
        ``TypeError``.
        """
        if isinstance(other, int):
            return self.scale(other)
        if type(other) is not CQSym:
            return NotImplemented
        return from_qsym(self.as_qsym() * other.as_qsym())

    def as_qsym(self) -> QSym:
        """Expansion into the monomial basis of QSym."""
        n = self.degree
        if n == 0:
            return QSym.unit(self.masks.get(0, 0))
        out: dict[int, int] = {}
        for E, c in self.masks.items():
            for L, mult in _class_expansion(E, n):
                out[L] = out.get(L, 0) + c * mult
        return QSym._make(n, out)

    def specialize_ones(self, m: int) -> int:
        """Value at x_1 = ... = x_m = 1, all other variables 0. Each of the
        |K| monomial terms M_L of Mcyc_K has |L| + 1 = |K| parts, so Mcyc_K
        gives |K| * C(m, |K|); degree 0 gives its one coefficient."""
        _variables(m)
        if not self.degree:
            return self.masks.get(0, 0)
        return sum(c * K.bit_count() * comb(m, K.bit_count()) for K, c in self.masks.items())

    @classmethod
    def from_json(cls, payload: str) -> "CQSym":
        degree, basis, coeffs = _json_terms(payload)
        if basis != "Mcyc":
            raise ValueError(f"unknown basis {basis!r}")
        return cls(degree, coeffs)


@functools.cache
def _class_expansion(mask: int, n: int) -> tuple[tuple[int, int], ...]:
    """Monomial expansion multiset of a cyclic monomial class, as
    (mask, multiplicity) pairs in order of first occurrence.

    Mcyc_{n,E} is the sum of M_{n,(E-e) ∩ [n-1]} over e in E; equal subsets
    are collected with multiplicity. E - e is the shift by b = n - e, which
    moves e to n, at bit 0.
    """
    orbit = _orbit(mask, n)
    return tuple(Counter(orbit[b] & ~1 for b in range(n) if mask >> b & 1).items())


def cyclic_monomial(n: int, E: Iterable[int]) -> CQSym:
    """Mcyc_{n,E}; the empty set gives the zero element."""
    mask = _mask(frozenset(E), _degree(n))
    return CQSym._make(n, {_canonical_mask(mask, n): 1} if mask else {})


def cyclic_fundamental(n: int, E: Iterable[int]) -> CQSym:
    """Fcyc_{n,E}: sum of Mcyc_{n,L} over supersets L of E in [n].

    Supersets falling in the same cyclic class accumulate multiplicity.
    """
    E = frozenset(E)
    if not E:
        raise ValueError("Fcyc requires a nonempty index set")
    mask = _mask(E, n)
    free = ((1 << n) - 1) ^ mask
    return CQSym._make(n, Counter(_canonical_mask(mask | x, n) for x in _submasks(free)))


def from_qsym(a: QSym) -> CQSym:
    """Fold a QSym element lying in cQSym into the cyclic monomial basis.

    Raises :class:`NotCyclicError` when coefficients fail the
    class-consistency or divisibility conditions.
    """
    n = a.degree
    if n == 0:
        return CQSym.unit(a.masks.get(0, 0))
    # M_{n,L} occurs in Mcyc_{n,E} exactly when L ∪ {n} lies in the class of
    # E; n is bit 0. So the classes' expansions have disjoint terms, and
    # together they hold every term of a. Each class's coefficient is read
    # off its first term, and every term of its expansion must match.
    coeffs: dict[int, int] = {}
    for key in {_canonical_mask(L | 1, n) for L in a.masks}:
        L0, mult0 = _class_expansion(key, n)[0]
        c0 = a.masks.get(L0, 0)
        if c0 % mult0 != 0:
            raise NotCyclicError(
                f"coefficient {c0} of M_{{{n},{sorted(_set(L0, n))}}} is not "
                f"divisible by its class multiplicity {mult0}"
            )
        coeffs[key] = c0 // mult0
    get = a.masks.get
    for key, c in coeffs.items():
        for L, mult in _class_expansion(key, n):
            if get(L, 0) != c * mult:
                raise NotCyclicError("coefficients are inconsistent across a cyclic class")
    return CQSym._make(n, coeffs)
