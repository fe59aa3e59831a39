"""Enriched partitions of DAGs and toric classes, weight enumerators, and
the (cyclic) peak functions they generate.

Values live in the nonzero integers ordered -1 < 1 < -2 < 2 < ...; an
assignment is a dict from vertex labels to such values. Weight enumerators
expand in the monomial bases of qsym. Those of a total order, a peak set, a
DAG and a toric class are one K-expansion (``_delta_from_peaks``) of a
count of peak sets; for a DAG, by the fundamental lemma, the count is one
DP over the peak sets of its linear extensions. Kcyc comes from the cyclic
peak-set formula. An enriched toric partition of [D] is an enriched
partition of exactly one member of [D], and [D] may drop its bridges
(``dag._class_without_bridges``), so Δ_[D] is the folded product, over
the 2-edge-connected components C, of the sums over the members of [C].
The enumerations here are the combinatorial side of every identity the
test suite checks.
"""

from __future__ import annotations

import functools
import heapq
import operator
from collections import Counter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .dag import (
    Dag,
    ToricClass,
    _bridgeless_classes,
    _toric_extensions,
    _without_bridges,
    disjoint_union,
    toric_class,
    toric_extensions,
)
from .permstat import (
    Word,
    check_word,
    cpeak_set,
    cyclic_peak_witness,
    is_cyclic_peak_set,
    is_peak_set,
    peak_set,
)
from .qsym import CQSym, QSym, from_qsym
from .setcomp import _class_list, _mask, _submasks, canonical_subset_class

Assignment = dict[int, int]


def _rank(x: int) -> int:
    """The rank 2|x| - (x < 0) of a nonzero int x in -1 < 1 < -2 < 2 < ..."""
    if type(x) is not int or x == 0:
        raise ValueError(f"{x!r} is not an admissible value")
    return 2 * abs(x) - (x < 0)


def _fits(a: int, b: int, up: bool) -> bool:
    """Whether an arc with tail rank a and head rank b passes, ``up`` when
    the tail's label is the smaller: a < b, or a tie at a positive value
    (even rank) exactly when the arc is up."""
    return a < b or a == b and (a % 2 == 0) == up


def is_enriched(f: Mapping[int, int], d: Dag) -> bool:
    """Whether f, an assignment of exactly d's vertices, is an enriched
    partition of d: every arc passes ``_fits``."""
    missing = d.vertices - f.keys()
    if missing:
        raise ValueError(f"assignment misses vertices {sorted(missing)}")
    if len(f) != len(d.vertices):
        raise ValueError(f"assignment has labels {sorted(f.keys() - d.vertices)} outside d")
    rank = {v: _rank(x) for v, x in f.items()}
    for i, j in d.arcs:
        if not _fits(rank[i], rank[j], i < j):
            return False
    return True


def enumerate_enriched(d: Dag, m: int) -> list[Assignment]:
    """All enriched partitions of d with absolute value at most m, ordered by
    their sorted item lists (the order of ``iter_enriched``)."""
    return list(iter_enriched(d, m))


def iter_enriched(d: Dag, m: int) -> Iterator[Assignment]:
    """The enriched partitions of d with absolute value at most m, one at a
    time, ordered by their sorted item lists.

    Backtracking with an explicit stack: the vertices take values in label
    order, each trying -m, ..., -1, 1, ..., m in integer order, and only
    the values its arcs to earlier vertices allow, so a branch never
    breaks an arc. Depth-first order is then the sorted order. The allowed
    values depend only on the tightest ranks among those neighbours, so
    each list of them is built once per call; the last vertex copies the
    row above it once per allowed value.
    """
    labels, pred = d.labels, d.pred
    n = len(labels)
    if n == 0:
        yield {}
        return
    # Arcs between bit k and the earlier bits e < k (smaller labels):
    # ``tails[k]`` are the tails of arcs e -> k, ``heads[k]`` the heads of
    # arcs k -> e.
    tails = [[e for e in range(k) if pred[k] >> e & 1] for k in range(n)]
    heads = [[e for e in range(k) if pred[e] >> k & 1] for k in range(n)]
    values = [(x, _rank(x)) for x in [*range(-m, 0), *range(1, m + 1)]]
    top = 2 * m + 1
    # The values vertex k allows, keyed by its bounds: ``_fits`` is monotone
    # in each rank, so the largest tail rank and smallest head rank decide.
    allowed: dict[tuple[int, int], list[tuple[int, int]]] = {}
    rank = [0] * n
    row = dict.fromkeys(labels, 0)
    last = n - 1
    # ``stack[k]`` walks the values still to try at vertex k < last.
    stack: list[Iterator[tuple[int, int]]] = []
    k = 0
    while k >= 0:
        if k == len(stack):  # vertex k is reached with new bounds
            lo = max(map(rank.__getitem__, tails[k]), default=0)
            hi = min(map(rank.__getitem__, heads[k]), default=top)
            found = allowed.get((lo, hi))
            if found is None:
                found = allowed[lo, hi] = [
                    (x, r) for x, r in values if _fits(lo, r, True) and _fits(r, hi, False)
                ]
            if k == last:
                for x, _ in found:
                    out = row.copy()
                    out[labels[k]] = x
                    yield out
                k -= 1
                continue
            stack.append(iter(found))
        step = next(stack[k], None)
        if step is None:
            stack.pop()
            k -= 1
        else:
            row[labels[k]], rank[k] = step
            k += 1


def enumerate_enriched_toric(tc: ToricClass, m: int) -> list[Assignment]:
    """All enriched toric partitions of tc with absolute value at most m,
    in the order of ``enumerate_enriched`` (see ``iter_enriched_toric``)."""
    return list(iter_enriched_toric(tc, m))


def iter_enriched_toric(tc: ToricClass, m: int) -> Iterator[Assignment]:
    """The enriched partitions of all class members with absolute value at
    most m, one at a time, in the order of ``iter_enriched``.

    Each one fixes the direction of every arc (the values order its ends,
    and on a tie the sign does), so it belongs to exactly one member and
    the members' sorted streams merge lazily without duplicates. The
    members walked are those of ``dag._class_without_bridges``.
    """
    bare = _without_bridges(tc.canonical)
    members = tc.members if bare is tc.canonical else toric_class(bare).members
    streams = [iter_enriched(member, m) for member in members]
    return heapq.merge(*streams, key=_values_key(bare))


def _values_key(d: Dag) -> Callable[[Mapping[int, int]], tuple[int, ...]]:
    """The key of an assignment on d's vertices: its values in label order.
    Assignments of one vertex set sort by it as by their sorted items, and
    sets of keys compare and join exactly when they share one vertex set."""
    labels = d.labels
    if len(labels) > 1:
        return operator.itemgetter(*labels)
    # itemgetter of one label returns a scalar, and of none raises.
    return lambda f: tuple(f[v] for v in labels)


def delta_perm(w: Sequence[int]) -> QSym:
    """Weight enumerator of the enriched partitions of a total order, K of
    its peak set."""
    word = check_word(w)
    n = len(word)
    return _delta_from_peaks(n, {_mask(peak_set(word), n): 1})


def delta_dag(d: Dag) -> QSym:
    """Weight enumerator of d: by the fundamental lemma, Σ K_{Pk w} over
    the linear extensions w of d (``_peak_distribution``). Each call
    returns a new element."""
    return _delta_from_peaks(len(d.pred), _peak_distribution(d.pred))


@functools.cache
def _peak_distribution(pred: tuple[int, ...]) -> dict[int, int]:
    """The number of linear extensions of the DAG with predecessor masks
    ``pred`` per peak set, keyed by setcomp's mask (peak i at bit n - i).

    A DP that places one vertex at a time. A state is the down-set placed,
    its last bit k (the k-th smallest label) and whether k ascended;
    placing a smaller bit after an ascent puts a peak at k. The start
    state's last bit n stands above every bit. The DP reads a DAG only
    through ``Dag.pred``, so it runs once per bit index for the life of the
    process, and relabelled DAGs share it. Callers must not mutate the dict.
    """
    n = len(pred)
    # Down-set -> (last bit, ascended) -> the peak-mask counts reaching it.
    layer = {0: {(n, False): {0: 1}}}
    for size in range(n):
        peak = 1 << n - size
        steps: dict[int, dict[tuple[int, bool], dict[int, int]]] = {}
        for D, states in layer.items():
            for j in range(n):
                if D >> j & 1 or pred[j] & ~D:
                    continue
                nxt = steps.setdefault(D | 1 << j, {})
                for (k, up), counts in states.items():
                    into = nxt.setdefault((j, k < j), {})
                    bit = peak if up and k > j else 0
                    for S, c in counts.items():
                        S |= bit
                        into[S] = into.get(S, 0) + c
        layer = steps
    return _summed(layer[(1 << n) - 1].values())


def _summed(dists: Iterable[Mapping[int, int]]) -> dict[int, int]:
    """The sum of count dicts, as a new plain dict."""
    out: Counter = Counter()
    for counts in dists:
        out.update(counts)
    return dict(out)


def _delta_from_peaks(n: int, counts: Mapping[int, int]) -> QSym:
    """Σ_S c_S·K_S for peak masks S of degree n, the one K-expansion. By
    Stembridge's formula, M_E for E in [n-1] (an even mask) gets 2^{|E|+1}
    (1 in degree 0) times the sum of the c_S with S inside E ∪ (E+1), mask
    E | E >> 1. One subset-sum over the submasks of U, the union of the S,
    one pass per bit of U, gives every such sum at (E | E >> 1) & U."""
    U = functools.reduce(int.__or__, counts, 0)
    sums = {T: counts.get(T, 0) for T in _submasks(U)}
    rest = U
    while rest:
        h = rest & -rest
        rest ^= h
        for T in sums:
            if T & h:
                sums[T] += sums[T ^ h]
    unit, evens = n > 0, range(0, 1 << n, 2)
    terms = {E: c << E.bit_count() + unit for E in evens if (c := sums[(E | E >> 1) & U])}
    return QSym._make(n, terms)


def _fundamental_from_peaks(n: int, peaks: int) -> dict[int, int]:
    """K_S in the fundamental basis, keyed by masks, for the mask ``peaks``
    of a peak set S in [n]: by Stembridge's peak-set expansion, 2^{|S|+1}
    (1 in degree 0) on each D in [n-1] with S inside D △ (D+1). Such a D
    holds exactly one of s - 1 and s for each peak s, and any set of the
    other elements of [n-1]: D is a submask T of those elements and the
    peaks, with s - 1 in place of each peak s that T leaves out."""
    others = ((1 << n) - 1 & ~1) & ~(peaks | peaks << 1)
    coeff = 1 << peaks.bit_count() + (n > 0)
    return {T | (peaks & ~T) << 1: coeff for T in _submasks(others | peaks)}


def _peak_mask(S: Iterable[int], n: int) -> int:
    """The mask of S, refused unless S is a linear peak set in [n]."""
    S = frozenset(S)
    if not is_peak_set(S, n):
        raise ValueError(f"{sorted(S)} is not a peak set in [{n}]")
    return _mask(S, n)


def k_peak(S: Iterable[int], n: int) -> QSym:
    """K_S, the peak function of a valid linear peak set S in [n]: the
    weight enumerator of any permutation with peak set S."""
    return _delta_from_peaks(n, {_peak_mask(S, n): 1})


def kcyc(S: Iterable[int], n: int) -> CQSym:
    """Kcyc_S, the cyclic peak function of a cyclic peak set S in [n].

    Sum of 2^{|E|} Mcyc_{n,E} over E in [n] with S inside E ∪ (E+1),
    shifts taken cyclically.

    The sum runs over the classes of ``setcomp._class_list``, not over the
    2^n subsets. For a class with canonical mask K, cover C = K ∪ (K+1)
    and period p, the shift K + r passes exactly when s - r lies in C for
    every s in S: in the bitmask encoding of setcomp, when bit r is set in
    the AND over the peak bits b of C rotated right by b. The n shifts
    reach each of the p members of the class n / p times, so the
    coefficient of Mcyc_K is 2^{|K|} times p / n times the number of
    passing shifts.
    """
    S = frozenset(S)
    if not is_cyclic_peak_set(S, n):
        raise ValueError(f"{sorted(S)} is not a cyclic peak set in [{n}]")
    if n == 0:
        return CQSym.unit(1)
    full, peak_bits = (1 << n) - 1, [n - s for s in S]
    terms: dict[int, int] = {}
    for K, size, cover, period in _class_list(n):
        hit = full
        for b in peak_bits:
            hit &= cover >> b
        if hit:
            terms[K] = (hit.bit_count() * period // n) << size
    return CQSym._make(n, terms)


def delta_toric(tc: ToricClass) -> CQSym:
    """Cyclic weight enumerator of a toric class.

    The members' enriched sets are disjoint, so in QSym the class sums its
    members' ``delta_dag``. By ``dag._class_without_bridges``, and as
    disjoint unions multiply, that sum is the product, over the
    2-edge-connected components C of the canonical member, of the member
    sums of [C] (``_toric_peaks``), folded once.
    """
    # The product shares grid columns across the terms of its right
    # operand, so the growing product goes on the right.
    product = QSym.unit()
    for n, counts in _toric_peaks(tc):
        product = _delta_from_peaks(n, counts) * product
    return from_qsym(product)


_TORIC_PEAKS: dict[tuple[int, ...], tuple[tuple[int, dict[int, int]], ...]] = {}


def _toric_peaks(tc: ToricClass) -> tuple[tuple[int, dict[int, int]], ...]:
    """For each 2-edge-connected component C of tc's canonical member, its
    degree and the summed peak distributions of the members of [C]. They
    depend only on that member's bit index, and are kept in
    ``_TORIC_PEAKS`` under it: Δ and Ω of a class, or Ω at a second m,
    build its component classes once, relabelled classes share the entry,
    and no ``Dag`` is kept. Callers must not mutate the dicts."""
    key = tc.canonical.pred
    if key not in _TORIC_PEAKS:
        _TORIC_PEAKS[key] = tuple(
            (len(c.canonical.pred), _summed(_peak_distribution(e.pred) for e in c.members))
            for c in _bridgeless_classes(tc)
        )
    return _TORIC_PEAKS[key]


def delta_toric_by_rotations(tc: ToricClass) -> CQSym:
    """Independent route: one K-expansion of the peak sets of all n
    rotations of every toric extension, folded into the Mcyc basis."""
    n = len(tc.canonical.vertices)
    if n == 0:
        return CQSym.unit(1)
    counts = Counter(
        _mask(peak_set(w[i:] + w[:i]), n) for w in _toric_extensions(tc.members) for i in range(n)
    )
    return from_qsym(_delta_from_peaks(n, counts))


def standardize(w: Sequence[int], offset: int) -> Word:
    """Shift every label of w by a fixed offset."""
    return tuple(x + offset for x in w)


def cyclic_peak_product(
    U: Iterable[int], mU: int, T: Iterable[int], nT: int
) -> tuple[CQSym, Counter]:
    """Product Kcyc_U * Kcyc_T with its toric-extension decomposition.

    Builds witnesses, standardizes the second to labels above mU, and
    counts the toric extensions of the disjoint union of the witness total
    orders by canonical cPk class; the decomposition is empty when a degree
    is 0. The ``closure`` verify suite checks that the product equals the
    sum of Kcyc over the decomposition.
    """
    U, T = frozenset(U), frozenset(T)
    lhs = kcyc(U, mU) * kcyc(T, nT)
    if mU == 0 or nT == 0:
        return lhs, Counter()
    pi = cyclic_peak_witness(U, mU)
    w = standardize(cyclic_peak_witness(T, nT), mU)
    union = disjoint_union(Dag.from_word(pi), Dag.from_word(w))
    n = mU + nT
    decomposition = Counter(
        canonical_subset_class(cpeak_set(sigma), n) for sigma in toric_extensions(union)
    )
    return lhs, decomposition
