"""Enriched partitions of DAGs and toric classes, weight enumerators, and
the (cyclic) peak functions they generate.

Values live in the nonzero integers ordered -1 < 1 < -2 < 2 < ...; an
assignment is a dict from vertex labels to such values. Weight enumerators
expand in the monomial bases of qsym. Those of a total order, a peak set, a
DAG and a toric class are one K-expansion (``_delta_from_peaks``) of a
count of peak sets; for a DAG, by the fundamental lemma, the count is one
DP over the peak sets of its linear extensions. Kcyc comes from the cyclic
peak-set formula.

Products stay in the peak basis. By Stembridge's closure of the peak
algebra, K_S·K_T is the sum of K_{Pk w} over the shuffles w of any two
words with peak sets S and T on disjoint letters, and one shuffle DP over
peak masks (``_shuffle_peaks``) counts those peak sets. A DAG's isolated
vertices join its DP's count one letter at a time. An enriched toric
partition of [D] is an enriched partition of exactly one member of [D],
and [D] may drop its bridges (``dag._class_without_bridges``), so Δ_[D]
folds the member sums of the classes of the 2-edge-connected components
by that DP, with one K-expansion at the end. A product of two cyclic peak
functions decomposes over the toric extensions of two witness cycles; cut
at the letter 1, these are the shuffles of the first witness's other
letters with the rotations of the second, so the same DP counts their
cyclic peak sets without listing them. The enumerations here are the
combinatorial side of every identity the test suite checks.
"""

from __future__ import annotations

import functools
import heapq
import operator
from collections import Counter, OrderedDict
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .dag import (
    Dag,
    ToricClass,
    _bits,
    _bridgeless_classes,
    _toric_extensions,
    _undirected,
    _without_bridges,
    toric_class,
)
from .permstat import (
    Word,
    _witness,
    check_word,
    cyclic_peak_witness,
    is_cyclic_peak_set,
    is_peak_set,
    peak_set,
)
from .qsym import CQSym, QSym, from_qsym
from .setcomp import _canonical_mask, _class_list, _mask, _set, _submasks

Assignment = dict[int, int]

# Peak masks kept by the process-wide DP memos. A bit index's peak
# distribution is reused by Δ and by every Ω of its shape, a class's
# component sums by its Δ and Ω, a shuffle's by the Δ and cyclic products
# that meet its two words again. An entry holds up to one count per peak
# set, 100 to 200 bytes each: a 16-vertex fence's 987 masks take 92 KB
# and a 20-vertex fence's 6,765 take 700 KB, so the memos are bounded by
# masks, not by entries.
_PEAKS_MEMO = 1 << 18
_TORIC_MEMO = 1 << 17
_SHUFFLE_MEMO = 1 << 16


class _Memo(OrderedDict):
    """Values by key, least recently used first. Each value weighs the
    peak masks it holds (``weigh``), and entries go from the front while
    the memo holds more than ``budget`` masks, so one value above the
    budget is not kept. ``misses`` counts computed values since the last
    ``clear``."""

    def __init__(self, budget: int, weigh: Callable[[Any], int]):
        super().__init__()
        self.budget, self.weigh, self.held, self.misses = budget, weigh, 0, 0

    def fetch(self, key, compute: Callable, *args):
        """The value under key, ``compute(*args)`` on a miss."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
            return value
        value = self[key] = compute(*args)
        self.misses += 1
        self.held += self.weigh(value)
        while self.held > self.budget:
            self.held -= self.weigh(self.popitem(last=False)[1])
        return value

    def clear(self) -> None:
        super().clear()
        self.held = self.misses = 0


# Bit index -> the counts of ``_peak_distribution``; (u, v, start) -> the
# counts of ``_shuffle_peaks``.
_PEAKS = _Memo(_PEAKS_MEMO, len)
_SHUFFLES = _Memo(_SHUFFLE_MEMO, len)


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
    the linear extensions w of d. The vertices with an arc take one
    ``_peak_distribution``; each isolated vertex multiplies Δ by K_∅ of
    degree 1, and joins the count as a one-letter shuffle
    (``_peaks_product``), so the DP's down-sets do not double per isolated
    vertex. Each call returns a new element."""
    pred = d.pred
    adj = _undirected(pred)
    linked = [k for k, nbrs in enumerate(adj) if nbrs]
    if len(linked) < len(pred):
        index = {k: i for i, k in enumerate(linked)}
        pred = tuple(sum(1 << index[j] for j in _bits(pred[k])) for k in linked)
    points = [(1, {0: 1})] * (len(adj) - len(linked))
    n, counts = functools.reduce(_peaks_product, points, (len(pred), _peak_distribution(pred)))
    return _delta_from_peaks(n, counts)


def _peak_distribution(pred: tuple[int, ...]) -> dict[int, int]:
    """The number of linear extensions of the DAG with predecessor masks
    ``pred`` per peak set, keyed by setcomp's mask (peak i at bit n - i).
    ``_peak_dp`` reads a DAG only through ``Dag.pred``, so it runs once
    per bit index while the index stays in ``_PEAKS``, and relabelled DAGs
    share it. Callers must not mutate the dict."""
    return _PEAKS.fetch(pred, _peak_dp, pred)


def _peak_dp(pred: tuple[int, ...]) -> dict[int, int]:
    """``_peak_distribution`` by a DP that places one vertex at a time. A
    state is the down-set placed, its last bit k (the k-th smallest label)
    and whether k ascended; placing a smaller bit after an ascent puts a
    peak at k. The start state's last bit n stands above every bit."""
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


def _peaks_product(
    left: tuple[int, Mapping[int, int]], right: tuple[int, Mapping[int, int]]
) -> tuple[int, dict[int, int]]:
    """The degree and peak-mask counts whose K-expansion is the product of
    those of two (degree, counts) pairs. By Stembridge, K_S·K_T is the sum
    of K_{Pk w} over the shuffles w of any u with Pk u = S and v with
    Pk v = T on disjoint letters; here u holds 1..a and v a+1..a+b, as
    ``permstat._witness`` builds them, after a sentinel above both. As
    K_S·K_T = K_T·K_S, a pair times itself runs each unordered pair of
    peak sets once, S < T counted twice."""
    (a, lcounts), (b, rcounts) = left, right
    top = a + b + 1
    square = left == right
    words = [(T, standardize(_witness(_set(T, b), b, 0), a), d) for T, d in rcounts.items()]
    out: dict[int, int] = {}
    for S, c in lcounts.items():
        u = _witness(_set(S, a), a, 0)
        for T, v, d in words:
            if square and T != S:
                if T < S:
                    continue
                d *= 2
            cd = c * d
            for R, e in _shuffle_peaks(u, v, top).items():
                out[R] = out.get(R, 0) + cd * e
    return a + b, out


def _shuffle_peaks(u: Word, v: Word, start: int) -> dict[int, int]:
    """The number of shuffles of the words u and v per peak mask, the
    shuffle read cyclically after the letter ``start`` (which is never a
    peak), and its letter i at bit n - i for n = |u| + |v|. Kept in
    ``_SHUFFLES``; callers must not mutate the dict."""
    return _SHUFFLES.fetch((u, v, start), _shuffle_dp, u, v, start)


def _shuffle_dp(u: Word, v: Word, start: int) -> dict[int, int]:
    """``_shuffle_peaks`` by a DP that places one letter at a time. A
    state is the u letters placed (the v letters placed are the rest),
    the last letter and whether it ascended; placing a lower letter after
    an ascent puts a peak at the last one, and so does closing the cycle
    back to ``start``. A start above every letter gives the linear peak
    sets of the shuffles; a start of 1, below every letter, gives the
    cyclic peak sets of the words 1 + shuffle, position 1 never a peak
    and position n + 1 a peak exactly when the last step ascends."""
    a, n = len(u), len(u) + len(v)
    # (u letters placed, last letter, ascended) -> the peak-mask counts.
    layer = {(0, start, False): {0: 1}}
    for t in range(n):
        peak = 1 << n - t
        steps: dict[tuple[int, int, bool], dict[int, int]] = {}
        for (i, last, up), counts in layer.items():
            if i < a:
                x = u[i]
                _add_counts(steps, (i + 1, x, last < x), counts, peak if up and last > x else 0)
            if t - i < n - a:
                x = v[t - i]
                _add_counts(steps, (i, x, last < x), counts, peak if up and last > x else 0)
        layer = steps
    out: dict[int, int] = {}
    for (_, last, up), counts in layer.items():
        bit = 1 if up and last > start else 0
        for S, c in counts.items():
            S |= bit
            out[S] = out.get(S, 0) + c
    return out


def _add_counts(into: dict, key, counts: Mapping[int, int], bit: int) -> None:
    """Add the counts, each mask with ``bit`` set, to ``into[key]``; a new
    entry is a fresh dict. ``bit`` is 0 or a bit no mask of counts has."""
    held = into.get(key)
    if held is None:
        into[key] = {S | bit: c for S, c in counts.items()} if bit else dict(counts)
    else:
        for S, c in counts.items():
            S |= bit
            held[S] = held.get(S, 0) + c


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
    sums of [C] (``_toric_peaks``). The product is folded in the peak basis
    (``_peaks_product``), and then K-expanded and folded into Mcyc once.
    """
    n, counts = functools.reduce(_peaks_product, _toric_peaks(tc))
    return from_qsym(_delta_from_peaks(n, counts))


# Canonical bit index -> the pieces of ``_toric_peaks``.
_TORIC_PEAKS = _Memo(_TORIC_MEMO, lambda pieces: sum(len(counts) for _, counts in pieces))


def _toric_peaks(tc: ToricClass) -> tuple[tuple[int, dict[int, int]], ...]:
    """For each 2-edge-connected component C of tc's canonical member, its
    degree and the summed peak distributions of the members of [C]. They
    depend only on that member's bit index, and are kept in
    ``_TORIC_PEAKS`` under it: Δ and Ω of a class, or Ω at a second m,
    build its component classes once, relabelled classes share the entry,
    and no ``Dag`` is kept. Callers must not mutate the dicts."""
    return _TORIC_PEAKS.fetch(tc.canonical.pred, _component_peaks, tc)


def _component_peaks(tc: ToricClass) -> tuple[tuple[int, dict[int, int]], ...]:
    """The pieces of ``_toric_peaks``, computed."""
    return tuple(
        (len(c.canonical.pred), _summed(_peak_distribution(e.pred) for e in c.members))
        for c in _bridgeless_classes(tc)
    )


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

    The product is taken in the monomial basis. The decomposition counts,
    by canonical cPk class, the toric extensions of the disjoint union of
    two witness total orders, π for U and w for T standardized above mU;
    it is empty when a degree is 0. Cut at the letter 1, the least of π,
    such an extension is 1 followed by a shuffle of π's other letters, in
    cyclic order after 1, with one of the nT rotations of w, and each of
    these once. So one ``_shuffle_peaks`` per rotation, started at 1,
    counts the cyclic peak sets, and no extension is listed. The
    ``closure`` verify suite checks that the product equals the sum of
    Kcyc over the decomposition, and the decomposition against the listed
    extensions.
    """
    U, T = frozenset(U), frozenset(T)
    lhs = kcyc(U, mU) * kcyc(T, nT)
    if mU == 0 or nT == 0:
        return lhs, Counter()
    pi = cyclic_peak_witness(U, mU)
    w = standardize(cyclic_peak_witness(T, nT), mU)
    cut = pi.index(1)
    rest = pi[cut + 1 :] + pi[:cut]
    n = mU + nT
    classes: Counter = Counter()
    for r in range(nT):
        for R, c in _shuffle_peaks(rest, w[r:] + w[:r], 1).items():
            classes[_canonical_mask(R, n)] += c
    return lhs, Counter({_set(K, n): c for K, c in classes.items()})
