"""Order polynomials, their rational generating functions, runs and markings.

Everything is exact: counts are plain integers, and series coefficients
are integer lists, built as a numerator of binomial rows followed by one
running sum for each factor 1/(1-t) of the denominator.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb, prod
from typing import Callable, Mapping, Sequence

from .dag import Dag, ToricClass, _components, _Frozen
from .enriched import _peak_distribution, _toric_peaks, enumerate_enriched, is_enriched
from .permstat import Word, check_word, cpeak_set, peak_set


def _nonempty(w: Sequence[int]) -> Word:
    """w as checked by ``check_word``, refused when it has no letter."""
    word = check_word(w)
    if not word:
        raise ValueError("need a nonempty word")
    return word


def multiset_coeff(a: int, k: int) -> int:
    """Number of k-element multisets on an a-element set."""
    return comb(a + k - 1, k) if k >= 0 else 0


def _peak_sum(n: int, p: int, m: int) -> int:
    """Sum over k < m - p of ((n+1 multichoose k)) * C(n - 2p - 1, m - 1 - p - k)."""
    # C(n - 2p - 1, m - 1 - p - k) is zero below k = m - n + p, so a large
    # m costs at most n - 2p terms, not m - p.
    return sum(
        multiset_coeff(n + 1, k) * comb(n - 2 * p - 1, m - 1 - p - k)
        for k in range(max(0, m - n + p), m - p)
    )


def omega(w: Sequence[int], m: int) -> int:
    """Count of enriched partitions of the total order w with values <= m.

    Closed form 2^{2pk+1} * sum over k of ((n+1 multichoose k)) *
    C(n - 2pk - 1, m - 1 - pk - k).
    """
    word = _nonempty(w)
    return _omega_by_peak_number(len(word), {len(peak_set(word)): 1}, m)


def _omega_from_peaks(n: int, counts: Mapping[int, int], m: int) -> int:
    """``_omega_by_peak_number`` of the n-letter total orders counted by
    peak mask in counts, graded first by number of peaks."""
    graded: Counter = Counter()
    for S, c in counts.items():
        graded[S.bit_count()] += c
    return _omega_by_peak_number(n, graded, m)


def _omega_by_peak_number(n: int, counts: Mapping[int, int], m: int) -> int:
    """Σ_k p_k·2^{2k+1}·``_peak_sum``(n, k, m) over p_k ≠ 0: by ``omega``'s
    closed form, the enriched partitions with values at most m of the
    n-letter total orders, p_k of them with k peaks. The empty word has one."""
    if n == 0:
        return sum(counts.values())
    return sum(c * _peak_sum(n, k, m) << 2 * k + 1 for k, c in counts.items() if c)


def _gf_by_peak_number(n: int, counts: Mapping[int, int], order: int) -> list[int]:
    """Coefficients of t^0 .. t^order of Σ_k p_k·2^{2k+1} t^{k+1}
    (1+t)^{n-2k-1} / (1-t)^{n+1} over p_k ≠ 0: the series whose t^m
    coefficient is ``_omega_by_peak_number``(n, counts, m). The numerator
    is a sum of binomial rows; each factor 1/(1-t) is one running sum."""
    series = [0] * (order + 1)
    for k, c in counts.items():
        if c:
            for j in range(min(n - 2 * k - 1, order - k - 1) + 1):
                series[k + 1 + j] += c * comb(n - 2 * k - 1, j) << 2 * k + 1
    for _ in range(n + 1):
        series = list(itertools.accumulate(series))
    return series


def omega_dag(d: Dag, m: int) -> int:
    """Number of enriched partitions of d with values at most m: the
    product, over the connected components C of d, of Ω summed over C's
    linear extensions by peak set (``enriched._peak_distribution``), whose
    DP walks only C's down-sets and is memoised by C's bit index. A table
    over m, another component of C's shape, or Δ of C, runs no new DP.
    """
    return prod(
        _omega_from_peaks(len(c.pred), _peak_distribution(c.pred), m) for c in _components(d)
    )


def _rotation_peaks(n: int, cpk: int) -> dict[int, int]:
    """Peak numbers of the n rotations of an n-letter word with cpk cyclic
    peaks: n - 2cpk of them have cpk peaks and 2cpk have cpk - 1."""
    if not 0 <= 2 * cpk <= n:
        raise ValueError(f"no {n}-letter word has {cpk} cyclic peaks")
    return {cpk: n - 2 * cpk, cpk - 1: 2 * cpk}


def omega_cyc_formula(n: int, cpk: int, m: int) -> int:
    """Closed formula for the toric order polynomial of a cyclic class:
    (n - 2cpk)·2^{2cpk+1}·P(cpk) + cpk·4^cpk·P(cpk - 1), with P(p) =
    ``_peak_sum``(n, p, m). It is Ω summed over the n rotations of a word,
    split by peak number as ``_rotation_peaks`` gives. A pair outside
    0 <= 2cpk <= n is refused.
    """
    return _omega_by_peak_number(n, _rotation_peaks(n, cpk), m)


def omega_cyc(w: Sequence[int], m: int) -> int:
    """Toric order polynomial of the cyclic class of w, by the closed formula.

    The ``order-poly`` verify suite checks it against the sum of linear
    order polynomials over all rotations of w.
    """
    word = _nonempty(w)
    return omega_cyc_formula(len(word), len(cpeak_set(word)), m)


def omega_toric(tc: ToricClass, m: int) -> int:
    """Toric order polynomial of a toric class: the number of its enriched
    toric partitions with values at most m. As for ``enriched.delta_toric``,
    it is the product over the 2-edge-connected components C of the
    canonical member of Ω summed over the members of [C], here by the
    per-class peak distributions of ``enriched._toric_peaks``.
    """
    return prod(_omega_from_peaks(n, counts, m) for n, counts in _toric_peaks(tc))


def gf_omega(w: Sequence[int], order: int) -> list[int]:
    """Series coefficients of the rational generating function of omega.

    2^{2pk+1} t^{pk+1} (1+t)^{n-2pk-1} / (1-t)^{n+1}.
    """
    word = _nonempty(w)
    return _gf_by_peak_number(len(word), {len(peak_set(word)): 1}, order)


def gf_omega_cyc(w: Sequence[int], order: int) -> list[int]:
    """Series coefficients of the cyclic generating function.

    (4t/(1+t)^2)^cpk ((1+t)/(1-t))^(n-1) (cpk + 2nt/(1-t)^2), which is
    ``gf_omega`` summed over the n rotations of w, split by peak number as
    ``_rotation_peaks`` gives.
    """
    word = _nonempty(w)
    n = len(word)
    return _gf_by_peak_number(n, _rotation_peaks(n, len(cpeak_set(word))), order)


class RunDecomposition(_Frozen):
    """Alternating factorization of the sentinel extension of a word.

    Index 0 and n+1 carry the sentinel, a value above every label. Odd
    runs decrease, even runs increase; markable positions are those whose
    successor index sits in the same run.
    """

    __slots__ = __match_args__ = ("runs", "index_sets", "markable")
    runs: tuple[tuple[int, ...], ...]
    index_sets: tuple[frozenset[int], ...]
    markable: frozenset[int]

    def __init__(
        self,
        runs: tuple[tuple[int, ...], ...],
        index_sets: tuple[frozenset[int], ...],
        markable: frozenset[int],
    ):
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "index_sets", index_sets)
        object.__setattr__(self, "markable", markable)

    def _key(self) -> tuple:
        return self.runs, self.index_sets, self.markable


def runs(w: Sequence[int]) -> RunDecomposition:
    """Greedy alternating decreasing/increasing factorization."""
    word = _nonempty(w)
    n = len(word)
    sentinel = max(word) + 1
    seq = (sentinel,) + word + (sentinel,)
    # A run ends at the first break in its trend; odd runs decrease. Each
    # position whose successor does not break its run is markable.
    bounds, markable = [], []
    start, falling = 0, True
    for j in range(1, n + 2):
        if (seq[j] < seq[j - 1]) != falling:
            bounds.append((start, j))
            start, falling = j, not falling
        elif j > 1:
            markable.append(j - 1)
    bounds.append((start, n + 2))
    return RunDecomposition(
        tuple([seq[a:b] for a, b in bounds]),
        tuple([frozenset(range(a, b)) for a, b in bounds]),
        frozenset(markable),
    )


class Marking(_Frozen):
    """Bars in gaps 0..n (with multiplicity) and marked columns of w."""

    __slots__ = __match_args__ = ("w", "bars", "marked")
    w: Word
    bars: tuple[int, ...]
    marked: frozenset[int]

    def __init__(self, w: Word, bars: tuple[int, ...], marked: frozenset[int]):
        n = len(w)
        if any(not 0 <= g <= n for g in bars):
            raise ValueError("bar outside the gap range")
        if any(not 1 <= k <= n for k in marked):
            raise ValueError("mark outside the column range")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "bars", bars)
        object.__setattr__(self, "marked", marked)

    def _key(self) -> tuple:
        return self.w, self.bars, self.marked


def enumerate_markings(w: Sequence[int], m: int) -> list[Marking]:
    """All (w, m)-markings: b bars plus d marks with b + d = m - 1 - pk."""
    word = _nonempty(w)
    n = len(word)
    pk = len(peak_set(word))
    budget = m - 1 - pk
    if budget < 0:
        return []
    markable = sorted(runs(word).markable)
    out = []
    for d in range(0, min(budget, len(markable)) + 1):
        b = budget - d
        for marked in itertools.combinations(markable, d):
            for bars in itertools.combinations_with_replacement(range(n + 1), b):
                out.append(Marking(word, bars, frozenset(marked)))
    out.sort(key=lambda mk: (mk.bars, sorted(mk.marked)))
    return out


def partition_to_marking(f: Mapping[int, int], w: Sequence[int], m: int) -> Marking:
    """The marking associated to an enriched partition of w with |f| <= m.

    One pass over the columns. Column k, in run i, is marked when its sign
    disagrees with the trend of its run. The bars before it number
    |f(w_k)| - ceil(i/2) - delta_k less the marks before k, where delta_k
    flags a negative value in an increasing run.
    """
    word = check_word(w)
    if not is_enriched(f, Dag.from_word(word)):
        raise ValueError("f is not an enriched partition of w")
    if any(abs(v) > m for v in f.values()):
        raise ValueError(f"absolute values exceed {m}")
    return _marker(word, m)(f)


def marking_fibers(w: Sequence[int], m: int) -> Counter:
    """Sizes of the fibers of partition_to_marking over all markings.

    The runs of w are read once, not once per partition. The partitions
    come from ``enumerate_enriched`` on w's chain DAG, so none is checked
    again as ``partition_to_marking`` checks outside input.
    """
    word = check_word(w)
    return Counter(map(_marker(word, m), enumerate_enriched(Dag.from_word(word), m)))


def _marker(word: Word, m: int) -> Callable[[Mapping[int, int]], Marking]:
    """``partition_to_marking`` on ``word`` for valid partitions, with
    what depends on the word and m alone found once: each column's label,
    the ceil(i/2) and trend of its run i, whether it is markable, and the
    bars' and marks' total m - 1 - pk."""
    n = len(word)
    decomp = runs(word)
    run_of = [i for i, run in enumerate(decomp.runs, start=1) for _ in run]
    columns = [
        (k, word[k - 1], (run_of[k] + 1) // 2, run_of[k] % 2 == 0, k in decomp.markable)
        for k in range(1, n + 1)
    ]
    total = m - 1 - len(peak_set(word))

    def mark(f: Mapping[int, int]) -> Marking:
        bars: list[int] = []
        marked: list[int] = []
        for k, label, half, increasing, markable in columns:
            val = f[label]
            before = abs(val) - half - (increasing and val < 0) - len(marked)
            bars += [k - 1] * (before - len(bars))
            if markable and increasing == (val < 0):
                marked.append(k)
        bars += [n] * (total - len(marked) - len(bars))
        return Marking(word, tuple(bars), frozenset(marked))

    return mark
