"""Order polynomials, their rational generating functions, runs and markings.

Everything is exact: polynomials are integer coefficient lists, series
coefficients come from long division of integer polynomials, and counts
are plain integers.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter
from math import comb, prod
from typing import Mapping, Sequence

from .dag import Dag, ToricClass, _bridgeless_classes, _components, _index, _topological_order
from .enriched import _down_steps, enumerate_enriched, is_enriched
from .permstat import Word, check_word, cpeak_set, peak_set

Poly = list[int]


def poly_mul(a: Poly, b: Poly) -> Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_pow(a: Poly, k: int) -> Poly:
    out = [1]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


@dataclasses.dataclass
class RationalSeries:
    """num/den with den(0) = ±1; expansion by exact long division."""

    num: Poly
    den: Poly

    def __post_init__(self):
        if not self.den or self.den[0] not in (1, -1):
            raise ValueError("denominator must have constant term ±1")

    def coefficients(self, order: int) -> list[int]:
        """Series coefficients c_0 .. c_order."""
        out = []
        for j in range(order + 1):
            acc = self.num[j] if j < len(self.num) else 0
            for i in range(1, min(j, len(self.den) - 1) + 1):
                acc -= self.den[i] * out[j - i]
            out.append(acc * self.den[0])
        return out


def multiset_coeff(a: int, k: int) -> int:
    """Number of k-element multisets on an a-element set."""
    return comb(a + k - 1, k) if k >= 0 else 0


def _peak_sum(n: int, p: int, m: int) -> int:
    """Sum over k < m - p of ((n+1 multichoose k)) * C(n - 2p - 1, m - 1 - p - k).

    The binomial is zero when n - 2p - 1 < 0. The cyclic closed formula
    reaches that case exactly when its prefactor n - 2 cpk vanishes.
    """
    if n - 2 * p - 1 < 0:
        return 0
    return sum(
        multiset_coeff(n + 1, k) * comb(n - 2 * p - 1, m - 1 - p - k)
        for k in range(m - p)
    )


def omega(w: Sequence[int], m: int) -> int:
    """Count of enriched partitions of the total order w with values <= m.

    Closed form 2^{2pk+1} * sum over k of ((n+1 multichoose k)) *
    C(n - 2pk - 1, m - 1 - pk - k).
    """
    if not w:
        raise ValueError("need a nonempty word")
    pk = len(peak_set(w))
    return 2 ** (2 * pk + 1) * _peak_sum(len(w), pk, m)


def omega_dag(d: Dag, m: int) -> int:
    """Number of enriched partitions of d with values at most m.

    An enriched partition of a disjoint union is one of each part, so this
    is the product, over the connected components C of d, of C's chain
    counts a_j weighted by C(m, j) (``_chain_counts``). A component's DP
    walks only its own down-sets: on an antichain the product costs n
    one-vertex DPs, not one over all 2^n subsets.
    """
    return prod(_count(_chain_counts(c), m) for c in _components(d))


def _count(a: Sequence[int], m: int) -> int:
    """Σ_j a_j·C(m, j): the partitions whose levels, packed to 1..j, are
    placed among the m levels 1..m."""
    return sum(c * comb(m, j) for j, c in enumerate(a) if c)


def _chain_counts(d: Dag) -> list[int]:
    """The list a_0, ..., a_n where a_j counts the enriched partitions of d
    with the absolute levels 1..j, each used.

    ``delta_dag``'s DP over down-sets, with the M-basis keys forgotten:
    the state of a down-set is one vector, entry j the weighted chains of
    j steps from the empty set to it, each step weighted by its number of
    legal blocks (``enriched._down_steps``). The key E of a chain has j - 1
    elements and M_E at m ones is C(m, j), so Ω_d(m) = Σ_j a_j·C(m, j);
    and a_n = 2^n·e(d), e(d) the number of linear extensions, as n steps
    add one vertex each, with two signs.
    """
    n = len(d.vertices)
    _, pred = _index(d.vertices, d.arcs)
    order = _topological_order(pred)
    layers: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
    layers[0][0] = [1] + [0] * n
    for size in range(n):
        for D, chains in layers[size].items():
            # A chain to a down-set of this size has at most ``size`` steps.
            reach = [(j, c) for j, c in enumerate(chains[: size + 1]) if c]
            for D2, ways in _down_steps(D, pred, order):
                target = layers[D2.bit_count()].setdefault(D2, [0] * (n + 1))
                for j, c in reach:
                    target[j + 1] += c * ways
        layers[size] = {}
    return layers[n][(1 << n) - 1]


def omega_cyc_formula(n: int, cpk: int, m: int) -> int:
    """Closed formula for the toric order polynomial of a cyclic class.

    Its second sum is the first taken at cpk - 1.
    """
    return (
        (n - 2 * cpk) * 2 ** (2 * cpk + 1) * _peak_sum(n, cpk, m)
        + cpk * 4 ** cpk * _peak_sum(n, cpk - 1, m)
    )


def omega_cyc(w: Sequence[int], m: int) -> int:
    """Toric order polynomial of the cyclic class of w, by the closed formula.

    The ``order-poly`` verify suite checks it against the sum of linear
    order polynomials over all rotations of w.
    """
    word = check_word(w)
    return omega_cyc_formula(len(word), len(cpeak_set(word)), m)


def omega_toric(tc: ToricClass, m: int) -> int:
    """Toric order polynomial of a toric class: the number of its enriched
    toric partitions with values at most m.

    The members' enriched sets are disjoint, the class puts no condition on
    a bridge, and disjoint unions multiply (see ``enriched.delta_toric``).
    So this is the product, over the 2-edge-connected components C of the
    canonical member, of the counts of the members of [C], in plain
    integers. Those members are connected, so each count is one
    ``_chain_counts`` DP with no split into components.
    """
    return prod(
        sum(_count(_chain_counts(e), m) for e in c.members) for c in _bridgeless_classes(tc)
    )


def gf_omega(w: Sequence[int], order: int) -> list[int]:
    """Series coefficients of the rational generating function of omega.

    2^{2pk+1} t^{pk+1} (1+t)^{n-2pk-1} / (1-t)^{n+1}.
    """
    n = len(w)
    pk = len(peak_set(w))
    num = poly_mul(
        [0] * (pk + 1) + [2 ** (2 * pk + 1)],
        poly_pow([1, 1], n - 2 * pk - 1),
    )
    den = poly_pow([1, -1], n + 1)
    return RationalSeries(num, den).coefficients(order)


def gf_omega_cyc(w: Sequence[int], order: int) -> list[int]:
    """Series coefficients of the cyclic generating function.

    (4t/(1+t)^2)^cpk ((1+t)/(1-t))^(n-1) (cpk + 2nt/(1-t)^2), cleared to
    an integer numerator and denominator.
    """
    n = len(w)
    cpk = len(cpeak_set(w))
    inner = [cpk, 2 * n - 2 * cpk, cpk]  # cpk*(1-t)^2 + 2nt
    num = poly_mul([0] * cpk + [4 ** cpk], inner)
    extra = n - 1 - 2 * cpk
    den = poly_pow([1, -1], n + 1)
    if extra >= 0:
        num = poly_mul(num, poly_pow([1, 1], extra))
    else:
        den = poly_mul(den, poly_pow([1, 1], -extra))
    return RationalSeries(num, den).coefficients(order)


@dataclasses.dataclass(frozen=True)
class RunDecomposition:
    """Alternating factorization of the sentinel extension of a word.

    Index 0 and n+1 carry the sentinel, a value above every label. Odd
    runs decrease, even runs increase; markable positions are those whose
    successor index sits in the same run.
    """

    runs: tuple[tuple[int, ...], ...]
    index_sets: tuple[frozenset[int], ...]
    markable: frozenset[int]


def runs(w: Sequence[int]) -> RunDecomposition:
    """Greedy alternating decreasing/increasing factorization."""
    word = check_word(w)
    if not word:
        raise ValueError("need a nonempty word")
    sentinel = max(word) + 1
    seq = (sentinel,) + word + (sentinel,)
    # A run ends at the first break in its trend; odd runs decrease.
    starts = [0]
    for j in range(1, len(seq)):
        if (seq[j] < seq[j - 1]) != (len(starts) % 2 == 1):
            starts.append(j)
    bounds = list(zip(starts, starts[1:] + [len(seq)]))
    return RunDecomposition(
        tuple([seq[a:b] for a, b in bounds]),
        tuple([frozenset(range(a, b)) for a, b in bounds]),
        frozenset(range(1, len(word) + 1)).difference(b - 1 for _, b in bounds),
    )


@dataclasses.dataclass(frozen=True)
class Marking:
    """Bars in gaps 0..n (with multiplicity) and marked columns of w."""

    w: Word
    bars: tuple[int, ...]
    marked: frozenset[int]

    def __post_init__(self):
        n = len(self.w)
        if any(not 0 <= g <= n for g in self.bars):
            raise ValueError("bar outside the gap range")


def enumerate_markings(w: Sequence[int], m: int) -> list[Marking]:
    """All (w, m)-markings: b bars plus d marks with b + d = m - 1 - pk."""
    word = check_word(w)
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
    n = len(word)
    if not is_enriched(f, Dag.from_word(word)):
        raise ValueError("f is not an enriched partition of w")
    if any(abs(v) > m for v in f.values()):
        raise ValueError(f"absolute values exceed {m}")
    decomp = runs(word)
    run_of = [i for i, run in enumerate(decomp.runs, start=1) for _ in run]
    bars: list[int] = []
    marked: list[int] = []
    for k in range(1, n + 1):
        i, val = run_of[k], f[word[k - 1]]
        increasing = i % 2 == 0
        before = abs(val) - (i + 1) // 2 - (increasing and val < 0) - len(marked)
        bars += [k - 1] * (before - len(bars))
        if k in decomp.markable and increasing == (val < 0):
            marked.append(k)
    bars += [n] * (m - 1 - len(peak_set(word)) - len(marked) - len(bars))
    return Marking(word, tuple(bars), frozenset(marked))


def marking_fibers(w: Sequence[int], m: int) -> Counter:
    """Sizes of the fibers of partition_to_marking over all markings."""
    out: Counter = Counter()
    for f in enumerate_enriched(Dag.from_word(w), m):
        out[partition_to_marking(f, w, m)] += 1
    return out

