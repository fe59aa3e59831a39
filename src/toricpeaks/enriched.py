"""Enriched partitions of DAGs and toric classes, weight enumerators, and
the (cyclic) peak functions they generate.

Values live in the nonzero integers ordered -1 < 1 < -2 < 2 < ...; an
assignment is a dict from vertex labels to such values. Weight enumerators
expand in the monomial bases of qsym: via the peak-set formulas for total
orders and cyclic peak sets, and via a DP over down-sets for a DAG. An
enriched toric partition of [D] is an enriched partition of exactly one
member of [D], and the class puts no condition on a bridge, an arc on no
cycle (``dag._without_bridges``). So Δ_[D] is the folded product, over the
2-edge-connected components C, of the sums of the down-set DPs of the
members of [C]. The enumerations here are the combinatorial side of every
identity the test suite checks.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

from .dag import (
    Dag,
    ToricClass,
    _bridgeless_classes,
    _index,
    _topological_order,
    _toric_extensions,
    _without_bridges,
    disjoint_union,
    toric_class,
    toric_extensions,
)
from .permstat import (
    Word,
    cpeak_set,
    cyclic_peak_witness,
    is_cyclic_peak_set,
    is_peak_set,
    peak_set,
)
from .qsym import CQSym, QSym, from_qsym
from .setcomp import (
    _class_table,
    _fill_orbit,
    _mask,
    canonical_subset_class,
)

Assignment = dict[int, int]


def signed_key(v: int) -> tuple[int, int]:
    """Sort key realizing -1 < 1 < -2 < 2 < ... on nonzero integers."""
    if v == 0:
        raise ValueError("0 is not an admissible value")
    return (abs(v), 0 if v < 0 else 1)


def is_enriched(f: Mapping[int, int], d: Dag) -> bool:
    """Whether f is an enriched partition of d.

    Along every arc i -> j the value must weakly increase, positive ties
    force i < j and negative ties force i > j.
    """
    missing = d.vertices - f.keys()
    if missing:
        raise ValueError(f"assignment misses vertices {sorted(missing)}")
    for i, j in d.arcs:
        a, b = f[i], f[j]
        if signed_key(a) > signed_key(b):
            return False
        if a == b:
            if a > 0 and not i < j:
                return False
            if a < 0 and not i > j:
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
    labels, pred = _index(d.vertices, d.arcs)
    n = len(labels)
    if n == 0:
        yield {}
        return
    # Arcs between bit k and the earlier bits e < k (smaller labels):
    # ``tails[k]`` are the tails of arcs e -> k, ``heads[k]`` the heads of
    # arcs k -> e.
    tails = [[e for e in range(k) if pred[k] >> e & 1] for k in range(n)]
    heads = [[e for e in range(k) if pred[e] >> k & 1] for k in range(n)]
    # With rank 2|x| - (x < 0), i.e. -1 < 1 < -2 < 2 < ..., an arc into a
    # larger label may tie only at a positive value and an arc into a
    # smaller label only at a negative one.
    values = [(x, 2 * abs(x) - (x < 0)) for x in [*range(-m, 0), *range(1, m + 1)]]
    top = 2 * m + 1
    # The values vertex k allows, keyed by its bounds: the largest rank
    # among its tails and the smallest among its heads.
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
                    (x, r) for x, r in values if lo <= r - (x < 0) and r + (x > 0) <= hi
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
    members walked are those of the class of the canonical member minus
    its bridges, which has the same enriched toric partitions.
    """
    bare = _without_bridges(tc.canonical)
    members = tc.members if bare is tc.canonical else toric_class(bare).members
    streams = [iter_enriched(member, m) for member in members]
    return heapq.merge(*streams, key=lambda f: sorted(f.items()))


def delta_from_peak_set(S: frozenset[int], n: int) -> QSym:
    """Weight enumerator of any permutation with peak set S.

    Sum of 2^{|E|+1} M_{n,E} over E in [n-1] with S inside E ∪ (E+1).
    """
    if n == 0:
        return QSym.unit(1)
    # Masks in degree n hold e at bit n - e, so E + 1 is mask >> 1; the
    # subsets of [n-1] are the even masks.
    peaks = _mask(S, n)
    terms: dict[int, int] = {}
    for E in range(0, 1 << n, 2):
        if not peaks & ~(E | E >> 1):
            terms[E] = 2 << E.bit_count()
    return QSym._make(n, terms)


def delta_perm(w: Sequence[int]) -> QSym:
    """Weight enumerator of the enriched partitions of a total order."""
    return delta_from_peak_set(peak_set(w), len(w))


def delta_dag(d: Dag) -> QSym:
    """Weight enumerator of d, by a DP over the down-sets of d.

    An enriched partition assigns the absolute levels 1, 2, ... in turn; a
    level k takes a block A- ∪ A+ (values -k and +k) and the vertices
    assigned so far always form a down-set. With the levels used packed to
    1..j, the sizes of the down-sets reached give the M-basis key E, so the
    coefficient of M_E counts the chains of down-sets with those sizes,
    each step weighted by its number of legal blocks (``_down_steps``).
    """
    n = len(d.vertices)
    if n == 0:
        return QSym.unit(1)
    _, pred = _index(d.vertices, d.arcs)
    order = _topological_order(pred)
    # The state of a down-set D maps each key E inside [|D| - 1], as a mask
    # of degree n, to its count.
    layers: list[dict[int, dict[int, int]]] = [{} for _ in range(n + 1)]
    layers[0][0] = {0: 1}
    for size in range(n):
        for D, state in layers[size].items():
            if size:  # |D| joins E
                state = {E | 1 << (n - size): c for E, c in state.items()}
            for D2, ways in _down_steps(D, pred, order):
                target = layers[D2.bit_count()].setdefault(D2, {})
                for E, c in state.items():
                    target[E] = target.get(E, 0) + c * ways
        layers[size] = {}
    return QSym._make(n, layers[n][(1 << n) - 1])


def _down_steps(D: int, pred: list[int], order: list[int]) -> Iterator[tuple[int, int]]:
    """Each down-set D' above the down-set D with its number of legal blocks.

    A block B = D' minus D splits into A- and A+. An arc inside B into a
    larger label forces its head into A+, and one into a smaller label
    forces its tail into A-; no arc then runs from A+ to A-, so every split
    that respects the forced vertices is legal, and there are none when a
    vertex is forced both ways. Bit k is the k-th smallest label, and bits
    join B in the topological ``order``, so a vertex is added only after
    all of its predecessors.
    """
    free = [k for k in order if not D >> k & 1]
    stack = [(0, 0, 0, 0)]  # (position in free, B, forced +, forced -)
    while stack:
        t, B, plus, minus = stack.pop()
        if t == len(free):
            if B:
                yield D | B, 1 << (B.bit_count() - (plus | minus).bit_count())
            continue
        stack.append((t + 1, B, plus, minus))
        k = free[t]
        if pred[k] & ~(D | B):
            continue
        inner, lower = pred[k] & B, (1 << k) - 1
        if inner & lower:
            plus |= 1 << k
        minus |= inner & ~lower
        if not plus & minus:
            stack.append((t + 1, B | 1 << k, plus, minus))


def k_peak(S: Iterable[int], n: int) -> QSym:
    """K_S, the peak function of a valid linear peak set S in [n].

    Stembridge's formula gives it from S alone, as the weight enumerator of
    any permutation with peak set S; the tests compare it with ``delta_perm``
    of a witness built by ``permstat._witness``.
    """
    S = frozenset(S)
    if not is_peak_set(S, n):
        raise ValueError(f"{sorted(S)} is not a peak set in [{n}]")
    return delta_from_peak_set(S, n)


def kcyc(S: Iterable[int], n: int) -> CQSym:
    """Kcyc_S, the cyclic peak function of a cyclic peak set S in [n].

    Sum of 2^{|E|} Mcyc_{n,E} over E in [n] with S inside E ∪ (E+1),
    shifts taken cyclically.
    """
    S = frozenset(S)
    if not is_cyclic_peak_set(S, n):
        raise ValueError(f"{sorted(S)} is not a cyclic peak set in [{n}]")
    if n == 0:
        return CQSym.unit(1)
    # In the bitmask encoding of setcomp, E + 1 is E rotated right by one.
    peaks, table, top = _mask(S, n), _class_table(n), n - 1
    terms: dict[int, int] = {}
    for E in range(1, 1 << n):  # Mcyc of the empty set is zero
        if not peaks & ~(E | E >> 1 | (E & 1) << top):
            key = table[E] or _fill_orbit(table, E, n)
            terms[key] = terms.get(key, 0) + (1 << E.bit_count())
    return CQSym._make(n, terms)


def delta_toric(tc: ToricClass) -> CQSym:
    """Cyclic weight enumerator of a toric class.

    The members' enriched sets are disjoint, so in QSym the class sums its
    members' ``delta_dag``. The class puts no condition on a bridge (see
    ``dag._without_bridges``), and disjoint unions multiply, so that sum is
    the product, over the 2-edge-connected components C of the canonical
    member, of the member sums of [C]; the product is folded once. With one
    component, the class's own members are summed.
    """
    sums = (
        sum(map(delta_dag, c.members), QSym.zero(len(c.canonical.vertices)))
        for c in _bridgeless_classes(tc)
    )
    return from_qsym(math.prod(sums, start=QSym.unit()))


def delta_toric_by_rotations(tc: ToricClass) -> CQSym:
    """Independent route: fold the linear enumerators of every rotation.

    Sums delta_perm over all n rotations of every toric extension, one
    ``delta_from_peak_set`` call per distinct peak set, and folds the
    result into the cyclic monomial basis.
    """
    n = len(tc.canonical.vertices)
    if n == 0:
        return CQSym.unit(1)
    counts = Counter(
        peak_set(w[i:] + w[:i]) for w in _toric_extensions(tc.members) for i in range(n)
    )
    deltas = (delta_from_peak_set(S, n).scale(c) for S, c in counts.items())
    return from_qsym(sum(deltas, QSym.zero(n)))


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
