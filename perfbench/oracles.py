"""Independent oracles for the benchmark's input generation and output checks.

Plain Python with no toricpeaks imports, so a defect in the library cannot
hide itself by also breaking the check that should catch it.
"""

from __future__ import annotations

import hashlib
import itertools
from functools import cache


def digest(text: str) -> str:
    """Short SHA-256 digest of a canonical text form."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical_class(E, n: int) -> tuple[int, ...]:
    """Cyclic shift of E in [n] whose sorted element list is lexicographically least."""
    return min(tuple(sorted((e + i - 1) % n + 1 for e in E)) for i in range(n))


@cache
def cyclic_peak_keys(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical cyclic peak sets in [n], n >= 2: nonempty, no two cyclically adjacent."""
    keys = set()
    for k in range(1, n // 2 + 1):
        for S in itertools.combinations(range(1, n + 1), k):
            if all(s % n + 1 not in S for s in S):
                keys.add(canonical_class(S, n))
    return tuple(sorted(keys, key=lambda S: (len(S), S)))


def kcyc_weight_total(S, n: int) -> int:
    """Sum of 2^|E| over nonempty E in Z_n with every s in S in E or in E + 1.

    This is the sum of all coefficients of Kcyc_S in the cyclic monomial
    basis, computed by a transfer matrix around the cycle instead of by
    enumerating subsets.
    """
    S = set(S)
    total = 0
    for last in (0, 1):  # membership of n, which precedes 1 on the cycle
        weights = {last: 1}
        for i in range(1, n + 1):
            nxt = {0: 0, 1: 0}
            for prev, w in weights.items():
                for x in ((last,) if i == n else (0, 1)):
                    if i in S and not (x or prev):
                        continue
                    nxt[x] += w * (2 if x else 1)
            weights = nxt
        total += weights[last]
    return total - (0 if S else 1)


def linear_extensions(vertices, arcs) -> list[tuple[int, ...]]:
    """All topological orders of a DAG, in lexicographic order."""
    preds = {v: set() for v in vertices}
    for i, j in arcs:
        preds[j].add(i)
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], placed: set[int]) -> None:
        if len(prefix) == len(preds):
            out.append(tuple(prefix))
            return
        for v in sorted(preds):
            if v not in placed and preds[v] <= placed:
                placed.add(v)
                prefix.append(v)
                rec(prefix, placed)
                prefix.pop()
                placed.remove(v)

    rec([], set())
    return out


def count_linear_extensions(vertices, arcs) -> int:
    """Number of topological orders, by dynamic programming over down-sets."""
    verts = sorted(vertices)
    bit = {v: 1 << k for k, v in enumerate(verts)}
    pred_mask = {v: 0 for v in verts}
    for i, j in arcs:
        pred_mask[j] |= bit[i]
    ways = {0: 1}
    for _ in verts:
        nxt: dict[int, int] = {}
        for placed, w in ways.items():
            for v in verts:
                if not placed & bit[v] and pred_mask[v] & placed == pred_mask[v]:
                    key = placed | bit[v]
                    nxt[key] = nxt.get(key, 0) + w
        ways = nxt
    return sum(ways.values())


def is_topological(word, arcs) -> bool:
    pos = {v: k for k, v in enumerate(word)}
    return all(pos[i] < pos[j] for i, j in arcs)


def least_rotation(word) -> tuple[int, ...]:
    word = tuple(word)
    return min(word[i:] + word[:i] for i in range(len(word)))


def flip_arcs(arcs, v: int) -> frozenset[tuple[int, int]]:
    return frozenset((j, i) if v in (i, j) else (i, j) for i, j in arcs)
