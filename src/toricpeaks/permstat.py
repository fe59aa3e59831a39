"""Linear and cyclic permutations on finite label sets, and their statistics.

A permutation is a tuple of distinct positive integers (one-line notation).
Positions are 1-based throughout: statistics live in subsets of [n], [n-1]
or [2, n-1] depending on the statistic. A cyclic permutation is the set of
rotations of a word; we represent the class by its lexicographically least
rotation.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .setcomp import _class_list, _set

Word = tuple[int, ...]


def check_word(w: Sequence[int]) -> Word:
    """Validate and normalize a word: distinct, strictly positive labels."""
    word = tuple(w)
    if len(set(word)) != len(word):
        raise ValueError(f"labels must be distinct: {word}")
    if word and min(word) <= 0:
        raise ValueError(f"labels must be positive: {word}")
    return word


def des_set(w: Sequence[int]) -> frozenset[int]:
    """Positions i in [n-1] with w_i > w_{i+1}."""
    return frozenset(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def peak_set(w: Sequence[int]) -> frozenset[int]:
    """Positions i in [2, n-1] with w_{i-1} < w_i > w_{i+1}."""
    return frozenset(
        i + 1
        for i in range(1, len(w) - 1)
        if w[i - 1] < w[i] > w[i + 1]
    )


def cdes_set(w: Sequence[int]) -> frozenset[int]:
    """Positions i in [n] with w_i > w_{i+1}, indices modulo n."""
    n = len(w)
    return frozenset(i + 1 for i in range(n) if w[i] > w[(i + 1) % n])


def cpeak_set(w: Sequence[int]) -> frozenset[int]:
    """Positions i in [n] with w_{i-1} < w_i > w_{i+1}, indices modulo n."""
    n = len(w)
    return frozenset(
        i + 1
        for i in range(n)
        if w[i - 1] < w[i] > w[(i + 1) % n]
    )


def rotations(w: Sequence[int]) -> list[Word]:
    """All n rotations of w, starting from w itself."""
    word = check_word(w)
    if not word:
        raise ValueError("empty permutation has no rotations")
    return [word[i:] + word[:i] for i in range(len(word))]


def canonical_rotation(w: Sequence[int]) -> Word:
    """Lexicographically least rotation; canonical key for the cyclic class."""
    return min(rotations(w))


def cyclic_stat_multiset(w: Sequence[int], stat: str) -> Counter:
    """Multiset of stat values over all rotations of w.

    ``stat`` is ``"cdes"`` or ``"cpeak"``. Keys are frozensets of positions.
    """
    fn = {"cdes": cdes_set, "cpeak": cpeak_set}[stat]
    return Counter(fn(v) for v in rotations(w))


def shuffle_set(p: Sequence[int], s: Sequence[int]) -> set[Word]:
    """All interleavings of p and s.  Label sets must be disjoint.

    The ``shuffle`` verify suite checks that there are C(|p|+|s|, |p|).
    """
    p, s = check_word(p), check_word(s)
    if set(p) & set(s):
        raise ValueError(f"label sets overlap: {sorted(set(p) & set(s))}")

    def rec(a: Word, b: Word) -> Iterable[Word]:
        if not a:
            yield b
            return
        if not b:
            yield a
            return
        for tail in rec(a[1:], b):
            yield (a[0],) + tail
        for tail in rec(a, b[1:]):
            yield (b[0],) + tail

    return set(rec(p, s))


def is_peak_set(S: frozenset[int] | set[int], n: int) -> bool:
    """Whether some w in S_n has Pk w = S.

    Fast path: S inside [2, n-1] with no two consecutive elements. The
    predicate is validated against exhaustive search in the test suite.
    """
    S = frozenset(S)
    if not S:
        return n >= 0
    if not S <= frozenset(range(2, n)):
        return False
    return all(i + 1 not in S for i in S)


def is_cyclic_peak_set(S: frozenset[int] | set[int], n: int) -> bool:
    """Whether some w in S_n has cPk w = S.

    Fast path: for n >= 2, S is nonempty, inside [n], with no two
    cyclically adjacent elements. For n = 0, 1 only the empty set occurs,
    and for n < 0 none. Validated against exhaustive search in the test
    suite.
    """
    S = frozenset(S)
    if n <= 1:
        return not S and n >= 0
    if not S or not S <= frozenset(range(1, n + 1)):
        return False
    return all((i % n) + 1 not in S for i in S)


def cyclic_peak_sets(n: int) -> list[frozenset[int]]:
    """Canonical (lex-least shift) cyclic peak sets in [n]: the classes K of
    ``setcomp._class_list`` with no two cyclically adjacent elements, whose
    doubled cover has 4|K| elements. Sorted first by cardinality, then
    lexicographically.
    """
    if n < 0:
        raise ValueError(f"degree {n} is not a nonnegative integer")
    if n <= 1:
        return [frozenset()]
    peak_sets = (
        _set(K, n) for K, size, cover, _ in _class_list(n) if cover.bit_count() == 4 * size
    )
    return sorted(peak_sets, key=lambda S: (len(S), sorted(S)))


def cyclic_peak_witness(S: frozenset[int] | set[int], n: int) -> Word:
    """A w in S_n with cPk w = S, built by ``_witness``."""
    S = frozenset(S)
    if not is_cyclic_peak_set(S, n):
        raise ValueError(f"{sorted(S)} is not a cyclic peak set in [{n}]")
    return _witness(S, n, max(S, default=0))


def _witness(S: frozenset[int], n: int, start: int) -> Word:
    """The word whose positions in S hold the |S| largest values and whose
    other positions hold 1, ..., n - |S| in position order, beginning just
    after position ``start`` (mod n). With no two elements of S (cyclically)
    adjacent, a position in S lies above both neighbours, and any other
    position below its successor, except the last in that order: n in the
    linear case, with no successor, or start = max(S), in S.
    """
    peaks, valleys = iter(range(n - len(S) + 1, n + 1)), iter(range(1, n + 1))
    w = [0] * n
    for i in range(start, start + n):
        w[i % n] = next(peaks if i % n + 1 in S else valleys)
    return tuple(w)
