import itertools
from collections import Counter

import pytest

from toricpeaks.permstat import (
    _witness,
    canonical_rotation,
    cdes_set,
    check_word,
    cpeak_set,
    cyclic_peak_sets,
    cyclic_peak_witness,
    cyclic_stat_multiset,
    des_set,
    is_cyclic_peak_set,
    is_peak_set,
    peak_set,
    rotations,
    shuffle_set,
)
from toricpeaks.setcomp import shift_set


def shifted_stat_multiset(w, stat):
    """The multiset of ``cyclic_stat_multiset`` computed as
    {{ i + stat(w) : i in [n] }}."""
    fn = {"cdes": cdes_set, "cpeak": cpeak_set}[stat]
    n = len(w)
    base = fn(w)
    return Counter(shift_set(base, n, i) for i in range(1, n + 1))


def peak_sets(n):
    """All linear peak sets in [n], sorted by (cardinality, elements)."""
    out = [
        frozenset(S)
        for k in range(0, n // 2 + 1)
        for S in itertools.combinations(range(2, n), k)
        if is_peak_set(frozenset(S), n)
    ]
    if n >= 0 and frozenset() not in out:
        out.insert(0, frozenset())
    return sorted(set(out), key=lambda S: (len(S), sorted(S)))


def peak_witness(S, n):
    """A w in S_n with Pk w = S, built by ``_witness``."""
    S = frozenset(S)
    if not is_peak_set(S, n):
        raise ValueError(f"{sorted(S)} is not a peak set in [{n}]")
    return _witness(S, n, 0)


def test_check_word_rejects_repeats_and_nonpositive():
    with pytest.raises(ValueError):
        check_word((1, 1, 2))
    with pytest.raises(ValueError):
        check_word((0, 1))


def test_stats_of_3124():
    w = (3, 1, 2, 4)
    assert des_set(w) == frozenset({1})
    assert peak_set(w) == frozenset()
    assert cdes_set(w) == frozenset({1, 4})
    assert cpeak_set(w) == frozenset({4})


def test_stats_of_1423():
    w = (1, 4, 2, 3)
    assert des_set(w) == frozenset({2})
    assert peak_set(w) == frozenset({2})
    assert cdes_set(w) == frozenset({2, 4})
    assert cpeak_set(w) == frozenset({2, 4})


def test_singleton_word_has_empty_stats():
    assert des_set((1,)) == frozenset()
    assert peak_set((1,)) == frozenset()
    assert cdes_set((1,)) == frozenset()
    assert cpeak_set((1,)) == frozenset()


def test_rotations_and_canonical():
    assert rotations((2, 4, 3, 1)) == [
        (2, 4, 3, 1),
        (4, 3, 1, 2),
        (3, 1, 2, 4),
        (1, 2, 4, 3),
    ]
    assert canonical_rotation((2, 4, 3, 1)) == (1, 2, 4, 3)
    with pytest.raises(ValueError, match="no rotations"):
        rotations(())


def test_cyclic_multisets_agree_with_shift_formula():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            for stat in ("cdes", "cpeak"):
                assert cyclic_stat_multiset(w, stat) == shifted_stat_multiset(w, stat)


def test_cyclic_stats_constant_on_rotation_classes():
    w = (2, 4, 3, 1)
    for v in rotations(w):
        assert cyclic_stat_multiset(v, "cpeak") == cyclic_stat_multiset(w, "cpeak")


def test_peak_set_predicate_matches_exhaustive_search():
    for n in range(0, 7):
        attained = {peak_set(w) for w in itertools.permutations(range(1, n + 1))}
        for k in range(0, n + 1):
            for S in itertools.combinations(range(1, n + 1), k):
                fs = frozenset(S)
                assert is_peak_set(fs, n) == (fs in attained), (fs, n)


def test_cyclic_peak_set_predicate_matches_exhaustive_search():
    for n in range(0, 7):
        attained = {cpeak_set(w) for w in itertools.permutations(range(1, n + 1))}
        for k in range(0, n + 1):
            for S in itertools.combinations(range(1, n + 1), k):
                fs = frozenset(S)
                assert is_cyclic_peak_set(fs, n) == (fs in attained), (fs, n)


def test_peak_set_enumerations():
    assert peak_sets(3) == [frozenset(), frozenset({2})]
    assert cyclic_peak_sets(4) == [frozenset({1}), frozenset({1, 3})]
    assert cyclic_peak_sets(1) == [frozenset()]


def test_witnesses_attain_their_sets():
    # Every peak set and every cyclic peak set with n <= 12, not only the
    # canonical ones.
    for n in range(0, 13):
        for k in range(0, n // 2 + 1):
            for S in map(frozenset, itertools.combinations(range(1, n + 1), k)):
                if is_peak_set(S, n):
                    w = peak_witness(S, n)
                    assert sorted(w) == list(range(1, n + 1)) and peak_set(w) == S
                if is_cyclic_peak_set(S, n):
                    w = cyclic_peak_witness(S, n)
                    assert sorted(w) == list(range(1, n + 1)) and cpeak_set(w) == S


def test_witness_rejects_invalid_set():
    with pytest.raises(ValueError, match="not a peak set"):
        peak_witness(frozenset({2, 3}), 4)
    with pytest.raises(ValueError, match="not a cyclic peak set"):
        cyclic_peak_witness(frozenset({1, 4}), 4)


def test_shuffle_set_size_and_membership():
    out = shuffle_set((1, 2), (3, 4))
    assert len(out) == 6
    assert (3, 1, 4, 2) in out
    with pytest.raises(ValueError):
        shuffle_set((1, 2), (2, 3))
