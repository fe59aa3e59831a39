import itertools
import random
from collections import defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from toricpeaks import cyclic_peak_sets, kcyc, setcomp
from toricpeaks.setcomp import (
    _canonical_mask,
    _class_list,
    _orbit,
    canonical_subset_class,
    phi,
    psi,
    shift_set,
)


def phi_inv(alpha):
    """Oracle inverse of phi: the partial sums of a composition, with n."""
    return frozenset(itertools.accumulate(alpha[:-1])), sum(alpha)


def subset_class_members(E, n):
    """Oracle: all cyclic shifts of E in [n]."""
    return {shift_set(E, n, i) for i in range(n)}


def test_phi_examples():
    assert phi({1, 3}, 4) == (1, 2, 1)
    assert phi(set(), 4) == (4,)
    assert phi(set(), 0) == ()


def test_phi_roundtrip_all_subsets():
    for n in range(0, 8):
        for k in range(0, n):
            for S in itertools.combinations(range(1, n), k):
                fs = frozenset(S)
                assert phi_inv(phi(fs, n)) == (fs, n)


def test_phi_rejects_out_of_range():
    with pytest.raises(ValueError):
        phi({4}, 4)


def test_psi_examples():
    assert psi({1, 3}, 4) == (2, 2)
    assert psi({2}, 4) == (4,)
    assert psi({1, 2, 4}, 4) == (1, 2, 1)


def test_psi_undefined_on_empty():
    with pytest.raises(ValueError):
        psi(set(), 4)


def test_psi_rejects_out_of_range():
    for E in ({5}, {0, 2}):
        with pytest.raises(ValueError, match=r"not contained in \[4\]"):
            psi(E, 4)


def test_shift_set_wraps():
    assert shift_set({3, 4}, 4, 1) == frozenset({4, 1})
    assert shift_set({1}, 4, -1) == frozenset({4})


def test_shift_commutes_with_psi_up_to_rotation():
    E, n = frozenset({1, 3, 4}), 5
    base = psi(E, n)
    rotations = {base[i:] + base[:i] for i in range(len(base))}
    for i in range(n):
        assert psi(shift_set(E, n, i), n) in rotations


def test_subset_classes():
    members = subset_class_members({1, 3}, 4)
    assert members == {frozenset({1, 3}), frozenset({2, 4})}
    assert canonical_subset_class({2, 4}, 4) == frozenset({1, 3})
    assert canonical_subset_class({1, 3, 4}, 4) == frozenset({1, 2, 3})
    with pytest.raises(ValueError):
        canonical_subset_class(set(), 4)


def test_canonical_subset_class_rejects_elements_outside_n():
    for E in ({5}, {0}, {1, 4}):
        with pytest.raises(ValueError):
            canonical_subset_class(E, 3)


def test_canonical_subset_class_matches_lex_least_member():
    # Every mask up to n = 12, then a seeded sample at n = 20 and 24.
    rng = random.Random(0)
    cases = [(n, mask) for n in range(1, 13) for mask in range(1, 1 << n)]
    cases += [(n, rng.randrange(1, 1 << n)) for n in (20, 24) for _ in range(200)]
    for n, mask in cases:
        E = frozenset(e for e in range(1, n + 1) if mask >> (e - 1) & 1)
        assert canonical_subset_class(E, n) == min(
            subset_class_members(E, n), key=sorted
        )


@pytest.mark.parametrize("n", [*range(13), 17])
def test_class_list_holds_each_class_once(n):
    classes = _class_list(n)
    keys = [K for K, _, _, _ in classes]
    assert all(_canonical_mask(K, n) == K for K in keys)
    assert len(set(keys)) == len(keys)
    assert sum(period for _, _, _, period in classes) == 2**n - 1
    if n <= 12:
        assert all(len(set(_orbit(K, n))) == period for K, _, _, period in classes)


def test_class_list_and_kcyc_add_no_canonical_map_entry(monkeypatch):
    # Kcyc and the cyclic peak sets read the class list alone; only single
    # keys fill the per-degree map, an orbit at a time, never 2^n masks.
    monkeypatch.setattr(setcomp, "_CANONICAL", defaultdict(dict))
    n = 17
    _class_list.__wrapped__(n)
    kcyc({1}, n)
    cyclic_peak_sets(n)
    assert n not in setcomp._CANONICAL


@given(
    st.integers(1, 20).flatmap(
        lambda n: st.tuples(st.just(n), st.frozensets(st.integers(1, n), min_size=1))
    )
)
def test_canonical_subset_class_is_idempotent(case):
    n, E = case
    key = canonical_subset_class(E, n)
    assert canonical_subset_class(key, n) == key
    assert key in subset_class_members(E, n)
