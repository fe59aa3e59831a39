import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpeaks.orderpoly import (
    Marking,
    RationalSeries,
    _chain_counts,
    enumerate_markings,
    gf_omega,
    gf_omega_cyc,
    marking_fibers,
    multiset_coeff,
    omega,
    omega_cyc,
    omega_dag,
    omega_toric,
    partition_to_marking,
    poly_mul,
    runs,
)
from toricpeaks.dag import Dag, linear_extensions, toric_class
from toricpeaks.enriched import enumerate_enriched, enumerate_enriched_toric
from toricpeaks.permstat import peak_set, rotations
from toricpeaks.verify import _interpolate, random_dags, small_dags

from test_dag import labeled_dags


def test_poly_helpers():
    assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]
    assert multiset_coeff(3, 2) == 6
    assert multiset_coeff(3, 0) == 1


def test_rational_series_expansion():
    # 1/(1-t) and t/(1-t)^2
    assert RationalSeries([1], [1, -1]).coefficients(4) == [1, 1, 1, 1, 1]
    assert RationalSeries([0, 1], [1, -2, 1]).coefficients(5) == [0, 1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        RationalSeries([1], [2, 1])


def test_omega_closed_forms():
    for m in range(0, 6):
        assert omega((1,), m) == 2 * m
        assert omega((1, 2), m) == 2 * m * m
    assert omega((1, 3, 2), 0) == 0


@pytest.mark.parametrize("m", [0, 2])
def test_omega_rejects_the_empty_word(m):
    # The closed form starts at n = 1; the empty word has one partition, not 0.
    with pytest.raises(ValueError, match="nonempty word"):
        omega((), m)
    with pytest.raises(ValueError, match="nonempty word"):
        runs(())


def test_omega_matches_enumeration():
    for w in [(1,), (2, 1), (1, 3, 2), (2, 1, 4, 3)]:
        for m in (1, 2, 3):
            assert omega(w, m) == len(enumerate_enriched(Dag.from_word(w), m))


def test_omega_dag_and_toric():
    d = Dag.from_word((1, 2))
    assert omega_dag(d, 2) == 8
    assert _chain_counts(Dag.make([], [])) == [1]
    assert _chain_counts(Dag.make([7], [])) == [0, 2]
    # One level: {1: -1, 2: 1} and {1: 1, 2: 1}. Two: {1: ±1, 2: ±2}.
    assert _chain_counts(d) == [0, 2, 4]
    tc = toric_class(d)
    assert omega_toric(tc, 1) == omega_cyc((1, 2), 1) == 4


def assert_omega_counts(dags, ms):
    """``omega_dag`` and ``omega_toric``, products over components, are the
    lengths of the listings, which multiply nothing. So is the chain-count
    DP of the whole DAG, unsplit, whose top entry is 2^n times the number
    of linear extensions."""
    for d in dags:
        n, a = len(d.vertices), _chain_counts(d)
        assert len(a) == n + 1
        assert a[n] == 2**n * len(linear_extensions(d)), d
        for m in ms:
            count = len(enumerate_enriched(d, m))
            assert omega_dag(d, m) == count, (d, m)
            assert sum(c * comb(m, j) for j, c in enumerate(a)) == count, (d, m)
    for tc in {toric_class(d) for d in dags}:
        for m in ms:
            assert omega_toric(tc, m) == len(enumerate_enriched_toric(tc, m)), (tc.canonical, m)


def test_omega_counts_on_small_dags():
    assert_omega_counts(small_dags(4), range(4))


def test_omega_counts_on_random_dags():
    assert_omega_counts(random_dags(60, 7, seed=15), range(3))


@settings(deadline=None, max_examples=50)
@given(labeled_dags(6), st.integers(0, 2))
def test_omega_multiplies_over_components(d, m):
    assert_omega_counts([d], [m])
    tc = toric_class(d)
    assert omega_toric(tc, m) == sum(omega_dag(e, m) for e in tc.members)


def test_omega_cyc_closed_form_vs_rotations():
    for n in range(1, 6):
        seen = set()
        for w in itertools.permutations(range(1, n + 1)):
            key = min(w[i:] + w[:i] for i in range(n))
            if key in seen:
                continue
            seen.add(key)
            for m in (0, 1, 2, 3):
                assert omega_cyc(w, m) == sum(omega(v, m) for v in rotations(w))


def test_series_match_values():
    assert gf_omega((1,), 5) == [0, 2, 4, 6, 8, 10]
    for w in itertools.permutations(range(1, 5)):
        coeffs = gf_omega(w, 6)
        ccoeffs = gf_omega_cyc(w, 6)
        for m in range(7):
            assert coeffs[m] == omega(w, m)
            assert ccoeffs[m] == omega_cyc(w, m)


def test_runs_of_143256():
    decomp = runs((1, 4, 3, 2, 5, 6))
    assert [sorted(I) for I in decomp.index_sets] == [[0, 1], [2], [3, 4], [5, 6, 7]]
    assert decomp.markable == frozenset({3, 5, 6})
    assert len(decomp.runs) == 2 * len(peak_set((1, 4, 3, 2, 5, 6))) + 2


def test_runs_of_decreasing_word():
    decomp = runs((3, 2, 1))
    assert len(decomp.runs) == 2
    assert decomp.markable == frozenset({1, 2})


def test_run_invariants():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            pk = len(peak_set(w))
            decomp = runs(w)
            assert len(decomp.runs) == 2 * pk + 2
            assert len(decomp.markable) == n - 2 * pk - 1


def test_enumerate_markings_counts():
    w = (1, 3, 2, 4)
    assert enumerate_markings(w, 1) == []  # m = pk gives budget -1
    for m in (2, 3, 4):
        pk = len(peak_set(w))
        got = enumerate_markings(w, m)
        assert len(got) * 2 ** (2 * pk + 1) == omega(w, m)


def test_displayed_markings_present():
    w = (1, 4, 3, 2, 5, 6)
    marks = set(enumerate_markings(w, 5))
    assert Marking(w, (2, 2), frozenset({5})) in marks
    assert Marking(w, (2, 6), frozenset({3})) in marks


def test_partition_to_marking_displayed_example():
    w = (1, 4, 3, 2, 5, 6)
    f = {1: 1, 4: -2, 3: -4, 2: -4, 5: -5, 6: 5}
    assert partition_to_marking(f, w, 5) == Marking(w, (2, 2), frozenset({5}))


def test_partition_to_marking_trivial_word():
    for sign in (1, -1):
        mk = partition_to_marking({1: sign}, (1,), 1)
        assert mk == Marking((1,), (), frozenset())


def test_partition_to_marking_domain_errors():
    with pytest.raises(ValueError):
        partition_to_marking({1: 1, 2: -1}, (1, 2), 2)  # not enriched
    with pytest.raises(ValueError):
        partition_to_marking({1: 3}, (1,), 2)  # exceeds m


def test_fibers_of_1324():
    fibers = marking_fibers((1, 3, 2, 4), 3)
    pk = 1
    assert set(fibers.values()) == {2 ** (2 * pk + 1)}
    assert set(fibers) == set(enumerate_markings((1, 3, 2, 4), 3))


def test_marking_validation():
    with pytest.raises(ValueError):
        Marking((1, 2), (3,), frozenset())


def test_interpolation_reproduces_polynomial_values():
    w = (2, 1, 3)
    pts = [(m, omega(w, m)) for m in range(1, 5)]
    for m in range(5, 8):
        assert _interpolate(pts, m) == Fraction(omega(w, m))


def test_marking_image_and_fibers_on_five_letter_words():
    # partition_to_marking does not check its own output; this does, on
    # every word of S_5, beyond the S_4 of the markings verify suite.
    for w in itertools.permutations(range(1, 6)):
        pk = len(peak_set(w))
        for m in (1, 2):
            fibers = marking_fibers(w, m)
            assert set(fibers) == set(enumerate_markings(w, m))
            assert set(fibers.values()) <= {2 ** (2 * pk + 1)}
