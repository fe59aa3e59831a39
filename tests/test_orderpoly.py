import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpeaks.orderpoly import (
    Marking,
    RunDecomposition,
    _omega_from_peaks,
    _peak_sum,
    enumerate_markings,
    gf_omega,
    gf_omega_cyc,
    marking_fibers,
    multiset_coeff,
    omega,
    omega_cyc,
    omega_cyc_formula,
    omega_dag,
    omega_toric,
    partition_to_marking,
    runs,
)
from toricpeaks.dag import (
    Dag,
    _bridgeless_classes,
    _components,
    linear_extensions,
    toric_class,
)
from toricpeaks import enriched
from toricpeaks.enriched import (
    _peak_distribution,
    delta_dag,
    delta_toric,
    enumerate_enriched,
    enumerate_enriched_toric,
)
from toricpeaks.permstat import cyclic_peak_sets, cyclic_peak_witness, peak_set, rotations
from toricpeaks.qsym import QSym
from toricpeaks.setcomp import _mask, _set
from toricpeaks.verify import (
    _delta_by_extensions,
    _interpolate,
    _k_fundamental,
    random_dags,
    small_dags,
)

from test_dag import labeled_dags


def test_poly_helpers():
    assert multiset_coeff(3, 2) == 6
    assert multiset_coeff(3, 0) == 1


def _peak_sum_unbounded(n, p, m):
    """``_peak_sum`` over every k < m - p, zero binomials included."""
    if n - 2 * p - 1 < 0:
        return 0
    return sum(
        multiset_coeff(n + 1, k) * comb(n - 2 * p - 1, m - 1 - p - k) for k in range(m - p)
    )


def test_peak_sum_skips_only_zero_terms():
    for n in range(0, 12):
        for p in range(-1, 6):
            for m in range(0, 30):
                assert _peak_sum(n, p, m) == _peak_sum_unbounded(n, p, m), (n, p, m)


def _omega_cyc_by_the_paper(n, cpk, m):
    """The paper's closed formula, written out: (n - 2cpk)·2^{2cpk+1}·Σ_k
    ((n+1 multichoose k))·C(n - 2cpk - 1, m - 1 - cpk - k) + cpk·4^cpk·Σ_k
    ((n+1 multichoose k))·C(n - 2cpk + 1, m - cpk - k), a binomial with a
    negative argument being 0."""

    def binom(a, b):
        return comb(a, b) if a >= 0 and b >= 0 else 0

    first = sum(
        multiset_coeff(n + 1, k) * binom(n - 2 * cpk - 1, m - 1 - cpk - k) for k in range(m)
    )
    second = sum(
        multiset_coeff(n + 1, k) * binom(n - 2 * cpk + 1, m - cpk - k) for k in range(m + 1)
    )
    return (n - 2 * cpk) * 2 ** (2 * cpk + 1) * first + cpk * 4**cpk * second


def test_omega_cyc_formula_is_the_papers():
    for n in range(16):
        for cpk in range(n // 2 + 1):
            for m in range(12):
                expected = _omega_cyc_by_the_paper(n, cpk, m)
                assert omega_cyc_formula(n, cpk, m) == expected, (n, cpk, m)


def test_omega_cyc_formula_refuses_impossible_peak_counts():
    # No 5-letter word has 3 or -1 cyclic peaks; (5, 3, 3) once read 192.
    for n, cpk in [(5, 3), (5, -1), (-2, 0)]:
        with pytest.raises(ValueError, match=f"^no {n}-letter word has {cpk} cyclic peaks$"):
            omega_cyc_formula(n, cpk, 3)
    # The ends of the range stay: n = 0, and n = 2cpk as in 142536.
    assert omega_cyc_formula(0, 0, 3) == 0
    assert omega_cyc_formula(6, 3, 3) == omega_cyc((1, 4, 2, 5, 3, 6), 3) > 0


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _gf_omega_cyc_by_the_paper(n, cpk, order):
    """The paper's cyclic series (4t/(1+t)²)^cpk ((1+t)/(1−t))^{n−1}
    (cpk + 2nt/(1−t)²), cleared to num/den and expanded by long division
    of integer polynomials; a negative power of 1 + t goes below the line."""
    num = _poly_mul([0] * cpk + [4**cpk], [cpk, 2 * n - 2 * cpk, cpk])
    den = [1]
    for _ in range(n + 1):
        den = _poly_mul(den, [1, -1])
    extra = n - 1 - 2 * cpk
    for _ in range(abs(extra)):
        if extra > 0:
            num = _poly_mul(num, [1, 1])
        else:
            den = _poly_mul(den, [1, 1])
    out = []
    for j in range(order + 1):
        acc = num[j] if j < len(num) else 0
        acc -= sum(den[i] * out[j - i] for i in range(1, min(j, len(den) - 1) + 1))
        out.append(acc)
    return out


def test_gf_omega_cyc_is_the_papers():
    for n in range(1, 13):
        for S in cyclic_peak_sets(n):
            w = cyclic_peak_witness(S, n)
            for order in range(15):
                expected = _gf_omega_cyc_by_the_paper(n, len(S), order)
                assert gf_omega_cyc(w, order) == expected, (n, len(S), order)


def test_gf_omega_cyc_is_the_rotation_sum():
    # Verify's order-poly suite checks this only through Ω, up to n = 5.
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            if w[0] != 1:  # one word per cyclic class
                continue
            total = [sum(col) for col in zip(*(gf_omega(v, 12) for v in rotations(w)))]
            assert gf_omega_cyc(w, 12) == total, w


def test_omega_at_a_large_bound():
    # At m = 10^4 each sum has at most n terms; the values are those of the
    # degree-n polynomial through the first n + 1 values.
    big = 10**4
    assert omega((1,), big) == omega_cyc((1,), big) == 2 * big
    for w in [(2, 1, 3), (1, 3, 2, 4), (3, 1, 4, 2, 5)]:
        for count in (omega, omega_cyc):
            pts = [(m, count(w, m)) for m in range(1, len(w) + 2)]
            assert _interpolate(pts, big) == count(w, big)


def test_omega_closed_forms():
    for m in range(0, 6):
        assert omega((1,), m) == 2 * m
        assert omega((1, 2), m) == 2 * m * m
    assert omega((1, 3, 2), 0) == 0


@pytest.mark.parametrize("m", [0, 2])
def test_omega_rejects_the_empty_word(m):
    # The closed forms start at n = 1; the empty word has one partition, not 0.
    for f in (omega, omega_cyc, gf_omega, gf_omega_cyc):
        with pytest.raises(ValueError, match="nonempty word"):
            f((), m)
    with pytest.raises(ValueError, match="nonempty word"):
        runs(())
    with pytest.raises(ValueError, match="nonempty word"):
        enumerate_markings((), m)


def test_omega_rejects_words_that_are_not_permutations():
    # gf_omega((2, 2, 1), 3) once read [0, 2, 12, 38] and omega((0, -1), 3) 18.
    for f in (omega, omega_cyc, gf_omega, gf_omega_cyc):
        with pytest.raises(ValueError, match="labels must be distinct"):
            f((2, 2, 1), 3)
        with pytest.raises(ValueError, match="labels must be positive"):
            f((0, -1), 3)


def test_omega_matches_enumeration():
    for w in [(1,), (2, 1), (1, 3, 2), (2, 1, 4, 3)]:
        for m in (1, 2, 3):
            assert omega(w, m) == len(enumerate_enriched(Dag.from_word(w), m))


def test_omega_dag_and_toric():
    d = Dag.from_word((1, 2))
    assert omega_dag(d, 2) == 8
    assert [omega_dag(Dag.make([], []), m) for m in range(3)] == [1, 1, 1]
    assert [omega_dag(Dag.make([7], []), m) for m in range(3)] == [0, 2, 4]
    # m = 1: {1: -1, 2: 1} and {1: 1, 2: 1}; m = 2 adds those two at level 2
    # and the four {1: ±1, 2: ±2}.
    assert [omega_dag(d, m) for m in range(3)] == [0, 2, 8]
    # The chain 1 < 3 > 2 has its peak at position 2, bit n - 2 = 1.
    assert _peak_distribution(Dag.make([1, 2, 3], [(1, 3), (3, 2)]).pred) == {0b010: 1}
    assert _peak_distribution(Dag.make([], []).pred) == {0: 1}
    tc = toric_class(d)
    assert omega_toric(tc, 1) == omega_cyc((1, 2), 1) == 4


def test_omega_dag_runs_once_per_shape():
    # Two one-arc components share a shape; the in-star is a third shape.
    d = Dag.make(range(1, 8), [(1, 2), (3, 4), (5, 6), (7, 6)])
    enriched._PEAKS.clear()
    table = [omega_dag(d, m) for m in range(6)]
    assert enriched._PEAKS.misses == len({c.pred for c in _components(d)}) == 2
    assert table == [len(enumerate_enriched(d, m)) for m in range(6)]
    # Labels + 10 give the same index: no new DP, the same counts.
    shifted = Dag.make([v + 10 for v in d.vertices], [(i + 10, j + 10) for i, j in d.arcs])
    assert [omega_dag(shifted, m) for m in range(6)] == table
    assert enriched._PEAKS.misses == 2
    # A 4-cycle with a pendant arc: one DP per shape among the members of
    # its bridgeless pieces' classes, and one build of those classes,
    # whatever m.
    tc = toric_class(Dag.make(range(1, 6), [(1, 2), (2, 3), (1, 4), (4, 3), (3, 5)]))
    shapes = {e.pred for c in _bridgeless_classes(tc) for e in c.members}
    enriched._PEAKS.clear()
    enriched._TORIC_PEAKS.clear()
    counts = [omega_toric(tc, m) for m in range(6)]
    assert enriched._PEAKS.misses == len(shapes)
    assert list(enriched._TORIC_PEAKS) == [tc.canonical.pred]
    assert counts == [len(enumerate_enriched_toric(tc, m)) for m in range(6)]


def test_toric_peaks_are_kept_per_bit_index():
    # Labels + 10 give the class the same canonical bit index: no new
    # entry, and equal Δ and Ω. An entry holds degrees and count dicts of
    # integers, no Dag.
    d = Dag.make(range(1, 6), [(1, 2), (2, 3), (1, 4), (4, 3), (3, 5)])
    shifted = Dag.make([v + 10 for v in d.vertices], [(i + 10, j + 10) for i, j in d.arcs])
    enriched._TORIC_PEAKS.clear()
    delta = delta_toric(toric_class(d))
    table = [omega_toric(toric_class(d), m) for m in range(4)]
    assert len(enriched._TORIC_PEAKS) == 1
    assert delta_toric(toric_class(shifted)) == delta
    assert [omega_toric(toric_class(shifted), m) for m in range(4)] == table
    assert len(enriched._TORIC_PEAKS) == 1
    for key, pieces in enriched._TORIC_PEAKS.items():
        assert all(type(x) is int for x in key)
        for n, counts in pieces:
            assert type(n) is int and type(counts) is dict
            assert all(type(S) is int and type(c) is int for S, c in counts.items())


def test_delta_and_omega_share_one_dp():
    # One shape, one DP: Δ and Ω both read the peak distribution.
    d = Dag.make([1, 2, 3, 4], [(2, 1), (2, 4), (2, 3), (4, 1), (4, 3)])
    enriched._PEAKS.clear()
    assert delta_dag(d) == _delta_by_extensions(d)
    table = [omega_dag(d, m) for m in range(4)]
    assert enriched._PEAKS.misses == 1
    assert table == [len(enumerate_enriched(d, m)) for m in range(4)]


def assert_peaks_project_delta(d):
    """The peak DP counts the linear extensions of d by peak set; its
    K-expansion, through Stembridge's F-basis formula, is Δ_d, and Δ_d at
    m ones is Ω_d(m)."""
    n, counts = len(d.vertices), _peak_distribution(d.pred)
    assert counts == Counter(_mask(peak_set(w), n) for w in linear_extensions(d)), d
    delta = delta_dag(d)
    coeffs = Counter()
    for S, c in counts.items():
        for D, k in _k_fundamental(S, n).items():
            coeffs[_set(D, n)] += c * k
    assert delta == QSym.from_fundamental(n, coeffs), d
    assert [omega_dag(d, m) for m in range(4)] == [delta.specialize_ones(m) for m in range(4)], d


def test_peak_distribution_projects_delta_on_small_dags():
    for d in [Dag.make([], []), *small_dags(4)]:
        assert_peaks_project_delta(d)


@settings(deadline=None)
@given(labeled_dags(7))
def test_peak_distribution_projects_delta(d):
    assert_peaks_project_delta(d)


def test_delta_and_omega_hand_out_their_own_results():
    d = Dag.from_word((2, 1, 3))
    expected = delta_dag(d)
    delta = delta_dag(d)
    delta.masks[next(iter(delta.masks))] += 1
    delta.masks[0] = 7
    assert delta_dag(d) == expected
    tc = toric_class(d)
    expected = delta_toric(tc)
    cyc = delta_toric(tc)
    cyc.masks[next(iter(cyc.masks))] += 1
    assert delta_toric(tc) == expected
    assert omega_dag(d, 3) == len(enumerate_enriched(d, 3))
    assert omega_toric(tc, 3) == len(enumerate_enriched_toric(tc, 3))


def assert_omega_counts(dags, ms):
    """``omega_dag`` and ``omega_toric``, products over components, are the
    lengths of the listings, which multiply nothing. So is the peak DP of
    the whole DAG, unsplit, whose total is the number of linear
    extensions."""
    for d in dags:
        n, counts = len(d.vertices), _peak_distribution(d.pred)
        assert sum(counts.values()) == len(linear_extensions(d)), d
        for m in ms:
            count = len(enumerate_enriched(d, m))
            assert omega_dag(d, m) == count, (d, m)
            assert _omega_from_peaks(n, counts, m) == count, (d, m)
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


def _runs_by_starts(w):
    """``runs`` as it was first written: the run starts, then the bounds."""
    word = tuple(w)
    sentinel = max(word) + 1
    seq = (sentinel,) + word + (sentinel,)
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


def test_runs_match_the_two_pass_scan():
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            assert runs(w) == _runs_by_starts(w)
    assert runs((7, 2, 9)) == _runs_by_starts((7, 2, 9))


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
    with pytest.raises(ValueError, match="^f is not an enriched partition of w$"):
        partition_to_marking({1: 1, 2: -1}, (1, 2), 2)
    with pytest.raises(ValueError, match="^absolute values exceed 2$"):
        partition_to_marking({1: 3}, (1,), 2)
    with pytest.raises(ValueError, match=r"labels \[99\] outside d"):
        partition_to_marking({1: 1, 2: 1, 99: 5}, (1, 2), 5)


def test_marking_fibers_match_partition_to_marking():
    # marking_fibers sets each word up once; partition_to_marking per row.
    for n in range(1, 6):
        for w in itertools.permutations(range(1, n + 1)):
            for m in range(1, 4):
                rows = enumerate_enriched(Dag.from_word(w), m)
                expected = Counter(partition_to_marking(f, w, m) for f in rows)
                assert marking_fibers(w, m) == expected


def test_fibers_of_1324():
    fibers = marking_fibers((1, 3, 2, 4), 3)
    pk = 1
    assert set(fibers.values()) == {2 ** (2 * pk + 1)}
    assert set(fibers) == set(enumerate_markings((1, 3, 2, 4), 3))


def test_marking_validation():
    with pytest.raises(ValueError):
        Marking((1, 2), (3,), frozenset())
    for mark in (0, 3, 7):
        with pytest.raises(ValueError, match="mark outside the column range"):
            Marking((1, 2), (0,), frozenset({mark}))


def test_interpolation_reproduces_polynomial_values():
    w = (2, 1, 3)
    pts = [(m, omega(w, m)) for m in range(1, 5)]
    for m in range(5, 8):
        assert _interpolate(pts, m) == Fraction(omega(w, m))


def test_interpolation_of_a_non_polynomial_is_no_integer():
    # 2^x at the nodes 0, 2, 4: the parabola through them is
    # (9x^2 - 6x + 8)/8, 11/8 at x = 1, and an integer at every even x.
    pts = [(0, 1), (2, 4), (4, 16)]
    assert _interpolate(pts, 1) is None
    assert [_interpolate(pts, x) for x in (0, 2, 4, 6)] == [1, 4, 16, 37]


def test_marking_image_and_fibers_on_five_letter_words():
    # partition_to_marking does not check its own output; this does, on
    # every word of S_5, beyond the S_4 of the markings verify suite.
    for w in itertools.permutations(range(1, 6)):
        pk = len(peak_set(w))
        for m in (1, 2):
            fibers = marking_fibers(w, m)
            assert set(fibers) == set(enumerate_markings(w, m))
            assert set(fibers.values()) <= {2 ** (2 * pk + 1)}
