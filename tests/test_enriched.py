import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpeaks.dag import Dag, disjoint_union, toric_class
from toricpeaks import enriched
from toricpeaks.enriched import (
    _delta_from_peaks,
    _peak_distribution,
    _peaks_product,
    _rank,
    _shuffle_peaks,
    _toric_peaks,
    cyclic_peak_product,
    delta_dag,
    delta_perm,
    delta_toric,
    delta_toric_by_rotations,
    enumerate_enriched,
    enumerate_enriched_toric,
    is_enriched,
    iter_enriched,
    k_peak,
    kcyc,
)
from toricpeaks.permstat import (
    cpeak_set,
    cyclic_peak_sets,
    is_cyclic_peak_set,
    peak_set,
    shuffle_set,
)
from toricpeaks.qsym import (
    CQSym,
    QSym,
    cyclic_fundamental,
    cyclic_monomial,
    from_qsym,
    monomial,
)
from toricpeaks.setcomp import _canonical_mask, _mask, _set, shift_set
from toricpeaks.verify import (
    _brute_enriched,
    _decomposition_by_listing,
    _delta_by_extensions,
    _delta_toric_by_cpk,
    _k_fundamental,
    _kcyc_triangular_matrix,
    random_dags,
    small_dags,
)

from test_dag import labeled_dags
from test_permstat import peak_sets, peak_witness

D3 = Dag.make([1, 2, 3, 4], [(2, 1), (2, 4), (2, 3), (4, 1), (4, 3)])


def test_signed_order():
    assert _rank(-1) < _rank(1) < _rank(-2) < _rank(2)
    with pytest.raises(ValueError, match="0 is not an admissible value"):
        _rank(0)


def test_is_enriched_tie_rules():
    d = Dag.make([1, 2], [(1, 2)])
    assert is_enriched({1: 1, 2: 1}, d)       # positive tie, 1 < 2
    assert not is_enriched({1: -1, 2: -1}, d)  # negative tie needs 1 > 2
    assert is_enriched({1: -1, 2: 1}, d)
    assert not is_enriched({1: 1, 2: -1}, d)
    d21 = Dag.make([1, 2], [(2, 1)])
    assert is_enriched({1: -1, 2: -1}, d21)
    with pytest.raises(ValueError):
        is_enriched({1: 1}, d)


def test_is_enriched_refuses_outside_input():
    d = Dag.make([1, 2], [(1, 2)])
    with pytest.raises(ValueError, match=r"labels \[99\] outside d"):
        is_enriched({1: 1, 2: 1, 99: 5}, d)
    for bad in (1.5, 0, True, "1"):
        with pytest.raises(ValueError, match="is not an admissible value"):
            is_enriched({1: bad, 2: 2}, d)
    # A vertex on no arc is checked too.
    with pytest.raises(ValueError, match="0 is not an admissible value"):
        is_enriched({1: 1, 2: 1, 3: 0}, Dag.make([1, 2, 3], [(1, 2)]))


def test_is_enriched_agrees_with_the_brute_force_filter():
    # verify's filter keeps its own copy of the rule, so no verify suite
    # needs to call is_enriched: this compares the two on every assignment.
    for d in small_dags(4):
        verts = sorted(d.vertices)
        for m in (1, 2):
            values = [*range(-m, 0), *range(1, m + 1)]
            rows = (dict(zip(verts, c)) for c in itertools.product(values, repeat=len(verts)))
            assert [f for f in rows if is_enriched(f, d)] == _brute_enriched(d, m)


def test_peak_functions_refuse_a_negative_degree():
    with pytest.raises(ValueError, match=r"^\[\] is not a peak set in \[-1\]$"):
        k_peak(set(), -1)
    with pytest.raises(ValueError, match=r"^\[\] is not a cyclic peak set in \[-1\]$"):
        kcyc(set(), -1)


def test_enumeration_counts_match_enumerator():
    for w in [(1,), (1, 2), (2, 1), (1, 3, 2)]:
        d = Dag.from_word(w)
        for m in (1, 2, 3):
            assert len(enumerate_enriched(d, m)) == delta_perm(w).specialize_ones(m)


def test_delta_of_2431():
    expected = QSym(
        4,
        {
            frozenset({1}): 4,
            frozenset({2}): 4,
            frozenset({1, 2}): 8,
            frozenset({1, 3}): 8,
            frozenset({2, 3}): 8,
            frozenset({1, 2, 3}): 16,
        },
    )
    assert delta_perm((2, 4, 3, 1)) == expected
    assert k_peak({2}, 4) == expected


def test_delta_dag_sums_linear_extensions():
    assert delta_dag(D3) == delta_perm((2, 4, 1, 3)) + delta_perm((2, 4, 3, 1))


@settings(deadline=None)
@given(labeled_dags(6))
def test_delta_dag_matches_linear_extensions(d):
    assert delta_dag(d) == _delta_by_extensions(d)


@settings(deadline=None)
@given(labeled_dags(5), st.integers(0, 2))
def test_enumerate_enriched_matches_brute_force(d, m):
    assert enumerate_enriched(d, m) == _brute_enriched(d, m)


@settings(deadline=None)
@given(labeled_dags(4))
def test_iter_enriched_matches_brute_force_at_m_3(d):
    # At m = 3 a vertex can see every kind of bound: ties of either sign at
    # several levels, on both sides.
    assert list(iter_enriched(d, 3)) == _brute_enriched(d, 3)


@pytest.mark.parametrize("m", range(4))
def test_iter_enriched_without_a_second_vertex(m):
    # No vertex before the last: the empty DAG has one empty row, and one
    # vertex takes every value, in integer order.
    assert list(iter_enriched(Dag.make([], []), m)) == [{}]
    one = Dag.make([7], [])
    rows = list(iter_enriched(one, m))
    assert rows == [{7: x} for x in [*range(-m, 0), *range(1, m + 1)]]
    assert rows == _brute_enriched(one, m)


def test_down_set_dp_edge_cases():
    empty = Dag.make([], [])
    assert delta_dag(empty) == QSym.unit(1)
    assert enumerate_enriched(empty, 0) == enumerate_enriched(empty, 2) == [{}]
    assert enumerate_enriched(D3, 0) == []
    antichain = Dag.make([1, 2, 3, 4], [])
    assert delta_dag(antichain) == _delta_by_extensions(antichain)
    assert len(enumerate_enriched(antichain, 2)) == 4**4
    for w in [(1, 2, 3, 4, 5), (5, 4, 3, 2, 1)]:
        chain = Dag.make(w, zip(w, w[1:]))
        assert delta_dag(chain) == delta_perm(w)
        for m in (1, 2, 3):
            assert enumerate_enriched(chain, m) == _brute_enriched(chain, m)


def test_delta_dag_runs_once_per_shape():
    tc = toric_class(Dag.make(range(1, 5), [(1, 2), (2, 3), (1, 4), (4, 3)]))
    shapes = {e.pred for e in tc.members}
    enriched._PEAKS.clear()
    for e in tc.members:
        assert delta_dag(e) == _delta_by_extensions(e)
    assert enriched._PEAKS.misses == len(shapes)
    # Labels + 10 give the same bit index: a hit, and an equal element.
    shifted = Dag.make([v + 10 for v in D3.vertices], [(i + 10, j + 10) for i, j in D3.arcs])
    expected = delta_dag(D3)
    misses = enriched._PEAKS.misses
    assert delta_dag(shifted) == expected
    assert enriched._PEAKS.misses == misses


def test_delta_dag_hands_out_its_own_masks():
    expected = _delta_by_extensions(D3)
    delta = delta_dag(D3)
    delta.masks[next(iter(delta.masks))] += 1
    delta.masks[0] = 7
    assert delta_dag(D3) == expected


def test_delta_dag_of_two_five_chains():
    left = Dag.make([3, 1, 5, 2, 4], [(3, 1), (1, 5), (5, 2), (2, 4)])
    right = Dag.make([6, 9, 7, 10, 8], [(6, 9), (9, 7), (7, 10), (10, 8)])
    d = disjoint_union(left, right)
    assert delta_dag(d) == _delta_by_extensions(d)


def test_fundamental_expansion_matches_basis_change():
    for n in range(1, 6):
        for w in itertools.permutations(range(1, n + 1)):
            F = _k_fundamental(_mask(peak_set(w), n), n)
            assert {_set(D, n): c for D, c in F.items()} == delta_perm(w).to_fundamental()


def test_k_peak_square_identity():
    k1 = k_peak(frozenset(), 1)
    assert k1 == QSym(1, {frozenset(): 2})
    k2 = k_peak(frozenset(), 2)
    assert k1 * k1 == QSym(2, {frozenset(): 4, frozenset({1}): 8})
    assert k1 * k1 == 2 * k2


def test_k_peak_matches_enumerator_of_a_witness():
    for n in range(0, 9):
        for S in peak_sets(n):
            assert k_peak(S, n) == delta_perm(peak_witness(S, n))


def test_k_peak_rejects_invalid_sets():
    with pytest.raises(ValueError):
        k_peak({1}, 3)
    with pytest.raises(ValueError):
        kcyc({1, 2}, 4)


@pytest.mark.parametrize("w", [(2, 2, 1), (0, 3)])
def test_delta_perm_refuses_an_invalid_word(w):
    with pytest.raises(ValueError, match="^labels must be (distinct|positive)"):
        delta_perm(w)


def peak_set_filter(S, n):
    """K_S by a pass over all 2^{n-1} subsets E of [n-1]: 2^{|E|+1} M_{n,E}
    for each E with S inside E ∪ (E+1), whose mask is E | E >> 1."""
    if n == 0:
        return QSym.unit(1)
    peaks = _mask(S, n)
    terms = {E: 2 << E.bit_count() for E in range(0, 1 << n, 2) if not peaks & ~(E | E >> 1)}
    return QSym._make(n, terms)


def test_k_expansion_of_one_peak_set_is_the_filter():
    for n in range(13):
        for S in peak_sets(n):
            assert k_peak(S, n) == peak_set_filter(S, n), (S, n)


def test_kcyc_of_single_cyclic_peak():
    expected = CQSym(
        4,
        {
            frozenset({1}): 4,
            frozenset({1, 3}): 8,
            frozenset({1, 2}): 12,
            frozenset({1, 2, 3}): 32,
            frozenset({1, 2, 3, 4}): 16,
        },
    )
    assert kcyc({3}, 4) == expected
    # shift invariance through the witness-free formula
    assert kcyc({1}, 4) == kcyc({3}, 4)


def kcyc_by_subsets(S, n):
    """Kcyc_S straight from its definition: 2^|E| on the class of each
    nonempty E in [n] with S inside E ∪ (E+1), one subset at a time."""
    if n == 0:
        return CQSym.unit(1)
    peaks, top = _mask(S, n), n - 1
    terms = {}
    for E in range(1, 1 << n):
        if not peaks & ~(E | E >> 1 | (E & 1) << top):
            key = _canonical_mask(E, n)
            terms[key] = terms.get(key, 0) + (1 << E.bit_count())
    return CQSym._make(n, terms)


def test_kcyc_matches_the_subset_sum():
    # Every cyclic peak set with n <= 10, canonical or not, n = 0, 1, 2 too.
    count = 0
    for n in range(11):
        for k in range(n + 1):
            for S in map(frozenset, itertools.combinations(range(1, n + 1), k)):
                if is_cyclic_peak_set(S, n):
                    assert kcyc(S, n).masks == kcyc_by_subsets(S, n).masks, (S, n)
                    count += 1
    assert count == 311
    # The class of {1, 4} in [6] has period 3: of {1, 4}, {2, 5} and {3, 6},
    # the first and the last cover the peaks, each 2^2.
    assert kcyc({1, 4}, 6).masks[_mask({1, 4}, 6)] == 8


def test_kcyc_hands_out_its_own_masks():
    expected = kcyc_by_subsets({2, 5}, 7)
    elem = kcyc({2, 5}, 7)
    elem.masks[next(iter(elem.masks))] += 1
    elem.masks[1] = 7
    assert kcyc({2, 5}, 7) == expected


def test_delta_toric_two_ways():
    expected = CQSym(
        4,
        {
            frozenset({1, 2, 3, 4}): 32,
            frozenset({1, 2, 3}): 64,
            frozenset({1, 2}): 20,
            frozenset({1, 3}): 16,
            frozenset({1}): 4,
        },
    )
    tc = toric_class(D3)
    assert delta_toric(tc) == expected
    assert delta_toric_by_rotations(tc) == expected


def test_routes_agree_on_the_empty_class():
    tc = toric_class(Dag.make([], []))
    assert delta_toric(tc) == CQSym.unit(1)
    assert delta_toric_by_rotations(tc) == CQSym.unit(1)
    assert _delta_toric_by_cpk(tc) == CQSym.unit(1)


def test_toric_enumeration_counts():
    tc = toric_class(D3)
    for m in (1, 2, 3):
        rows = enumerate_enriched_toric(tc, m)
        assert len(rows) == delta_toric(tc).specialize_ones(m)
        assert rows == sorted(rows, key=lambda f: sorted(f.items()))


def whole_class_sum(tc):
    """Δ_[D] as the folded sum of ``delta_dag`` over every member of the
    class, bridges and all."""
    n = len(tc.canonical.vertices)
    return from_qsym(sum(map(delta_dag, tc.members), QSym.zero(n)))


def test_delta_toric_matches_the_whole_class_sum():
    classes = {toric_class(d) for d in small_dags(4) + random_dags(100, 7, seed=14)}
    for tc in classes:
        assert delta_toric(tc) == whole_class_sum(tc), tc.canonical


def test_toric_enumeration_matches_the_whole_class_merge():
    for tc in {toric_class(d) for d in small_dags(4)}:
        for m in (1, 2):
            streams = [enumerate_enriched(member, m) for member in tc.members]
            whole = sorted(itertools.chain(*streams), key=lambda f: sorted(f.items()))
            assert enumerate_enriched_toric(tc, m) == whole, tc.canonical


@pytest.mark.parametrize(
    "forest",
    [
        Dag.make(
            [4, 9, 2, 17, 6, 11, 30, 5],
            [(4, 9), (2, 9), (2, 17), (6, 17), (6, 11), (30, 11), (30, 5)],
        ),
        Dag.make(
            [8, 3, 15, 21, 40, 7, 12],
            [(8, v) for v in (3, 15, 40)] + [(v, 8) for v in (21, 7, 12)],
        ),
        Dag.make([2, 5, 13, 19, 31, 37], []),
    ],
    ids=["path", "star", "antichain"],
)
def test_forest_enumerator_is_a_folded_power(forest):
    # Every arc of a forest is a bridge, so Δ_[F] is (2·M_1)^n folded.
    assert delta_toric(toric_class(forest)) == folded_power(len(forest.vertices))


def folded_power(n):
    """``from_qsym`` of (2·M_1)^n, the enumerator of all assignments."""
    return from_qsym(math.prod([monomial(1, ()).scale(2)] * n, start=QSym.unit()))


@pytest.mark.parametrize(
    "n, edges, count",
    [
        (4, [(1, 2), (2, 3), (3, 4), (4, 1)], 3),
        (4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)], 4),
        (5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3)], 6),
        (4, list(itertools.combinations(range(1, 5), 2)), 6),
        (5, list(itertools.combinations(range(1, 6), 2)), 24),
    ],
    ids=["C4", "C4-chord", "C5-chord", "K4", "K5"],
)
def test_toric_classes_of_a_graph_sum_to_the_folded_power(n, edges, count):
    # Every assignment orients each edge of the graph acyclically (the values
    # order its ends, and on a tie the sign does) and is an enriched
    # partition of that orientation alone, so it lies in exactly one class.
    orientations = []
    for flips in itertools.product((False, True), repeat=len(edges)):
        arcs = [(j, i) if flip else (i, j) for (i, j), flip in zip(edges, flips)]
        try:
            orientations.append(Dag.make(range(1, n + 1), arcs))
        except ValueError:  # a directed cycle
            continue
    classes = {toric_class(d) for d in orientations}
    assert len(classes) == count
    assert sum(map(delta_toric, classes), CQSym.zero(n)) == folded_power(n)


@settings(deadline=None, max_examples=50)
@given(labeled_dags(6))
def test_delta_toric_is_the_member_sum(d):
    tc = toric_class(d)
    assert delta_toric(tc) == whole_class_sum(tc)
    assert delta_toric(tc) == _delta_toric_by_cpk(tc) == delta_toric_by_rotations(tc)
    for m in (1, 2):
        sets = [{frozenset(f.items()) for f in enumerate_enriched(e, m)} for e in tc.members]
        union = set().union(*sets)
        assert sum(map(len, sets)) == len(union)
        old = [dict(sorted(f)) for f in sorted(union, key=sorted)]
        assert enumerate_enriched_toric(tc, m) == old


def kcyc_fund_expansion(S, n):
    """The sum of 2^|S| Fcyc_E over the nonempty E in [n] with S inside
    E △ (E+1), shifts taken cyclically."""
    out = CQSym.zero(n)
    for k in range(1, n + 1):
        for E in map(frozenset, itertools.combinations(range(1, n + 1), k)):
            if S <= E ^ shift_set(E, n, 1):
                out = out + cyclic_fundamental(n, E).scale(2 ** len(S))
    return out


def test_kcyc_fund_expansion_reproduces_kcyc_for_n_at_least_2():
    for n in range(2, 6):
        for S in cyclic_peak_sets(n):
            assert kcyc_fund_expansion(S, n) == kcyc(S, n), (S, n)


def test_kcyc_fund_expansion_degenerates_at_n_1():
    # E = {1} in [1] has E + 1 = {1}, so the symmetric difference is empty
    # and the expansion misses the factor 2 of the true element.
    elem = kcyc_fund_expansion(frozenset(), 1)
    assert elem == cyclic_monomial(1, {1})
    assert elem != kcyc(frozenset(), 1)
    assert kcyc(frozenset(), 1) == elem.scale(2)


def test_triangular_matrix_n4():
    sets, matrix = _kcyc_triangular_matrix(4)
    assert sets == [frozenset({1}), frozenset({1, 3})]
    assert matrix[0][0] == 4 and matrix[1][0] == 0 and matrix[1][1] != 0


def test_cyclic_peak_product_small_cases():
    # the one-letter word has no cyclic peak, so its set is empty
    lhs, decomposition = cyclic_peak_product(frozenset(), 1, frozenset(), 1)
    assert lhs.degree == 2
    assert sum(decomposition.values()) >= 1
    # degree-0 unit
    unit_side, _ = cyclic_peak_product(frozenset(), 0, {1}, 2)
    assert unit_side == kcyc({1}, 2)


def test_shuffle_peaks_counts_the_listed_shuffles():
    # Two words on disjoint letters, interleaved in value, from a sentinel
    # above every letter (linear peak sets) and from the letter 1 below
    # every letter (cyclic peak sets of 1 + shuffle).
    rng = random.Random(5)
    for _ in range(150):
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        letters = rng.sample(range(2, 12), a + b)
        u, v = tuple(letters[:a]), tuple(letters[a:])
        n = a + b
        words = shuffle_set(u, v)
        assert len(words) == math.comb(n, a)
        linear = Counter(_mask(peak_set(w), n) for w in words)
        assert _shuffle_peaks(u, v, 12) == linear, (u, v)
        cyclic = Counter(_mask(cpeak_set((1, *w)), n + 1) for w in words)
        assert _shuffle_peaks(u, v, 1) == cyclic, (u, v)


@settings(deadline=None, max_examples=60)
@given(labeled_dags(4), labeled_dags(4))
def test_peaks_product_is_the_product_of_deltas(d, e):
    # Stembridge's closure: the shuffle DP's product of two peak
    # distributions K-expands to the M-basis product of the two Δ.
    a, b = len(d.vertices), len(e.vertices)
    n, counts = _peaks_product((a, _peak_distribution(d.pred)), (b, _peak_distribution(e.pred)))
    assert n == a + b
    assert _delta_from_peaks(n, counts) == delta_dag(d) * delta_dag(e)


def test_peaks_product_of_a_pair_with_itself_runs_each_unordered_pair_once(monkeypatch):
    # Two ladders' member sums meet across a bridge as one pair twice; the
    # product is the square of Δ, from one DP per unordered pair of peak
    # sets.
    d = Dag.make(range(1, 6), [(1, 2), (3, 2), (3, 4), (5, 4), (1, 5)])
    pair = (5, _peak_distribution(d.pred))
    k = len(pair[1])
    assert k >= 3
    calls = []

    def counted(u, v, start):
        calls.append((u, v))
        return _shuffle_peaks(u, v, start)

    monkeypatch.setattr(enriched, "_shuffle_peaks", counted)
    n, counts = _peaks_product(pair, pair)
    assert len(calls) == k * (k + 1) // 2
    assert _delta_from_peaks(n, counts) == delta_dag(d) * delta_dag(d)


def test_delta_dag_folds_isolated_vertices_into_the_whole_dp():
    # The DP of the vertices with an arc, with each isolated vertex joined
    # by a one-letter shuffle, is the DP of the whole DAG.
    for d in [
        Dag.make(range(1, 7), []),
        Dag.make(range(1, 8), [(2, 5), (5, 3), (6, 3)]),
        Dag.make([3, 9, 4, 11], [(9, 4)]),
        *small_dags(4),
    ]:
        n = len(d.vertices)
        assert delta_dag(d) == _delta_from_peaks(n, _peak_distribution(d.pred)), d


def test_cyclic_peak_product_decomposes_as_the_listing():
    # The shuffle DP per rotation of the second witness counts the toric
    # extensions of the two witness cycles by canonical cPk class.
    for total in range(2, 8):
        for a in range(1, total):
            for U in cyclic_peak_sets(a):
                for T in cyclic_peak_sets(total - a):
                    _, decomposition = cyclic_peak_product(U, a, T, total - a)
                    assert decomposition == _decomposition_by_listing(U, a, T, total - a)


def _natural_dag_pred(k: int) -> tuple[int, ...]:
    """The predecessor masks of the k-th DAG on 6 vertices whose arcs all
    rise, k < 2^15: bit i takes its i bits of k as the mask below it."""
    return tuple(k >> (i * (i - 1) // 2) & (1 << i) - 1 for i in range(6))


def test_dp_memos_are_bounded(monkeypatch):
    # A memo holds at most its budget of peak masks; the least recently
    # used entries go first, and a value above the budget is not kept.
    memo = enriched._TORIC_PEAKS
    assert (enriched._PEAKS.budget, memo.budget, enriched._SHUFFLES.budget) == (
        enriched._PEAKS_MEMO,
        enriched._TORIC_MEMO,
        enriched._SHUFFLE_MEMO,
    )
    dags = [Dag.make(range(1, 6), [(1, 2), (k, 5)]) for k in range(2, 5)]
    dags += [Dag.make(range(1, 6), [(k, 5)]) for k in range(1, 5)]
    classes = [toric_class(d) for d in dags]
    keys = [tc.canonical.pred for tc in classes]
    assert len(set(keys)) == len(dags)
    weights = [sum(len(counts) for _, counts in _toric_peaks(tc)) for tc in classes]
    memo.clear()
    monkeypatch.setattr(memo, "budget", sum(weights[1:]))
    for tc in classes:
        _toric_peaks(tc)
    assert list(memo) == keys[1:] and memo.held == memo.budget
    assert memo.misses == len(classes)
    # A hit moves its entry to the back, and the front goes first.
    _toric_peaks(classes[1])
    _toric_peaks(classes[0])
    assert list(memo)[-2:] == [keys[1], keys[0]] and memo.held <= memo.budget
    assert memo.misses == len(classes) + 1
    memo.clear()
    peaks = enriched._PEAKS
    preds = [_natural_dag_pred(k) for k in range(200)]
    assert len(set(preds)) == len(preds)
    peaks.clear()
    monkeypatch.setattr(peaks, "budget", 100)
    for pred in preds:
        _peak_distribution(pred)
        assert peaks.held == sum(map(len, peaks.values())) <= 100
    # The most recent entries stay, as many as fit: a 6-vertex DAG has at
    # most 8 peak sets, those of [6].
    kept = list(peaks)
    assert kept == preds[-len(kept) :] and peaks.held > 100 - 8
    monkeypatch.setattr(peaks, "budget", 0)
    peaks.clear()
    assert _peak_distribution(preds[0]) == _peak_distribution(preds[0])
    assert not peaks and peaks.misses == 2
