import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpeaks.dag import Dag, disjoint_union, toric_class
from toricpeaks.enriched import (
    cyclic_peak_product,
    delta_dag,
    delta_from_peak_set,
    delta_perm,
    delta_toric,
    delta_toric_by_rotations,
    enumerate_enriched,
    enumerate_enriched_toric,
    is_enriched,
    k_peak,
    kcyc,
    signed_key,
)
from toricpeaks.permstat import cyclic_peak_sets
from toricpeaks.qsym import (
    CQSym,
    QSym,
    cyclic_fundamental,
    cyclic_monomial,
    from_qsym,
    monomial,
)
from toricpeaks.setcomp import shift_set
from toricpeaks.verify import (
    _brute_enriched,
    _delta_by_extensions,
    _delta_fundamental_expansion,
    _delta_toric_by_cpk,
    _freeze,
    _kcyc_triangular_matrix,
    _matrix_rank,
    random_dags,
    small_dags,
)

from test_dag import labeled_dags
from test_permstat import peak_sets, peak_witness

D3 = Dag.make([1, 2, 3, 4], [(2, 1), (2, 4), (2, 3), (4, 1), (4, 3)])


def test_signed_order():
    assert signed_key(-1) < signed_key(1) < signed_key(-2) < signed_key(2)
    with pytest.raises(ValueError):
        signed_key(0)


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
    assert delta_from_peak_set(frozenset({2}), 4) == expected


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


def test_delta_dag_of_two_five_chains():
    left = Dag.make([3, 1, 5, 2, 4], [(3, 1), (1, 5), (5, 2), (2, 4)])
    right = Dag.make([6, 9, 7, 10, 8], [(6, 9), (9, 7), (7, 10), (10, 8)])
    d = disjoint_union(left, right)
    assert delta_dag(d) == _delta_by_extensions(d)


def test_fundamental_expansion_matches_basis_change():
    for n in range(1, 6):
        for w in itertools.permutations(range(1, n + 1)):
            assert _delta_fundamental_expansion(w) == delta_perm(w).to_fundamental()


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
        sets = [{_freeze(f) for f in enumerate_enriched(e, m)} for e in tc.members]
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
    sets, matrix, _ = _kcyc_triangular_matrix(4)
    assert sets == [frozenset({1}), frozenset({1, 3})]
    assert matrix[0][0] == 4 and matrix[1][0] == 0 and matrix[1][1] != 0


def test_matrix_rank():
    assert _matrix_rank([[1, 2], [2, 4]]) == 1
    assert _matrix_rank([[1, 0], [3, 5]]) == 2
    assert _matrix_rank([]) == 0


def test_cyclic_peak_product_small_cases():
    # the one-letter word has no cyclic peak, so its set is empty
    lhs, decomposition = cyclic_peak_product(frozenset(), 1, frozenset(), 1)
    assert lhs.degree == 2
    assert sum(decomposition.values()) >= 1
    # degree-0 unit
    unit_side, _ = cyclic_peak_product(frozenset(), 0, {1}, 2)
    assert unit_side == kcyc({1}, 2)
