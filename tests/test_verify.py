"""The verify suites catch what they claim to check, and share their memos."""

from toricpeaks import enriched, verify
from toricpeaks.dag import Dag, toric_class
from toricpeaks.qsym import cyclic_monomial

D3 = Dag.make([1, 2, 3, 4], [(2, 1), (2, 4), (2, 3), (4, 1), (4, 3)])


def test_enumerator_catches_a_wrong_kcyc(monkeypatch):
    kcyc = verify.kcyc

    def off_by_one(S, n):
        return kcyc(S, n) + cyclic_monomial(n, {1}) if n == 6 else kcyc(S, n)

    monkeypatch.setattr(verify, "kcyc", off_by_one)
    report = verify.run_suite("enumerator", max_m=1)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["enumerators depend only on peak data, n<=6"]


def test_fundamental_lemma_catches_a_wrong_delta_dag(monkeypatch):
    # delta_toric sums delta_dag over the class members; doubling it in
    # degree 3 keeps the sum cyclic but breaks it against the cPk oracle.
    delta_dag = enriched.delta_dag

    def doubled_in_degree_3(d):
        delta = delta_dag(d)
        return delta.scale(2) if len(d.vertices) == 3 else delta

    monkeypatch.setattr(enriched, "delta_dag", doubled_in_degree_3)
    verify._delta_toric.cache_clear()
    try:
        report = verify.run_suite("fundamental-lemma", max_n=3, max_m=1, random_count=0)
    finally:
        verify._delta_toric.cache_clear()
    failed = [c["name"].split(",")[0] for c in report["checks"] if not c["pass"]]
    assert failed == ["toric decomposition", "specialization counts"]


def test_fundamental_lemma_catches_a_missing_toric_extension(monkeypatch):
    toric_extensions = verify._toric_extensions

    def one_short(members):
        return toric_extensions(members)[1:]

    monkeypatch.setattr(verify, "_toric_extensions", one_short)
    verify._toric_extensions_of.cache_clear()
    try:
        report = verify.run_suite("fundamental-lemma", max_n=3, max_m=1, random_count=0)
    finally:
        verify._toric_extensions_of.cache_clear()
    failed = [c["name"].split(",")[0] for c in report["checks"] if not c["pass"]]
    assert failed == ["toric decomposition"]


def test_a_failing_tally_reports_its_failure_count(monkeypatch):
    omega_toric = verify.omega_toric
    monkeypatch.setattr(verify, "omega_toric", lambda tc, m: omega_toric(tc, m) + 1)
    report = verify.run_suite("order-poly", max_n=2, max_m=1)
    failed = [(c["name"], c["detail"]) for c in report["checks"] if not c["pass"]]
    assert failed == [("cyclic triple agreement, n<=2", "2 failures")]


def test_triangularity_names_a_bad_entry(monkeypatch):
    matrix = verify._kcyc_triangular_matrix

    def zero_last_diagonal(n):
        sets, rows, full = matrix(n)
        if n == 4:
            rows[-1][-1] = 0
        return sets, rows, full

    monkeypatch.setattr(verify, "_kcyc_triangular_matrix", zero_last_diagonal)
    report = verify.run_suite("triangularity", max_n=4)
    failed = [(c["name"], c["detail"]) for c in report["checks"] if not c["pass"]]
    assert failed == [("triangularity and rank n=4", "bad entry at (1, 1)")]


def test_small_degree_bounds_draw_no_random_dags():
    assert verify.random_dags(5, max_n=1) == []
    assert verify.random_dags(5, max_n=0) == []
    for suite, max_n in [("fundamental-lemma", 1), ("all", 0)]:
        assert verify.run_suite(suite, max_n=max_n, max_m=1)["pass"]


def test_is_disjoint_cover():
    whole = frozenset({1, 2, 3})
    assert verify._is_disjoint_cover(whole, [frozenset({1}), frozenset({2, 3})])
    # overlapping pieces of the right total size miss an element
    assert not verify._is_disjoint_cover(whole, [frozenset({1, 2}), frozenset({2})])
    assert not verify._is_disjoint_cover(whole, [frozenset({1, 2}), frozenset({3, 4})])
    assert not verify._is_disjoint_cover(whole, [frozenset({1, 2})])


def test_toric_memos_share_one_entry_per_class():
    members = toric_class(D3).members
    verify._toric_enriched_set.cache_clear()
    for member in members:
        verify._toric_enriched_set(verify._toric_of(member), 1)
    assert len(members) == 5
    assert verify._toric_enriched_set.cache_info().currsize == 1
