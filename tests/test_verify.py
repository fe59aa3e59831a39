"""The verify suites catch what they claim to check, and share their memos."""

import inspect
import random
from collections import Counter

import pytest

from toricpeaks import cli, enriched, verify
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
    # delta_toric transforms, per 2-edge-connected component, the summed
    # peak distributions of the members of the component's class. Doubling
    # them in degree 3 doubles the triangles' classes, which have no
    # bridge: the sums stay cyclic but break against the cPk oracle.
    toric_peaks = enriched._toric_peaks

    def doubled_in_degree_3(tc):
        return tuple(
            (n, {S: 2 * c for S, c in counts.items()} if n == 3 else counts)
            for n, counts in toric_peaks(tc)
        )

    monkeypatch.setattr(enriched, "_toric_peaks", doubled_in_degree_3)
    verify._delta_toric.cache_clear()
    try:
        report = verify.run_suite("fundamental-lemma", max_n=3, max_m=1)
    finally:
        verify._delta_toric.cache_clear()
    failed = [c["name"].split(",")[0] for c in report["checks"] if not c["pass"]]
    assert failed == ["toric decomposition", "specialization counts"]


def test_fundamental_lemma_checks_delta_without_the_lemma(monkeypatch):
    # With the lemma's oracle replaced by the fast path itself, a peak DP
    # that records each peak one position late still fails against the
    # brute-force weight polynomials in two variables; one variable sees
    # only the empty peak set. Such a DP breaks the cyclic symmetry of the
    # toric sums, so the toric route reads its cPk oracle here.
    peaks = enriched._peak_distribution

    def one_late(pred):
        return {S >> 1: c for S, c in peaks(pred).items()}

    monkeypatch.setattr(verify, "_delta_by_extensions", verify.delta_dag)
    monkeypatch.setattr(verify, "_delta_toric", verify._delta_toric_by_cpk)
    monkeypatch.setattr(enriched, "_peak_distribution", one_late)
    enriched._TORIC_PEAKS.clear()
    try:
        report = verify.run_suite("fundamental-lemma", max_n=3, max_m=2)
    finally:
        enriched._TORIC_PEAKS.clear()
    failed = [c["name"].split(",")[0] for c in report["checks"] if not c["pass"]]
    # A peak moved to the last position also changes Δ at ones.
    assert failed == ["linear decomposition", "specialization counts"]


def test_fundamental_lemma_catches_a_wrong_k_expansion(monkeypatch):
    # The one K-expansion, mutated to read S inside E ∪ (E-1) instead of
    # E ∪ (E+1), fails against the lemma's oracle, which expands in the F
    # basis without it. The mutated sums are not cyclic and folding them
    # raises, so the toric route reads its cPk oracle here.
    source = inspect.getsource(enriched._delta_from_peaks)
    assert source.count("sums[(E | E >> 1) & U]") == 1
    namespace = dict(vars(enriched))
    exec(source.replace("sums[(E | E >> 1) & U]", "sums[(E | E << 1) & U]"), namespace)
    monkeypatch.setattr(enriched, "_delta_from_peaks", namespace["_delta_from_peaks"])
    monkeypatch.setattr(verify, "_delta_toric", verify._delta_toric_by_cpk)
    report = verify.run_suite("fundamental-lemma", max_n=3, max_m=1)
    failed = [c["name"].split(",")[0] for c in report["checks"] if not c["pass"]]
    assert failed == ["linear decomposition"]


def test_fundamental_lemma_checks_the_listing_against_its_own_rule(monkeypatch):
    # The brute-force oracle of enumerate_enriched filters by verify's own
    # copy of the rule, so a library arc test whose ties take the other
    # sign fails against it, although is_enriched and iter_enriched agree.
    def flipped(a, b, up):
        return a < b or a == b and (a % 2 == 0) != up

    monkeypatch.setattr(enriched, "_fits", flipped)
    memos = (verify._enriched_set, verify._toric_enriched_set)
    for memo in memos:
        memo.cache_clear()
    try:
        report = verify.run_suite("fundamental-lemma", max_n=3, max_m=2)
    finally:
        for memo in memos:
            memo.cache_clear()
    failed = [c["name"].split(",")[0] for c in report["checks"] if not c["pass"]]
    # Δ at ones no longer counts the listing either.
    assert failed == ["linear decomposition", "specialization counts"]


def _memos_clear():
    for memo in (verify._delta_toric, verify._k_peak_product):
        memo.cache_clear()


def test_an_exception_from_the_library_fails_its_suite(monkeypatch, capsys):
    # The same mutation, with the library's toric route kept: its sums do
    # not fold into cQSym, and the raise is the suite's one failed check.
    source = inspect.getsource(enriched._delta_from_peaks)
    namespace = dict(vars(enriched))
    exec(source.replace("sums[(E | E >> 1) & U]", "sums[(E | E << 1) & U]"), namespace)
    monkeypatch.setattr(enriched, "_delta_from_peaks", namespace["_delta_from_peaks"])
    _memos_clear()
    try:
        code = cli.main(["verify", "fundamental-lemma", "--n", "3", "--m", "1"])
    finally:
        _memos_clear()
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "FAIL  fundamental-lemma: raised NotCyclicError"
        "  [coefficients are inconsistent across a cyclic class]",
        "FAILED",
    ]


def test_verify_all_goes_on_after_a_suite_raises(monkeypatch, capsys):
    def raising(**_):
        raise RuntimeError("first line\nsecond line")

    suites = {"raising": raising, "extensions": verify.suite_extensions}
    monkeypatch.setattr(verify, "SUITES", suites)
    code = cli.main(["verify", "all"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == "FAIL  raising: raised RuntimeError  [first line]"
    assert lines[1:] == [
        "PASS  extensions: linear extensions",
        "PASS  extensions: toric class size 5",
        "PASS  extensions: toric extensions",
        "PASS  extensions: toric extensions as rotation classes of linear extensions",
        "FAILED",
    ]


def test_a_suite_that_raises_after_a_check_is_one_failed_check(monkeypatch, capsys):
    # The records yielded before the raise are dropped with the suite.
    @verify._suite
    def raising_late(**_):
        yield verify._check("a passing check", True)
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr(verify, "SUITES", {"raising-late": raising_late})
    code = cli.main(["verify", "raising-late"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "FAIL  raising-late: raised RuntimeError  [first line]",
        "FAILED",
    ]


def test_fundamental_lemma_catches_a_missing_toric_extension(monkeypatch):
    toric_extensions = verify._toric_extensions

    def one_short(members):
        return toric_extensions(members)[1:]

    monkeypatch.setattr(verify, "_toric_extensions", one_short)
    report = verify.run_suite("fundamental-lemma", max_n=3, max_m=1)
    failed = [c["name"].split(",")[0] for c in report["checks"] if not c["pass"]]
    # The members' linear extensions then outnumber n per toric extension.
    assert failed == ["toric decomposition", "specialization counts"]


def test_fundamental_lemma_checks_the_public_toric_extensions(monkeypatch):
    toric_extensions = verify.toric_extensions

    def one_short(d):
        words = toric_extensions(d)
        return words[:-1] if len(d.vertices) > 2 else words

    monkeypatch.setattr(verify, "toric_extensions", one_short)
    report = verify.run_suite("fundamental-lemma", max_n=3, max_m=1)
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
        sets, rows = matrix(n)
        if n == 4:
            rows[-1][-1] = 0
        return sets, rows

    monkeypatch.setattr(verify, "_kcyc_triangular_matrix", zero_last_diagonal)
    report = verify.run_suite("triangularity", max_n=4)
    failed = [(c["name"], c["detail"]) for c in report["checks"] if not c["pass"]]
    assert failed == [("triangularity and rank n=4", "bad entry at (1, 1)")]


def test_triangularity_alone_catches_dependent_rows(monkeypatch):
    # No rank is computed: a repeated Kcyc row shows as a nonzero entry
    # below the diagonal.
    matrix = verify._kcyc_triangular_matrix

    def repeat_first_row(n):
        sets, rows = matrix(n)
        if n == 6:
            rows[1] = list(rows[0])
        return sets, rows

    monkeypatch.setattr(verify, "_kcyc_triangular_matrix", repeat_first_row)
    report = verify.run_suite("triangularity", max_n=6)
    failed = [(c["name"], c["detail"]) for c in report["checks"] if not c["pass"]]
    assert failed == [("triangularity and rank n=6", "bad entry at (1, 0)")]


def test_small_degree_bounds_draw_no_random_dags():
    assert verify.random_dags(5, max_n=1) == []
    assert verify.random_dags(5, max_n=0) == []
    for suite, max_n in [("fundamental-lemma", 1), ("all", 0)]:
        assert verify.run_suite(suite, max_n=max_n, max_m=1)["pass"]


@pytest.mark.parametrize(
    "name, kwargs, named",
    [
        ("order-poly", {"max_n": 2, "max_m": 1, "series_m": 2}, "series_m"),
        ("table1", {"bogus": 1}, "bogus"),
    ],
)
def test_run_suite_refuses_sizes_no_user_sets(name, kwargs, named):
    with pytest.raises(TypeError, match=f"^run_suite takes only max_n and max_m, not {named}$"):
        verify.run_suite(name, **kwargs)


def test_a_suite_ignores_the_size_it_has_no_use_for(capsys):
    assert verify.run_suite("table1", max_n=3)["pass"]
    assert cli.main(["verify", "table1", "--n", "3"]) == 0
    assert capsys.readouterr().out.endswith("OK\n")


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


def test_toric_memo_matches_toric_class_on_every_small_dag():
    # The memo builds a class once and records it for every member, so
    # only this test builds the class of every DAG on at most 4 vertices.
    for d in verify.small_dags(4):
        tc, memo = toric_class(d), verify._toric_of(d)
        assert d in memo.members
        assert memo.canonical == tc.canonical
        assert memo.members == tc.members


def test_shuffle_products_are_memoised_per_pair_of_peak_sets():
    verify._k_peak_product.cache_clear()
    assert verify.run_suite("shuffle", max_n=4)["pass"]
    # (a, b, Pk pi, Pk sigma) over a + b <= 4: peak sets are empty below 3
    # letters and {2} or empty at 3.
    assert verify._k_peak_product.cache_info().currsize == 8


def test_small_dags_lists_each_labelled_dag_once_in_order():
    dags = verify.small_dags(4)
    # The labelled DAG counts, OEIS A003024.
    assert [sum(len(d.vertices) == n for d in dags) for n in range(1, 5)] == [1, 3, 25, 543]
    assert len(set(dags)) == len(dags)
    assert dags == sorted(dags, key=lambda d: (len(d.vertices), sorted(d.arcs)))
    drawn = set(verify.random_dags(200, 4))
    assert len(drawn) == 77
    assert drawn <= set(dags)


def test_random_dags_draw_as_from_word_tournaments():
    # The reference draw reads the arcs of one checked chain DAG per draw.
    # The arc set's order fixes which arc each random number decides, so
    # the lists must match in order.
    rng = random.Random(0)
    old = []
    for _ in range(200):
        n = rng.randint(2, 4)
        w = list(range(1, n + 1))
        rng.shuffle(w)
        arcs = [a for a in Dag.from_word(w).arcs if rng.random() < 0.5]
        old.append(Dag.make(range(1, n + 1), arcs))
    assert verify.random_dags(200, 4) == old


def test_a_repeated_dag_fails_once_per_draw(monkeypatch):
    draws = Counter(verify.random_dags(200, 4, 0))
    target, k = draws.most_common(1)[0]
    assert k > 1
    delta_dag = verify.delta_dag

    def wrong_on_target(d):
        delta = delta_dag(d)
        return delta.scale(2) if d == target else delta

    monkeypatch.setattr(verify, "delta_dag", wrong_on_target)
    report = verify.run_suite("fundamental-lemma", max_m=1)
    linear = report["checks"][0]
    assert linear["name"].startswith("linear decomposition, 772 DAGs")
    # Once from small_dags, once per random draw; each time against the
    # lemma's oracle and against the brute-force weights at m = 1.
    assert linear["detail"] == f"{2 * (k + 1)} failures"


@pytest.mark.parametrize(
    "d",
    [
        Dag.make([], []),
        Dag.make([5], []),
        Dag.make([3, 7, 10], [(10, 3), (3, 7)]),
    ],
)
def test_enriched_sets_are_keyed_by_values_in_label_order(d):
    for m in (1, 2):
        rows = enriched.enumerate_enriched(d, m)
        keys = verify._enriched_set(d, m)
        assert keys == {tuple(f[v] for v in sorted(d.vertices)) for f in rows}
        weights: Counter = Counter()
        for f in rows:
            expo = [0] * m
            for v in f.values():
                expo[abs(v) - 1] += 1
            weights[tuple(expo)] += 1
        assert verify._weight_poly(keys, m) == dict(weights)
