"""The verify suites catch what they claim to check, and share their memos."""

from toricpeaks import verify
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
