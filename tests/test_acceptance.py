"""Acceptance gate: one test per criterion, exact integer checks only.

Each test prints a single pass/fail line (visible with pytest -s or on
failure) and asserts the full report of the corresponding suite.
"""

from toricpeaks.verify import run_suite


def _run(criterion: int, label: str, suite: str, **kwargs):
    report = run_suite(suite, **kwargs)
    status = "PASS" if report["pass"] else "FAIL"
    print(f"{status} criterion {criterion}: {label}")
    failures = [c for c in report["checks"] if not c["pass"]]
    assert report["pass"], failures


def test_criterion_01_degree4_cyclic_monomial_table():
    _run(1, "degree-4 cyclic monomial expansions", "table1")


def test_criterion_02_cyclic_fundamental_and_pair_oracle():
    _run(2, "Fcyc_{4,{1,3}} expansion and pair oracle m<=5", "cyclic-f", max_m=5)


def test_criterion_03_extensions_of_running_example():
    _run(3, "linear and toric extensions of the 4-vertex example", "extensions")


def test_criterion_04_cyclic_enumerator_two_ways():
    _run(4, "cyclic weight enumerator, two independent routes", "enumerator")


def test_criterion_05_fundamental_lemmas():
    _run(
        5,
        "disjoint-union decompositions, all DAGs on <=4 vertices",
        "fundamental-lemma",
        max_n=4,
        max_m=3,
    )


def test_criterion_06_order_polynomial_triple_agreement():
    _run(
        6,
        "order polynomials: formula = brute force = series",
        "order-poly",
        max_n=5,
        max_m=3,
    )


def test_criterion_07_marking_correspondence():
    _run(7, "marking correspondence on S_4 with 2^(2pk+1) fibers", "markings", max_m=3)


def test_criterion_08_triangularity_and_rank():
    _run(8, "cyclic peak function triangularity, n in 2..6", "triangularity", max_n=6)


def test_criterion_09_subring_closure():
    _run(9, "subring closure of cyclic peak functions, degrees <= 6", "closure", max_n=6)


def test_criterion_10_shuffle_identity():
    _run(10, "shuffle identity for peak functions, degrees <= 6", "shuffle", max_n=6)
