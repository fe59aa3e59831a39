import contextlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from toricpeaks import cli, enriched, permstat
from toricpeaks.cli import main
from toricpeaks.dag import Dag, toric_class
from toricpeaks.enriched import enumerate_enriched, enumerate_enriched_toric
from toricpeaks.qsym import CQSym

D3_JSON = Dag.make(
    [1, 2, 3, 4], [(2, 1), (2, 4), (2, 3), (4, 1), (4, 3)]
).to_json()


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_stats_output(capsys):
    code, out = run(capsys, "stats", "3124")
    assert code == 0
    data = json.loads(out)
    assert data["des"] == [1]
    assert data["cdes"] == [1, 4]
    assert data["peak"] == []
    assert data["cpeak"] == [4]


def test_stats_comma_words(capsys):
    code, out = run(capsys, "stats", "10,2,3")
    assert code == 0
    assert json.loads(out)["word"] == [10, 2, 3]


def test_stats_parse_error():
    with pytest.raises(SystemExit):
        main(["stats", "1a2"])


def test_expand_fcyc_monomial_basis(capsys):
    code, out = run(capsys, "expand", "Fcyc", "4", "1,3", "--basis", "M")
    assert code == 0
    terms = {tuple(t["set"]): t["coeff"] for t in json.loads(out)["terms"]}
    assert terms == {(2,): 2, (1, 2): 2, (1, 3): 2, (2, 3): 2, (1, 2, 3): 4}


@pytest.mark.parametrize(
    "argv",
    [
        ("Kcyc", "4", "1,3"),
        ("Mcyc", "4", "1,3"),
        ("Fcyc", "4", "1,3"),
        ("delta-cyc", "--dag", D3_JSON),
    ],
)
@pytest.mark.parametrize("basis", ["M", "F"])
def test_expand_cyclic_kinds_honour_basis(capsys, argv, basis):
    _, cyclic = run(capsys, "expand", *argv, "--basis", "Mcyc")
    code, out = run(capsys, "expand", *argv, "--basis", basis)
    assert code == 0
    assert out == CQSym.from_json(cyclic).as_qsym().to_json(basis) + "\n"


def test_expand_default_basis_per_kind(capsys):
    for kind, basis in [("M", "M"), ("K", "M"), ("Fcyc", "M"), ("Mcyc", "Mcyc"), ("Kcyc", "Mcyc")]:
        _, out = run(capsys, "expand", kind, "4", "3" if kind == "K" else "1,3")
        assert json.loads(out)["basis"] == basis


def test_expand_linear_kind_has_no_cyclic_basis():
    proc = run_subprocess("expand", "K", "4", "3", "--basis", "Mcyc")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == ["unknown basis 'Mcyc'"]


def test_expand_single_monomial(capsys):
    code, out = run(capsys, "expand", "M", "4", "1,3")
    assert json.loads(out)["terms"] == [{"coeff": 1, "set": [1, 3]}]


def test_expand_delta_cyc_from_dag(capsys):
    code, out = run(capsys, "expand", "delta-cyc", "--dag", D3_JSON)
    assert code == 0
    terms = {tuple(t["set"]): t["coeff"] for t in json.loads(out)["terms"]}
    assert terms == {
        (1,): 4,
        (1, 2): 20,
        (1, 3): 16,
        (1, 2, 3): 64,
        (1, 2, 3, 4): 32,
    }


def test_expand_rejects_invalid_peak_set():
    with pytest.raises(SystemExit):
        main(["expand", "Kcyc", "4", "1,2"])


def test_expand_k_in_the_f_basis_is_stembridges_expansion(capsys, monkeypatch):
    # The F rows come from the peak set alone, byte for byte the rows of K_S
    # built in the M basis and converted.
    expected = {}
    for n in range(11):
        for k in range(n + 1):
            for S in itertools.combinations(range(1, n + 1), k):
                if permstat.is_peak_set(frozenset(S), n):
                    expected[n, S] = enriched.k_peak(S, n).to_json("F") + "\n"
    monkeypatch.setattr(enriched, "_delta_from_peaks", lambda n, c: pytest.fail("M terms built"))
    for (n, S), text in expected.items():
        assert run(capsys, "expand", "K", str(n), ",".join(map(str, S)) or "-", "--basis", "F") == (0, text)
    with pytest.raises(SystemExit, match=r"\[2, 3\] is not a peak set in \[5\]"):
        main(["expand", "K", "5", "2,3", "--basis", "F"])
    # The cap still runs first: 2^21 F terms are refused before any is built.
    monkeypatch.setattr(enriched, "_fundamental_from_peaks", lambda n, p: pytest.fail("F terms built"))
    with pytest.raises(SystemExit, match="may produce more than 1000000 terms"):
        main(["expand", "K", "22", "-", "--basis", "F"])


def run_subprocess(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "toricpeaks.cli", *argv],
        capture_output=True, text=True, env=env,
    )


def test_expand_without_degree_is_one_line_error():
    proc = run_subprocess("expand", "M")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == ["expand M needs a degree n"]


@pytest.mark.parametrize(
    "argv",
    [
        ("extensions", "toric", "--dag", "[1]"),
        ("extensions", "toric", "--dag", '{"vertices":["a","b"],"arcs":[["a","b"]]}'),
        ("extensions", "linear", "--dag", '{"vertices":[1,2],"arcs":[[[1],2]]}'),
        ("enumerate", "enriched", "--word", "12", "--m", "-1"),
        ("enumerate", "markings", "--word", "12", "--m", "-1"),
        ("order-poly", "12", "--m", "-1"),
        ("series", "12", "--order", "-1"),
        ("verify", "order-poly", "--n", "-1"),
        ("stats", ""),
        ("order-poly", ""),
        ("enumerate", "markings", "--word", "", "--m", "2"),
        ("series", ""),
        ("extensions", "toric", "--dag", '{"vertices":[],"arcs":[]}'),
        ("extensions", "toric", "--dag", '{"vertices":[0,1],"arcs":[[0,1]]}'),
        ("extensions", "linear", "--dag", '{"vertices":[1,2],"arcs":[[true,2]]}'),
        ("extensions", "linear", "--dag", '{"vertices":[1,2],"arcs":[[2,1.0]]}'),
        ("extensions", "linear", "--dag", '{"vertices":[1,2]}'),
        ("extensions", "linear", "--dag", '{"vertices":[1,2],"arcs":[5]}'),
        ("extensions", "linear", "--dag", '{"vertices":[1,2],"arcs":[[1,2,3]]}'),
        ("extensions", "linear", "--dag", '{"vertices":[1,2],"arcs":[[1]]}'),
        ("extensions", "linear", "--dag", '{"vertices":5,"arcs":[]}'),
        ("extensions", "linear", "--dag", '{"vertices":[1,2],"arcs":{"1":2}}'),
        ("extensions", "linear", "--dag", '{"vertices":[1,1,2],"arcs":[[1,2],[1,2]]}'),
        ("extensions", "linear", "--dag", '{"vertices":[1,2],"arcs":[[1,2],[1,2]]}'),
        ("extensions", "linear", "--dag", '{"vertices":[1,2],"arcs":[]}', "--word", "21"),
        ("enumerate", "markings", "--word", "21", "--dag", "x", "--m", "2"),
        ("expand", "M", "3", "1", "--word", "12"),
        ("expand", "M", "3", "x"),
        ("expand", "M", "3", "1,1"),
        ("expand", "delta", "3", "7", "--word", "12"),
        ("expand", "delta-cyc", "3", "--word", "12"),
        ("extensions", "linear"),
        ("extensions", "linear", "--dag", ""),
    ],
)
def test_bad_input_is_one_line_error(argv):
    proc = run_subprocess(*argv)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "F", "21", "-"),
        ("expand", "K", "24", "-"),
        ("expand", "M", "40", "1", "--basis", "F"),
        ("expand", "Kcyc", "30", "1"),
        ("expand", "Fcyc", "28", "1", "--basis", "M"),
        ("expand", "F", str(10**9), "-"),
    ],
)
def test_expand_refuses_a_huge_output_in_one_line(monkeypatch, argv):
    proc = run_subprocess(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    kind, n = argv[1], argv[2]
    assert proc.stderr.strip().splitlines() == [
        f"expand {kind} of degree {n} may produce more than 1000000 terms, the limit"
    ]
    # The refusal comes before the element is built.
    monkeypatch.setitem(cli.BUILDERS, kind, lambda n, S: pytest.fail("the element was built"))
    with pytest.raises(SystemExit, match="may produce more than 1000000 terms"):
        main(list(argv))


def test_expand_below_the_limit_still_answers(capsys):
    code, out = run(capsys, "expand", "M", "40", "1")
    assert code == 0
    assert json.loads(out)["terms"] == [{"coeff": 1, "set": [1]}]
    # 2^19 = 524,288 terms, the most an F or K expansion of nothing may have.
    for kind in ("F", "K"):
        assert cli._expand_terms(kind, 20, frozenset(), "M") == 2**19
        assert cli._expand_terms(kind, 21, frozenset(), "M") == 2**20


def test_expand_term_count_is_exact_or_a_bound():
    # Exact for M, F and K, an upper bound for the cyclic kinds.
    for n in range(8):
        for k in range(n + 1):
            for S in itertools.combinations(range(1, n + 1), k):
                S = frozenset(S)
                for kind, build in cli.BUILDERS.items():
                    try:
                        elem = build(n, S)
                    except ValueError:
                        continue
                    for basis in ("M", "F", "Mcyc"):
                        if basis == "Mcyc":
                            if not isinstance(elem, CQSym):
                                continue
                            masks = elem.masks
                        else:
                            q = elem.as_qsym() if isinstance(elem, CQSym) else elem
                            masks = q.masks if basis == "M" else q._fundamental_masks()
                        count = len(masks)
                        bound = cli._expand_terms(kind, n, S, basis)
                        if kind in ("M", "F", "K") and n:
                            assert count == bound, (kind, n, S, basis)
                        else:
                            assert count <= bound, (kind, n, S, basis)


def test_empty_dag_word_is_named():
    with pytest.raises(SystemExit, match="^cannot parse word '': the word is empty$"):
        main(["extensions", "linear", "--word", ""])


def test_enumerate_enriched_refuses_a_huge_listing():
    antichain = Dag.make(range(1, 13), []).to_json()
    proc = run_subprocess("enumerate", "enriched", "--dag", antichain, "--m", "3")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "enumerate enriched would produce more than 1000000 assignments, the limit"
    ]


@pytest.mark.parametrize("toric", [[], ["--toric"]])
def test_enumerate_enriched_refuses_a_huge_m_before_listing(monkeypatch, toric):
    # 1 <= n < 2m gives at least 2m rows, so the refusal builds no table of
    # the 2m values and starts no listing; one that did would need GBs.
    def no_listing(d, m):
        raise AssertionError("a listing was started")

    monkeypatch.setattr(enriched, "iter_enriched", no_listing)
    argv = ["enumerate", "enriched", "--word", "12", "--m", str(10**9), *toric]
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit, match="^enumerate enriched would produce more than"):
            main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("toric", [[], ["--toric"]])
def test_enumerate_enriched_refuses_below_the_candidate_count(monkeypatch, toric):
    # A 7-letter word at m = 20 has at least C(40, 7) = 18,643,560 rows,
    # though its 40^7 candidates need no huge m, so no listing is started.
    def no_listing(d, m):
        raise AssertionError("a listing was started")

    monkeypatch.setattr(enriched, "iter_enriched", no_listing)
    argv = ["enumerate", "enriched", "--word", "1234567", "--m", "20", *toric]
    with pytest.raises(SystemExit, match="^enumerate enriched would produce more than"):
        main(argv)


@pytest.mark.parametrize("toric", [[], ["--toric"]])
def test_enumerate_enriched_lists_a_wide_antichain(capsys, toric):
    # 2^12 rows: within the limit, so listed whatever the (2m)^n candidates.
    antichain = Dag.make(range(1, 13), []).to_json()
    _, out = run(capsys, "enumerate", "enriched", "--dag", antichain, "--m", "1", *toric)
    assert json.loads(out)["count"] == 4096


def test_enumerate_enriched_toric_counts_before_listing(monkeypatch, capsys):
    # The five members of D3's toric class have 4 enriched partitions in all
    # at m = 1 and 80 at m = 2.
    monkeypatch.setattr(cli, "MAX_ENUMERATED", 4)
    _, out = run(capsys, "enumerate", "enriched", "--dag", D3_JSON, "--m", "1", "--toric")
    assert json.loads(out)["count"] == 4
    with pytest.raises(SystemExit, match="would produce more than 4 assignments"):
        main(["enumerate", "enriched", "--dag", D3_JSON, "--m", "2", "--toric"])


def test_enumerate_enriched_toric_drops_a_pendant_arc(monkeypatch, capsys):
    # A triangle with a pendant arc 3 -> 4, a bridge: the listing and its
    # refusal count walk the class without it, and both stay exact.
    d = Dag.make([1, 2, 3, 4], [(1, 2), (2, 3), (1, 3), (3, 4)])
    rows = [{str(k): v for k, v in f.items()} for f in enumerate_enriched_toric(toric_class(d), 1)]
    argv = ["enumerate", "enriched", "--dag", d.to_json(), "--m", "1", "--toric"]
    monkeypatch.setattr(cli, "MAX_ENUMERATED", len(rows))
    assert json.loads(run(capsys, *argv)[1])["assignments"] == rows
    monkeypatch.setattr(cli, "MAX_ENUMERATED", len(rows) - 1)
    with pytest.raises(SystemExit, match=f"would produce more than {len(rows) - 1} assignments"):
        main(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "enriched", "--dag", Dag.make(range(1, 9), []).to_json(), "--m", "2", "--ndjson"),
        ("enumerate", "enriched", "--dag", Dag.make(range(1, 9), []).to_json(), "--m", "2"),
        ("order-poly", "1", "--m", "3000"),
    ],
)
def test_closed_pipe_exits_quietly(argv):
    # A reader that stops early, as ``| head -n 1`` does: exit 1, no traceback.
    src = str(Path(__file__).resolve().parents[1] / "src")
    with subprocess.Popen(
        [sys.executable, "-m", "toricpeaks.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    ) as proc:
        proc.stdout.readline(4096)  # the JSON listing is one long line
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert err == b""


def test_missing_dag_file_is_named(tmp_path):
    missing = str(tmp_path / "nosuch.json")
    with pytest.raises(SystemExit, match="no such file, and not inline JSON"):
        main(["extensions", "toric", "--dag", missing])


def test_unreadable_dag_file_is_one_line_error(tmp_path):
    binary = tmp_path / "dag.bin"
    binary.write_bytes(b"\xff\xfe")
    for path in (binary, tmp_path):
        proc = run_subprocess("extensions", "linear", "--dag", str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1


def test_dag_text_is_a_file_first_then_inline_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "{d3}").write_text(D3_JSON)
    _, out = run(capsys, "extensions", "linear", "--dag", "{d3}")
    assert out.strip()
    with pytest.raises(SystemExit, match="expected a JSON object with vertices and arcs$"):
        main(["extensions", "linear", "--dag", "[]"])


def test_zero_bounds_stay_valid(capsys):
    _, out = run(capsys, "order-poly", "12", "--m", "0")
    assert out.splitlines() == ["m\tomega\tomega_cyc", "0\t0\t0"]
    _, out = run(capsys, "series", "12", "--order", "0")
    assert json.loads(out)["omega"] == [0]
    _, out = run(capsys, "enumerate", "enriched", "--word", "12", "--m", "0")
    assert json.loads(out) == {"assignments": [], "count": 0}


def test_extensions_linear_and_toric(capsys):
    _, out = run(capsys, "extensions", "linear", "--dag", D3_JSON)
    assert json.loads(out)["extensions"] == [[2, 4, 1, 3], [2, 4, 3, 1]]
    _, out = run(capsys, "extensions", "toric", "--dag", D3_JSON)
    assert json.loads(out)["extensions"] == [[1, 2, 4, 3], [1, 3, 2, 4]]


def test_enumerate_enriched_ndjson(capsys):
    code, out = run(capsys, "enumerate", "enriched", "--word", "12", "--m", "1", "--ndjson")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 2
    assert all(set(row["f"]) == {"1", "2"} for row in lines)


def test_reused_parser_leaks_no_flag(capsys):
    # One parser serves every call in a process; --toric on one call must
    # not carry into the next. At m = 2 D3's class has 80 partitions, D3 16.
    _, toric = run(capsys, "enumerate", "enriched", "--dag", D3_JSON, "--m", "2", "--toric")
    _, linear = run(capsys, "enumerate", "enriched", "--dag", D3_JSON, "--m", "2")
    assert json.loads(toric)["count"] == 80
    assert json.loads(linear)["count"] == 16
    assert json.loads(linear)["assignments"] == [
        {str(k): v for k, v in f.items()} for f in enumerate_enriched(Dag.from_json(D3_JSON), 2)
    ]
    assert cli.build_parser() is cli.build_parser()


def test_parser_is_not_built_at_import():
    # Importing the CLI stays as cheap as before; the first main call builds.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import toricpeaks.cli as c; print(c.build_parser.cache_info().currsize)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout == "0\n"


def test_cli_import_loads_no_dataclasses_fractions_or_inspect():
    # These three cost a third of a short CLI call's start-up; a module that
    # the interpreter's site set-up loaded already is not counted.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; before = set(sys.modules); import toricpeaks.cli; "
        "print(sorted({'dataclasses', 'fractions', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert (proc.stdout, proc.stderr) == ("[]\n", "")


def test_enumerate_markings(capsys):
    _, out = run(capsys, "enumerate", "markings", "--word", "1324", "--m", "2")
    data = json.loads(out)
    assert data["count"] == len(data["markings"]) > 0


def test_enumerate_markings_counts_before_listing(monkeypatch, capsys):
    # 1324 has 6 markings at m = 3 and 20 at m = 4.
    monkeypatch.setattr(cli, "MAX_ENUMERATED", 6)
    _, out = run(capsys, "enumerate", "markings", "--word", "1324", "--m", "3")
    assert json.loads(out)["count"] == 6
    with pytest.raises(SystemExit, match="would produce more than 6 markings"):
        main(["enumerate", "markings", "--word", "1324", "--m", "4"])


def test_enumerate_markings_names_a_missing_word():
    with pytest.raises(SystemExit, match="^enumerate markings needs --word$"):
        main(["enumerate", "markings", "--m", "2"])


def test_order_poly_tsv(capsys):
    _, out = run(capsys, "order-poly", "1", "--m", "3")
    lines = out.strip().splitlines()
    assert lines[0] == "m\tomega\tomega_cyc"
    assert lines[2] == "1\t2\t2"


def test_series_json(capsys):
    _, out = run(capsys, "series", "1", "--order", "4")
    assert json.loads(out)["omega"] == [0, 2, 4, 6, 8]


def test_series_refuses_more_coefficients_than_the_limit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_ENUMERATED", 8)
    _, out = run(capsys, "series", "12", "--order", "7")
    assert len(json.loads(out)["omega"]) == 8
    with pytest.raises(
        SystemExit, match="^series would produce more than 8 coefficients, the limit$"
    ):
        main(["series", "12", "--order", "8"])


def test_series_refuses_a_huge_order_in_one_line():
    # Each coefficient costs about 285 bytes, so 10^9 of them would not fit
    # in memory.
    proc = run_subprocess("series", "12", "--order", str(10**9))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "series would produce more than 1000000 coefficients, the limit"
    ]


def test_table_matches_expand(capsys):
    _, out = run(capsys, "table")
    rows = json.loads(out)["rows"]
    assert len(rows) == 5
    assert rows[0]["composition"] == [4]


def test_verify_exit_codes(capsys):
    assert main(["verify", "table1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and out.strip().endswith("OK")
    assert main(["verify", "cyclic-f", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and out.strip().endswith("OK")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code.startswith("unknown suite 'no-such-suite'; choose from [")


@pytest.mark.parametrize("suite, kind", [("closure", "witness"), ("shuffle", "shuffle")])
def test_verify_n_bounds_the_product_degree(capsys, suite, kind):
    # At the default degree 6 these suites check 21 and 465 products.
    _, out = run(capsys, "verify", suite, "--n", "2")
    assert out.splitlines()[0] == f"PASS  {suite}: 1 {kind} products, degrees <= 2"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["shuffle", "--n", "1"], "EMPTY  shuffle: 0 shuffle products, degrees <= 1"),
        (["enumerator", "--n", "0"], "EMPTY  enumerator: delta oracles all words n<=0"),
        (["triangularity", "--n", "1"], "EMPTY  triangularity: triangularity and rank n<=1"),
        (["cyclic-f", "--m", "0"], "EMPTY  cyclic-f: pair oracle m<=0"),
        (
            ["enumerator", "--m", "0"],
            "EMPTY  enumerator: delta-cyc brute-force weights m<=0",
        ),
    ],
)
def test_verify_marks_a_check_over_no_instance_empty(capsys, argv, line):
    # The report still passes, so the exit code is 0.
    code, out = run(capsys, "verify", *argv)
    assert code == 0
    assert line in out.splitlines()
    assert out.splitlines()[-1] == "OK"


def test_deterministic_output(capsys):
    _, first = run(capsys, "expand", "Kcyc", "5", "1,3")
    _, second = run(capsys, "expand", "Kcyc", "5", "1,3")
    assert first == second


# Recorded stdout and exit code of CLI commands covering every expand kind
# with and without --basis; a refactor must keep them byte-identical.
GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN, ids=[f"{i:02d}-{'-'.join(c['argv'][:2])}" for i, c in enumerate(GOLDEN)]
)
def test_golden_cli_output(capsys, case):
    code, out = run(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])


LISTINGS = {
    f"{i:02d}": case
    for i, case in enumerate(GOLDEN)
    if case["argv"][:2] == ["enumerate", "enriched"]
}


@pytest.mark.parametrize("case", LISTINGS.values(), ids=LISTINGS.keys())
def test_enumerate_enriched_streams(monkeypatch, capsys, case):
    # Every listing, --ndjson or not, --toric or not, comes from the row
    # streams alone; the list-building functions are never called.
    def refuse(*_):
        raise AssertionError("the listing built a list of assignments")

    monkeypatch.setattr(enriched, "enumerate_enriched", refuse)
    monkeypatch.setattr(enriched, "enumerate_enriched_toric", refuse)
    assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"])


def test_ndjson_listing_holds_no_rows():
    # A 15-vertex antichain at m = 1 has 2^15 = 32,768 enriched partitions,
    # few enough that no refusal count runs first. Held as a list they
    # take about 20 MB; streamed, the peak stays at a few rows.
    argv = ["enumerate", "enriched", "--dag", Dag.make(range(1, 16), []).to_json()]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        main(["enumerate", "enriched", "--word", "1", "--m", "0"])  # builds the parser
        tracemalloc.start()
        try:
            main([*argv, "--m", "1", "--ndjson"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 256 * 1024
