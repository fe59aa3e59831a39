"""Self-tests of the benchmark: tiny smoke runs and failure counting.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--size", "tiny", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())
    assert "error_rate=0" in proc.stdout.split()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_fit_in_traced_wall(workload):
    wl = workloads.build(workload, 0, "tiny")
    tr = tracer.Tracer()
    tr.install()
    try:
        result = child.run_ops(wl, child.load_expected(workload, "tiny", 0), tr)
    finally:
        tr.uninstall()
    layers = tr.metrics()
    assert result["failed"] == 0
    assert 0 < sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS) <= result["wall_s"]


def test_benchmark_json_lists_the_tracer_metrics():
    listed = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    assert listed == tracer.per_layer_metrics()


def test_tracer_restores_the_library():
    import toricpeaks
    from toricpeaks import enriched, qsym, verify

    before = (toricpeaks.kcyc, enriched.kcyc, qsym.QSym.__mul__, dict(verify.SUITES))
    tr = tracer.Tracer()
    tr.install()
    assert enriched.kcyc is not before[1] and toricpeaks.kcyc is enriched.kcyc
    tr.uninstall()
    assert (toricpeaks.kcyc, enriched.kcyc, qsym.QSym.__mul__, dict(verify.SUITES)) == before


def test_corrupted_digest_counts_as_failure():
    wl = workloads.build("cyclic", 0, "tiny")
    expected = list(child.load_expected("cyclic", "tiny", 0))
    assert len(expected) == len(wl.ops)
    expected[1] = "0" * 16
    result = child.run_ops(wl, expected)
    assert result["attempted"] == len(wl.ops)
    assert result["failed"] == 1
    assert result["errors"][0].startswith("op 1 ") and "digest" in result["errors"][0]


def test_failed_check_and_raising_op_are_counted():
    wl = workloads.build("dag", 0, "tiny")
    wl.ops[0] = dataclasses.replace(wl.ops[0], check=lambda out: (1, 1))
    wl.ops[1] = dataclasses.replace(wl.ops[1], run=lambda: 1 // 0)
    result = child.run_ops(wl, None)
    assert result["attempted"] == len(wl.ops)
    assert result["failed"] == 2
    assert len(result["latencies_s"]) == len(wl.ops)


def test_host_slowdown_scales_out():
    import run

    def rep(factor):
        return {
            "reference_s": [factor * run.REFERENCE_S] * 3,
            "totals_s": [factor * 0.1, factor * 0.3],
            "latencies_s": [factor * 0.05, factor * 0.2],
            "setup_s": factor * 0.02,
            "peak_rss_mb": 20.0,
        }

    usual = run.end_to_end([rep(1.0)] * 3)
    mixed = run.end_to_end([rep(1.0), rep(1.5), rep(1.8)])
    assert usual == pytest.approx(mixed)
    assert usual["wall_s"] == pytest.approx(0.4)


def test_same_seed_same_inputs():
    def digests(seed):
        return child.run_ops(workloads.build("dag", seed, "tiny"), None)["digests"]

    assert digests(3) == digests(3) != digests(4)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
