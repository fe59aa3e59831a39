"""The toricpeaks benchmark.

    python3 perfbench/run.py --workload cyclic --seed 0 --seconds 30 --trace 0

Runs repetitions of one workload, as many as take about ``--seconds``
seconds at the speed of the commit that added the benchmark, each in a
fresh child interpreter, one child at a time, and prints one JSON object as
the last line of standard output: ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. Each child also
times a fixed piece of plain-Python work between ops, and every time is
divided by how much slower than usual the host ran that repetition (see
``speed``): the host's speed drifts for minutes at a time, and this takes
the drift out. ``setup_s`` (import toricpeaks, generate the inputs) is the
median over the repetitions, and so is ``peak_rss_mb``. Each op's time is
its median over the repetitions: ``wall_s`` sums those times, op call plus
output check, over the workload's op list, and ``op_p50_ms`` and
``op_p90_ms`` are percentiles of the op call times.
With ``--trace 1`` untraced and traced repetitions alternate; the metrics
are the per-layer ones of the fastest traced repetition and its wall time,
plus the ratio of traced to untraced ``wall_s``. ``--workload all`` runs every
workload in turn and prints a summary line for each.

A line before the JSON summarises the run: its error rate (failed ops, for
``verify`` failed checks, over attempted ones), the median ``host_speed``
and the median unscaled wall time of a repetition.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("cyclic", "dag", "verify")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# Time of one reference chunk (``child.reference_chunk``) at the usual
# speed of the host the baseline was measured on (2-vCPU x86-64, CPython
# 3.11). Times are reported at that speed, so on that host they read as
# seconds and on any host two commits compare alike.
REFERENCE_S = 2.0e-3
# Seconds one untraced repetition of each workload takes at the commit that
# added the benchmark, child start-up included (2-vCPU x86-64 host,
# CPython 3.11, at its usual speed).
REP_COST_S = {"cyclic": 3.3, "dag": 2.7, "verify": 3.8}
MIN_REPS = 3
# No repetition starts after this long, so a run ends well inside 180 s
# even on a much slower host.
LAST_START_S = 100.0
CHILD_TIMEOUT_S = 150.0


def run_child(workload: str, seed: int, size: str, trace: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--trace", "1" if trace else "0",
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def repetitions(workload: str, seconds: float, trace: bool) -> int:
    """How many children a run starts: ``--seconds`` over the workload's cost.

    The count does not depend on how fast the library under test is, so
    the medians of two commits are taken over the same number of samples.
    """
    least = 2 * MIN_REPS if trace else MIN_REPS
    return max(least, round(seconds / REP_COST_S[workload]))


def repeat(workload: str, seed: int, seconds: float, size: str, trace: bool) -> list[dict]:
    """A fixed number of children, one after another.

    When tracing, odd repetitions are traced and even ones are not, so
    both halves see the same machine conditions.
    """
    reps: list[dict] = []
    start = time.perf_counter()
    for i in range(repetitions(workload, seconds, trace)):
        if i >= MIN_REPS and time.perf_counter() - start >= LAST_START_S:
            break
        traced = trace and i % 2 == 1
        rep = run_child(workload, seed, size, traced)
        rep["traced"] = traced
        reps.append(rep)
    return reps


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated inside the sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def speed(rep: dict) -> float:
    """How much slower than usual the host ran one repetition.

    It is the mean time of the repetition's reference chunks (see
    ``child.reference_chunk``) over ``REFERENCE_S``; 1.2 means the host ran
    20 % slower than usual.
    """
    return statistics.fmean(rep["reference_s"]) / REFERENCE_S


def typical(reps: list[dict], key: str) -> list[float]:
    """Each op's time at the host's usual speed: the median over the
    repetitions of its time divided by its repetition's ``speed``.

    Every repetition runs the same ops in the same order, so op i of one
    repetition is op i of any other. A slower library makes every try
    slower and leaves the reference chunks as they were.
    """
    return [
        statistics.median(t / speed(r) for t, r in zip(times, reps))
        for times in zip(*(r[key] for r in reps))
    ]


def end_to_end(reps: list[dict]) -> dict[str, float]:
    latencies = typical(reps, "latencies_s")
    return {
        "setup_s": statistics.median(r["setup_s"] / speed(r) for r in reps),
        "wall_s": sum(typical(reps, "totals_s")),
        "op_p50_ms": 1000 * quantile(latencies, 50),
        "op_p90_ms": 1000 * quantile(latencies, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(reps: list[dict]) -> dict[str, tuple[float, str]]:
    """Layer metrics of the fastest traced repetition.

    Taking them all from one repetition keeps the layers' self times a
    part of that repetition's wall time. The overhead ratio compares
    ``wall_s`` as ``end_to_end`` computes it over the traced and the
    untraced repetitions.
    """
    import tracer

    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    best = min(traced, key=lambda r: r["wall_s"])
    out = {}
    for name, unit, _ in tracer.per_layer_metrics():
        if name == "traced_wall_s":
            value = best["wall_s"]
        elif name == "trace_overhead_ratio":
            value = sum(typical(traced, "totals_s")) / sum(typical(untraced, "totals_s"))
        else:
            value = best["layers"][name]
        out[name] = (value, unit)
    return out


def measure(workload: str, seed: int, seconds: float, size: str, trace: bool) -> dict:
    reps = repeat(workload, seed, seconds, size, trace)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for err in r["errors"][:5]:
            print(f"{workload}: {err}", file=sys.stderr)
    if trace:
        metrics = per_layer(reps)
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in end_to_end(reps).items()}
    summary = " ".join(f"{k}={v:.6g}{u}" for k, (v, u) in metrics.items()) if not trace else ""
    raw_wall = statistics.median(sum(r["totals_s"]) for r in reps)
    print(
        f"{workload}: reps={len(reps)} ops/rep={reps[0]['ops']} attempted={attempted} "
        f"failed={failed} error_rate={failed / attempted:.6g} "
        f"host_speed={statistics.median(map(speed, reps)):.4g} raw_wall_s={raw_wall:.6g} "
        f"{summary}".rstrip()
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark toricpeaks on a seeded workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a seconds-long smoke run of the same ops at small sizes")
    args = p.parse_args(argv)

    if not (SRC / "toricpeaks" / "__init__.py").is_file():
        print(f"toricpeaks sources not found under {SRC}", file=sys.stderr)
        return 2
    # Compile once up front so no child pays bytecode compilation in set-up.
    for path in (SRC, HERE):
        compileall.compile_dir(str(path), quiet=1)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(w, args.seed, args.seconds, args.size, bool(args.trace)) for w in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
