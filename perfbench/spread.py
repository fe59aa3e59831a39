"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 10 [--out FILE]

Runs ``run.py`` once per seed (0, 1, ...) and workload of
``BENCHMARK.json``, one run at a time, and prints for each metric the
median, the quartiles (``statistics.quantiles(n=4)``) and the
interquartile distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``. ``--out`` also makes one traced
run per workload and writes all the figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            res = one_run(workload, seed, args.seconds)
            if not res["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {res['failed']} failed ops")
            runs.append({k: v["value"] for k, v in res["metrics"].items()})
        report[workload] = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            report[workload][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            print(
                f"{workload:7s} {name:12s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                f"spread={spread:.4f} bound={bound}{flag}",
                flush=True,
            )
    if args.out:
        traced = {
            w: {k: v["value"] for k, v in one_run(w, 0, args.seconds, 1)["metrics"].items()}
            for w in workloads
        }
        meta = {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "seeds": list(seeds),
            "run_seconds": args.seconds,
        }
        figures = {"meta": meta, "end_to_end": report, "per_layer": traced}
        args.out.write_text(json.dumps(figures, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
