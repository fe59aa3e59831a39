"""One repetition of a workload, in a fresh interpreter.

Times set-up (importing toricpeaks and generating the inputs from the
seed), then runs the workload's ops once, checking each output, and prints
one JSON object as its last line of standard output. With ``--trace 1``
the library is traced and the per-layer metrics are added.

    python3 perfbench/child.py --workload cyclic --seed 0 [--trace 1]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected_digests.json"
SPANS_DIR = ROOT / ".perfbench_out"
# Digests were recorded from the seed commit for this seed only.
DIGEST_SEED = 0
# Op time between two reference chunks.
REFERENCE_EVERY_S = 0.1


def reference_chunk() -> float:
    """Time a fixed piece of plain-Python work that does not touch the library.

    The host's speed drifts by up to half for a minute or more at a time,
    and on a run of the same ops the time of these chunks follows the
    library's time closely (correlation 0.94 over 63 repetitions of
    ``dag`` on a 2-vCPU x86-64 host). ``run.py`` divides each repetition's times by its chunks'
    speed. The work stays in cache and makes no reference cycles, and the
    collector is off while it runs, so the library's heap does not change
    its cost.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    counts: dict[frozenset[int], int] = {}
    x = 12345
    for _ in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = frozenset((x % 13, (x >> 4) % 13, (x >> 8) % 13))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items(), key=lambda kv: (kv[1], sorted(kv[0])))
    elapsed = time.perf_counter() - t0
    if was_enabled:
        gc.enable()
    return elapsed


def run_ops(wl, expected: list[str] | None, tracer=None) -> dict:
    """Run every op once; a raising op or a failed check counts, never aborts.

    ``latencies_s`` holds each op's call time and ``totals_s`` the call
    plus its output check. ``reference_s`` holds the times of the
    reference chunks run before the first op, after the last, and between
    ops every ``REFERENCE_EVERY_S`` of op time.
    """
    import oracles

    latencies, totals, digests, errors = [], [], [], []
    reference = [reference_chunk()]
    attempted = failed = 0
    start = last_chunk = time.perf_counter()
    for i, op in enumerate(wl.ops):
        if time.perf_counter() - last_chunk >= REFERENCE_EVERY_S:
            reference.append(reference_chunk())
            last_chunk = time.perf_counter()
        with tracer.span(f"op.{op.kind}") if tracer else contextlib.nullcontext():
            note = None
            t0 = time.perf_counter()
            try:
                out = op.run()
                latencies.append(time.perf_counter() - t0)
                tried, bad = op.check(out)
                digests.append(oracles.digest(op.canon(out)))
            except Exception:
                if len(latencies) == i:
                    latencies.append(time.perf_counter() - t0)
                digests.append(None)
                tried, bad = 1, 1
                note = traceback.format_exc(limit=3)
            if bad and note is None:
                note = "output check failed"
            if expected is not None and (i >= len(expected) or digests[-1] != expected[i]):
                bad = max(bad, 1)
                note = note or "output digest differs from the seed commit's"
            totals.append(time.perf_counter() - t0)
        if note:
            errors.append(f"op {i} ({op.kind}): {note}")
        attempted += tried
        failed += bad
    wall = time.perf_counter() - start
    reference.append(reference_chunk())
    return {
        "wall_s": wall,
        "latencies_s": latencies,
        "totals_s": totals,
        "reference_s": reference,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digests": digests,
    }


def load_expected(workload: str, size: str, seed: int) -> list[str] | None:
    if seed != DIGEST_SEED:
        return None
    return json.loads(EXPECTED.read_text()).get(f"{workload}/{size}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--record", action="store_true",
        help="store this run's output digests as the expected ones (seed 0 only)",
    )
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.build(args.workload, args.seed, args.size)
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        import tracer as tracemod

        tracer = tracemod.Tracer()
        tracer.install()
    expected = None if args.record else load_expected(args.workload, args.size, args.seed)
    result = run_ops(wl, expected, tracer)
    if tracer:
        tracer.uninstall()
        layers = tracer.metrics()
        layers["cli.stdout_bytes"] = wl.cli_bytes
        result["layers"] = layers
        tracer.dump(SPANS_DIR / f"spans-{args.workload}")
    result["setup_s"] = setup_s
    result["ops"] = len(wl.ops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["pid"] = os.getpid()

    if args.record:
        if args.seed != DIGEST_SEED or result["failed"]:
            print("refusing to record: seed must be 0 and every check must pass", file=sys.stderr)
            return 1
        table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        table[f"{args.workload}/{args.size}"] = result["digests"]
        EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    del result["digests"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
