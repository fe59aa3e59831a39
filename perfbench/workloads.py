"""Seeded workloads: inputs are generated here, during set-up, and each op
calls the library's public API and then checks its own output.

Importing this module imports toricpeaks, so the child process times the
import together with input generation as its set-up.

An op returns its output; ``check`` turns that output into
``(attempted, failed)`` counts and ``canon`` into the canonical JSON text
whose digest is compared with the one recorded for seed 0. Library calls go
through module attributes (``enriched.kcyc``), so the tracer's patches are
seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from math import comb
from typing import Any, Callable

from toricpeaks import cli, enriched, orderpoly, qsym, verify
from toricpeaks import dag as dagmod

import oracles

WORKLOADS = ("cyclic", "dag", "verify")
SIZES = ("full", "tiny")


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[int, int]]
    canon: Callable[[Any], str]


@dataclass
class Workload:
    name: str
    ops: list[Op] = field(default_factory=list)
    cli_bytes: int = 0

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        """Run the command line in-process with stdout captured."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        self.cli_bytes += len(text.encode())
        return code, text


def one(ok: bool) -> tuple[int, int]:
    return 1, 0 if ok else 1


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{name}:{seed}")
    wl = Workload(name)
    {"cyclic": _cyclic, "dag": _dag, "verify": _verify}[name](wl, rng, size)
    return wl


# --- cyclic: Kcyc, cyclic bases, products and toric enumerators -------------

# Per-rep counts are fixed per degree so that the seed changes which keys
# are drawn, not how much work a rep does. Several are whole multiples of
# the number of keys of their degree, so each of those keys occurs equally
# often.
CYCLIC_PLAN = {
    "full": {
        "kcyc": {9: 9, 10: 14, 11: 9, 12: 6},
        "roundtrip": {8: 14, 9: 9, 10: 7},
        "product": [(4, 4), (3, 5), (5, 3), (2, 6), (4, 5), (5, 4), (3, 6), (6, 3), (2, 7),
                    (4, 6), (3, 7), (2, 8)],
        "peak_product": [(3, 4), (4, 3), (2, 5), (5, 2), (3, 3), (2, 4), (4, 2), (3, 2),
                         (2, 3), (2, 2), (3, 3), (2, 4)],
        "delta_toric": [5, 5, 5, 5, 6, 6, 6, 6],
    },
    "tiny": {
        "kcyc": {5: 2, 6: 2},
        "roundtrip": {5: 2},
        "product": [(3, 3)],
        "peak_product": [(2, 3)],
        "delta_toric": [4],
    },
}


def _cyclic(wl: Workload, rng: random.Random, size: str) -> None:
    plan = CYCLIC_PLAN[size]

    def sample(n: int, count: int) -> list[frozenset[int]]:
        """``count`` canonical cyclic peak sets of degree n, each key equally likely.

        A systematic sample from a random start, over the keys ordered by
        size and shuffled within a size. Every key has the same chance of
        being drawn, and every seed draws about as many keys of each size.
        That matters because cost falls with size: ``kcyc`` of a one-peak
        key at degree 12 takes twice as long as of a four-peak key.
        """
        keys = sorted(oracles.cyclic_peak_keys(n), key=lambda S: (len(S), rng.random()))
        step = len(keys) / count
        start = rng.random() * step
        return [frozenset(keys[int(start + i * step)]) for i in range(count)]

    def key(n: int) -> frozenset[int]:
        return sample(n, 1)[0]

    ops = []
    for n, count in plan["kcyc"].items():
        ops += [_kcyc_op(S, n) for S in sample(n, count)]
    for n, count in plan["roundtrip"].items():
        ops += [_roundtrip_op(E, n) for E in sample(n, count)]
    # Every third product is also recomputed with its factors swapped.
    ops += [
        _product_op(key(a), a, key(b), b, k % 3 == 0) for k, (a, b) in enumerate(plan["product"])
    ]
    ops += [
        _peak_product_op(key(a), a, key(b), b, k % 3 == 0)
        for k, (a, b) in enumerate(plan["peak_product"])
    ]
    # DAG shapes cycle as in ``dag``; the two fixed shapes cost the same
    # for every seed.
    ops += [
        _delta_toric_op(_shaped_dag(rng, SHAPES[k % 3], n))
        for k, n in enumerate(plan["delta_toric"])
    ]
    rng.shuffle(ops)
    wl.ops = ops


def _kcyc_op(S: frozenset[int], n: int) -> Op:
    def check(out) -> tuple[int, int]:
        # Each coefficient is 2^|K| times the number of qualifying shifts of K.
        return one(
            out.degree == n
            and sum(out.terms.values()) == oracles.kcyc_weight_total(S, n)
            and all(
                c % (1 << len(K)) == 0 and 1 <= c >> len(K) <= n
                for K, c in out.terms.items()
            )
        )

    return Op("kcyc", lambda: enriched.kcyc(S, n), check, lambda out: out.to_json())


def _roundtrip_op(E: frozenset[int], n: int) -> Op:
    def run():
        x = qsym.cyclic_fundamental(n, E)
        return x, qsym.from_qsym(x.as_qsym())

    def check(out) -> tuple[int, int]:
        x, back = out
        return one(back == x and sum(x.terms.values()) == 1 << (n - len(E)))

    return Op("roundtrip", run, check, lambda out: out[0].to_json())


def _at_two(x) -> int:
    """Specialization at x_1 = x_2 = 1, a ring homomorphism."""
    return x.specialize_ones(2)


def _product_op(U: frozenset[int], a: int, T: frozenset[int], b: int, commute: bool) -> Op:
    def run():
        x, y = enriched.kcyc(U, a), enriched.kcyc(T, b)
        return x, y, x * y

    def check(out) -> tuple[int, int]:
        x, y, prod = out
        return one(
            prod.degree == a + b
            and _at_two(prod) == _at_two(x) * _at_two(y)
            and (not commute or y * x == prod)
        )

    return Op("cqsym_product", run, check, lambda out: out[2].to_json())


def _peak_product_op(U: frozenset[int], a: int, T: frozenset[int], b: int, commute: bool) -> Op:
    def check(out) -> tuple[int, int]:
        lhs, decomposition = out
        return one(
            lhs.degree == a + b
            and sum(decomposition.values()) >= 1
            and _at_two(lhs) == _at_two(enriched.kcyc(U, a)) * _at_two(enriched.kcyc(T, b))
            and (not commute or enriched.cyclic_peak_product(T, b, U, a)[0] == lhs)
        )

    def canon(out) -> str:
        lhs, decomposition = out
        parts = sorted([sorted(S), c] for S, c in decomposition.items())
        return json.dumps([json.loads(lhs.to_json()), parts])

    return Op(
        "cyclic_peak_product",
        lambda: enriched.cyclic_peak_product(U, a, T, b),
        check,
        canon,
    )


def _delta_toric_op(d: dagmod.Dag) -> Op:
    def run():
        tc = dagmod.toric_class(d)
        return tc, enriched.delta_toric(tc)

    def check(out) -> tuple[int, int]:
        tc, delta = out
        return one(
            delta.degree == len(d.vertices)
            and enriched.delta_toric_by_rotations(tc) == delta
        )

    return Op("delta_toric", run, check, lambda out: out[1].to_json())


# --- dag: linear and toric enumerators, enriched partitions, CLI ----------

SHAPES = ("chain", "two_chains", "sparse")

# Vertex counts, or (vertex count, bound m) pairs, of each op kind; the
# DAG shapes cycle through SHAPES.
DAG_PLAN = {
    "full": {
        "linear_extensions": [5, 6, 7] * 7,
        "toric_class": [5, 6, 7] * 5,
        "toric_extensions": [5, 6, 7] * 5,
        "omega_dag": [8, 8, 8, 9, 9, 9, 10, 10, 10, 11, 11, 11],
        "enumerate_enriched": [(6, 2)] * 6 + [(5, 3)] * 6 + [(5, 2)] * 4 + [(4, 3)] * 4,
        "cli_enumerate": [(4, 2), (4, 3), (5, 2), (5, 3)] * 2 + [(4, 3), (5, 2)],
        "cli_expand_delta": [5, 6, 7, 8] * 2 + [6, 7],
    },
    "tiny": {
        "linear_extensions": [4, 5, 5],
        "toric_class": [4, 5, 5],
        "toric_extensions": [4, 5, 5],
        "omega_dag": [6, 6, 6],
        "enumerate_enriched": [(4, 2), (3, 2), (4, 1)],
        "cli_enumerate": [(3, 2), (4, 1)],
        "cli_expand_delta": [4, 5],
    },
}

# Sparse DAGs: arc probability and the window their linear-extension count
# must fall in, per vertex count. The window keeps an op's cost from hinging
# on one unlucky near-antichain, so the seed changes which DAG is drawn
# more than how much work it is.
SPARSE = {
    3: (0.3, 2, 4),
    4: (0.3, 4, 8),
    5: (0.3, 10, 20),
    6: (0.3, 30, 60),
    7: (0.4, 30, 60),
    8: (0.4, 50, 90),
    9: (0.5, 50, 90),
    10: (0.5, 70, 120),
    11: (0.5, 90, 150),
}


def _labels(rng: random.Random, n: int) -> list[int]:
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return w


def _shaped_dag(rng: random.Random, shape: str, n: int) -> dagmod.Dag:
    if shape == "chain":
        w = _labels(rng, n)
        return dagmod.Dag.make(w, zip(w, w[1:]))
    if shape == "two_chains":
        w, k = _labels(rng, n), n // 2
        return dagmod.Dag.make(w, list(zip(w[:k], w[1:k])) + list(zip(w[k:], w[k + 1:])))
    # A random subset of the transitive tournament of a random order.
    p, lo, hi = SPARSE[n]
    while True:
        w = _labels(rng, n)
        arcs = [(w[i], w[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if lo <= oracles.count_linear_extensions(w, arcs) <= hi:
            return dagmod.Dag.make(w, arcs)


def _dag_json(d: dagmod.Dag) -> str:
    return json.dumps({"arcs": sorted(map(list, d.arcs)), "vertices": sorted(d.vertices)})


def _omega_by_extensions(d: dagmod.Dag, m: int) -> int:
    """Order polynomial as a sum over linear extensions (fundamental lemma)."""
    return sum(orderpoly.omega(w, m) for w in oracles.linear_extensions(d.vertices, d.arcs))


def _dag(wl: Workload, rng: random.Random, size: str) -> None:
    plan = DAG_PLAN[size]

    def dags(ns):
        return [_shaped_dag(rng, SHAPES[k % 3], n) for k, n in enumerate(ns)]

    def with_m(pairs):
        return zip(dags([n for n, _ in pairs]), [m for _, m in pairs])

    ops = [_linear_extensions_op(d) for d in dags(plan["linear_extensions"])]
    ops += [_toric_class_op(d) for d in dags(plan["toric_class"])]
    ops += [_toric_extensions_op(d) for d in dags(plan["toric_extensions"])]
    ops += [_omega_dag_op(d, rng.randint(2, 4)) for d in dags(plan["omega_dag"])]
    ops += [_enumerate_op(d, m) for d, m in with_m(plan["enumerate_enriched"])]
    ops += [_cli_enumerate_op(wl, d, m) for d, m in with_m(plan["cli_enumerate"])]
    ops += [_cli_expand_delta_op(wl, d) for d in dags(plan["cli_expand_delta"])]
    rng.shuffle(ops)
    wl.ops = ops


def _words_json(words) -> str:
    return json.dumps([list(w) for w in words])


def _strictly_sorted(items) -> bool:
    return all(a < b for a, b in zip(items, items[1:]))


def _linear_extensions_op(d: dagmod.Dag) -> Op:
    def check(words) -> tuple[int, int]:
        return one(
            _strictly_sorted(words)
            and all(oracles.is_topological(w, d.arcs) for w in words)
            and len(words) == oracles.count_linear_extensions(d.vertices, d.arcs)
        )

    return Op("linear_extensions", lambda: dagmod.linear_extensions(d), check, _words_json)


def _toric_class_op(d: dagmod.Dag) -> Op:
    def check(tc) -> tuple[int, int]:
        arc_sets = {m.arcs for m in tc.members}
        edges = {frozenset(a) for a in d.arcs}
        c = tc.canonical
        inner = {i for i, _ in c.arcs} & {j for _, j in c.arcs}
        return one(
            d in tc.members
            and c == min(tc.members, key=lambda m: sorted(m.arcs))
            and all({frozenset(a) for a in m.arcs} == edges for m in tc.members)
            and all(
                oracles.flip_arcs(c.arcs, v) in arc_sets for v in c.vertices - inner
            )
        )

    return Op("toric_class", lambda: dagmod.toric_class(d), check, lambda tc: tc.to_json())


def _toric_extensions_op(d: dagmod.Dag) -> Op:
    def check(words) -> tuple[int, int]:
        linear = oracles.linear_extensions(d.vertices, d.arcs)
        return one(
            _strictly_sorted(words)
            and all(oracles.least_rotation(w) == w for w in words)
            and {oracles.least_rotation(w) for w in linear} <= set(words)
        )

    return Op("toric_extensions", lambda: dagmod.toric_extensions(d), check, _words_json)


def _omega_dag_op(d: dagmod.Dag, m: int) -> Op:
    return Op(
        "omega_dag",
        lambda: orderpoly.omega_dag(d, m),
        lambda value: one(value == _omega_by_extensions(d, m)),
        str,
    )


def _assignments_json(rows) -> str:
    return json.dumps([sorted(f.items()) for f in rows])


def _enumerate_op(d: dagmod.Dag, m: int) -> Op:
    def check(rows) -> tuple[int, int]:
        keys = [sorted(f.items()) for f in rows]
        return one(
            len(rows) == orderpoly.omega_dag(d, m)
            and _strictly_sorted(keys)
            and all(f.keys() == d.vertices for f in rows)
            and all(0 < abs(v) <= m for f in rows for v in f.values())
        )

    return Op("enumerate_enriched", lambda: enriched.enumerate_enriched(d, m), check, _assignments_json)


def _cli_enumerate_op(wl: Workload, d: dagmod.Dag, m: int) -> Op:
    argv = ["enumerate", "enriched", "--dag", _dag_json(d), "--m", str(m), "--ndjson"]

    def check(out) -> tuple[int, int]:
        code, text = out
        lines = text.splitlines()
        rows = [json.loads(line)["f"] for line in lines]
        return one(
            code == 0
            and len(set(lines)) == len(lines) == _omega_by_extensions(d, m)
            and all(len(f) == len(d.vertices) for f in rows)
        )

    return Op("cli_enumerate", lambda: wl.run_cli(argv), check, lambda out: out[1])


def _cli_expand_delta_op(wl: Workload, d: dagmod.Dag) -> Op:
    argv = ["expand", "delta", "--dag", _dag_json(d)]

    def check(out) -> tuple[int, int]:
        code, text = out
        data = json.loads(text)

        def at_ones(m: int) -> int:
            return sum(t["coeff"] * comb(m, len(t["set"]) + 1) for t in data["terms"])

        return one(
            code == 0
            and data["degree"] == len(d.vertices)
            and all(at_ones(m) == _omega_by_extensions(d, m) for m in (1, 2, 3))
        )

    return Op("cli_expand_delta", lambda: wl.run_cli(argv), check, lambda out: out[1])


# --- verify: the acceptance suites as a user runs them ---------------------

# ``toricpeaks verify all`` runs the suites in this order in one process;
# calling them one by one does the same work, with the memo caches in
# verify.py filling across suites exactly as they do there, and times each
# suite as an op of its own. Three suites run below their tier-1 sizes so
# that no suite but ``closure`` (whose size no flag sets) takes more than
# about half a second, and a 30 s run holds 8 repetitions, not 4 or 5.
# The suites are deterministic, so the seed changes nothing here, and each
# rep starts in a fresh interpreter with empty caches.
VERIFY_SIZES = {
    "enumerator": ["--m", "2"],
    "fundamental-lemma": ["--m", "1"],
    "order-poly": ["--n", "4"],
}
VERIFY_PLAN = {
    "full": [["verify", suite, *VERIFY_SIZES.get(suite, [])] for suite in verify.SUITES],
    "tiny": [["verify", "table1"], ["verify", "extensions"], ["verify", "cyclic-f", "--m", "2"]],
}


def _verify(wl: Workload, rng: random.Random, size: str) -> None:
    wl.ops = [_verify_op(wl, argv) for argv in VERIFY_PLAN[size]]


def _verify_op(wl: Workload, argv: list[str]) -> Op:
    def check(out) -> tuple[int, int]:
        code, text = out
        lines = text.splitlines()
        results = [line.split(None, 1)[0] for line in lines[:-1]]
        failed = sum(r != "PASS" for r in results)
        if code != 0 or lines[-1:] != ["OK"]:
            failed = max(failed, 1)
        return max(len(results), 1), failed

    return Op("verify", lambda: wl.run_cli(argv), check, lambda out: out[1])
