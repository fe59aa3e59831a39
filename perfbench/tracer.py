"""Per-layer tracing of toricpeaks from outside the library.

The tracer replaces each public function of each layer module with a
wrapper, on its defining module and on every toricpeaks module that
imported it by name; methods are patched on their class. Wrappers record
spans (name, start, end, parent) in flat arrays held in memory and written
out when the run ends. A span's self time is its duration minus the
durations of its direct child spans.

Hot leaf predicates only bump a counter: a span each would cost more than
the predicate, and their time stays in the caller's self time. A
recursive generator (``quasi_shuffle``) is counted once per outermost call,
together with the terms it yields.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = ("setcomp", "permstat", "qsym", "dag", "enriched", "orderpoly", "verify", "cli")

COUNTED = {
    "setcomp.shift_set",
    "setcomp.phi",
    "setcomp.phi_inv",
    "setcomp.psi",
    "setcomp.psi_preimage",
    "setcomp.subset_class_members",
    "permstat.check_word",
    "permstat.cpeak_set",
    "permstat.peak_set",
    "permstat.des_set",
    "permstat.cdes_set",
    "permstat.is_peak_set",
    "permstat.is_cyclic_peak_set",
    "enriched.is_enriched",
    "enriched.freeze",
    "orderpoly.multiset_coeff",
    "orderpoly.poly_mul",
    "verify._check",
}
# Called once per arc per candidate assignment; even a counter would
# dominate is_enriched, so it is left unwrapped.
UNWRAPPED = {"enriched.signed_key"}
# Dunder methods worth tracing; other dunders (hashing, equality, repr) are
# called from inside containers far too often to wrap.
METHODS = {"__init__", "__post_init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__"}
# Spans that also total a size of their result.
SIZED = {
    "dag.linear_extensions": ("words", len),
    "dag.toric_class": ("members", lambda tc: len(tc.members)),
    "enriched.enumerate_enriched": ("partitions", len),
}
# Spans that count how many calls of a hot predicate they made: the
# candidates each one tested before returning.
SCANS = {
    "permstat.cyclic_peak_witness": "permstat.cpeak_set",
    "permstat.peak_witness": "permstat.peak_set",
    "enriched.enumerate_enriched": "enriched.is_enriched",
}

SPANNED = {
    "setcomp": ["canonical_subset_class"],
    "permstat": ["cyclic_peak_witness", "peak_witness"],
    "qsym": ["QSym.__mul__", "CQSym.__mul__", "CQSym.__init__", "QSym.__init__", "from_qsym", "cyclic_fundamental"],
    "dag": ["linear_extensions", "toric_class", "toric_extensions"],
    "enriched": ["enumerate_enriched", "delta_dag", "delta_toric", "kcyc", "k_peak", "cyclic_peak_product"],
    "orderpoly": ["omega_dag", "omega_cyc", "marking_fibers"],
}
CALLS_ONLY = {
    "setcomp": ["shift_set", "phi", "phi_inv"],
    "permstat": ["cpeak_set", "peak_set"],
    "qsym": ["QSym.__add__"],
    "dag": ["flip", "Dag.__post_init__"],
    "enriched": ["is_enriched", "delta_perm"],
    "orderpoly": ["omega", "partition_to_marking"],
    "cli": ["main"],
}
SUITE_NAMES = (
    "table1", "cyclic-f", "extensions", "enumerator", "fundamental-lemma",
    "order-poly", "markings", "triangularity", "closure", "shuffle",
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, grouped by layer in import order."""
    out: list[tuple[str, str, str]] = []
    for layer in LAYERS:
        for fn in SPANNED.get(layer, []):
            out += [(f"{layer}.{fn}.calls", "count", "lower"), (f"{layer}.{fn}.self_s", "s", "lower")]
            sized = SIZED.get(f"{layer}.{fn}")
            if sized:
                out.append((f"{layer}.{fn}.{sized[0]}", "count", "lower"))
        out += [(f"{layer}.{fn}.calls", "count", "lower") for fn in CALLS_ONLY.get(layer, [])]
        if layer == "permstat":
            out.append(("permstat.witness_scan_ratio", "ratio", "lower"))
        if layer == "qsym":
            out.append(("qsym.quasi_shuffle.terms", "count", "lower"))
        if layer == "enriched":
            out.append(("enriched.is_enriched_per_partition", "ratio", "lower"))
        if layer == "verify":
            out += [(f"verify.{s}.s", "s", "lower") for s in SUITE_NAMES]
            out.append(("verify.checks", "count", "higher"))
        if layer == "cli":
            out.append(("cli.stdout_bytes", "bytes", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    out += [("traced_wall_s", "s", "lower"), ("trace_overhead_ratio", "ratio", "lower")]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self._undo: list[tuple[object, str, object]] = []
        self._suites: dict[str, str] = {}

    # --- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.span_name)
        self.span_name.append(self._ids[name])
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _span_wrapper(self, name: str, fn):
        open_, close = self._open, self._close
        sized = SIZED.get(name)
        scan = SCANS.get(name)
        if sized:
            total = self.counts[f"{name}.{sized[0]}"]
            size = sized[1]
        if scan:
            tested, returned = self.counts[scan], self.counts[f"{name}.returned"]
            scanned = self.counts[f"{name}.tested"]

        def wrapper(*args, **kwargs):
            sid = open_(name)
            before = tested[0] if scan else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if sized:
                total[0] += size(result)
            if scan:
                scanned[0] += tested[0] - before
                returned[0] += 1
            return result

        return wrapper

    def _counter_wrapper(self, name: str, fn):
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator_wrapper(self, name: str, fn):
        calls, terms = self.counts[name], self.counts[f"{name}.terms"]
        depth = [0]

        def outer(gen):
            while True:
                depth[0] += 1
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    depth[0] -= 1
                terms[0] += 1
                yield item

        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            calls[0] += 1
            return outer(fn(*args, **kwargs))

        return wrapper

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._generator_wrapper(name, fn)
        if name in COUNTED:
            return self._counter_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    # --- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls, source: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in METHODS:
                continue
            fn = val.__func__ if isinstance(val, (classmethod, staticmethod)) else val
            # Methods generated by dataclasses have no source file of their own.
            if not inspect.isfunction(fn) or fn.__code__.co_filename != source:
                continue
            wrapper = self._wrap(f"{layer}.{cls.__name__}.{attr}", fn)
            self._set(cls, attr, wrapper if fn is val else type(val)(wrapper))

    def install(self) -> None:
        package = sys.modules["toricpeaks"]
        modules = {layer: sys.modules[f"toricpeaks.{layer}"] for layer in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj, mod.__file__)
                    continue
                name = f"{layer}.{attr}"
                if not inspect.isfunction(obj) or name in UNWRAPPED:
                    continue
                if attr.startswith("_") and name not in COUNTED:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for ns in [package, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._set(ns, attr, wrappers[id(obj)][1])
        suites = modules["verify"].SUITES
        for key, fn in list(suites.items()):
            self._suites[key] = f"verify.{fn.__name__}"
            suites[key] = wrappers[id(fn)][1]
            self._undo.append((suites, key, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # --- results ---------------------------------------------------------

    def summarize(self) -> tuple[dict, dict, dict]:
        """Calls, self time and total time per span name."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            total_s[name] += dur[i]
        return calls, self_s, total_s

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; functions never called read 0."""
        calls, self_s, total_s = self.summarize()
        counts = {k: v[0] for k, v in self.counts.items()}
        out: dict[str, float] = {}
        for name, _, _ in per_layer_metrics():
            if name.endswith(".calls"):
                fn = name[: -len(".calls")]
                out[name] = calls.get(fn, 0) or counts.get(fn, 0)
            elif name.endswith(".self_s") and name.count(".") > 1:
                out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        for name, (label, _) in SIZED.items():
            out[f"{name}.{label}"] = counts.get(f"{name}.{label}", 0)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(f"{layer}.")
            )
        witnesses = ("permstat.cyclic_peak_witness", "permstat.peak_witness")
        returned = sum(counts.get(f"{w}.returned", 0) for w in witnesses)
        tested = sum(counts.get(f"{w}.tested", 0) for w in witnesses)
        out["permstat.witness_scan_ratio"] = tested / returned if returned else 0.0
        partitions = counts.get("enriched.enumerate_enriched.partitions", 0)
        scanned = counts.get("enriched.enumerate_enriched.tested", 0)
        out["enriched.is_enriched_per_partition"] = scanned / partitions if partitions else 0.0
        out["qsym.quasi_shuffle.terms"] = counts.get("qsym.quasi_shuffle.terms", 0)
        for key in SUITE_NAMES:
            out[f"verify.{key}.s"] = total_s.get(self._suites.get(key, ""), 0.0)
        out["verify.checks"] = counts.get("verify._check", 0)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header and the four arrays in binary."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
        }
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
