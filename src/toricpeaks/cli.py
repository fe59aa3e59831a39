"""Command-line surface: statistics, expansions, extensions, enumerations,
order polynomials, series and the verification suites.

All output is deterministic; structured data is JSON, tables are TSV.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import os
import sys
from pathlib import Path
from typing import Collection

from . import dag as dagmod
from . import enriched, orderpoly, permstat, qsym, verify
from .setcomp import phi, psi


def parse_word(text: str) -> tuple[int, ...]:
    """A nonempty word given either as digits ("3124") or comma-separated
    ("3,1,2,4")."""
    try:
        if not text:
            raise ValueError("the word is empty")
        if "," in text:
            word = tuple(int(x) for x in text.split(","))
        else:
            word = tuple(int(c) for c in text)
        return permstat.check_word(word)
    except ValueError as exc:
        raise SystemExit(f"cannot parse word {text!r}: {exc}")


def parse_subset(text: str) -> frozenset[int]:
    """A subset given comma-separated; "-" or "" denote the empty set."""
    if text in ("-", ""):
        return frozenset()
    try:
        elements = [int(x) for x in text.split(",")]
        if len(set(elements)) != len(elements):
            raise ValueError("elements must be distinct")
        return frozenset(elements)
    except ValueError as exc:
        raise SystemExit(f"cannot parse subset {text!r}: {exc}")


def load_dag(args) -> dagmod.Dag:
    if args.dag is not None and args.word is not None:
        raise SystemExit("give --dag or --word, not both")
    if args.word is not None:
        return dagmod.Dag.from_word(parse_word(args.word))
    if args.dag:
        # A readable file wins; otherwise the text is inline JSON, and why
        # the file could not be read goes into the error if that fails too.
        try:
            payload, unread = Path(args.dag).read_text(), None
        except (OSError, ValueError) as exc:
            payload, unread = args.dag, exc
        try:
            d = dagmod.Dag.from_json(payload)
            if min(d.vertices, default=0) < 1:
                raise ValueError("vertices must be a nonempty set of positive labels")
            return d
        except (ValueError, KeyError, TypeError) as exc:
            reason = str(exc)
            if isinstance(exc, json.JSONDecodeError) and unread is not None:
                why = getattr(unread, "strerror", None) or unread
                if isinstance(unread, FileNotFoundError):
                    why = "no such file"
                reason = f"{why}, and not inline JSON ({exc})"
            raise SystemExit(f"cannot read DAG from {args.dag!r}: {reason}")
    raise SystemExit("provide a word or --dag")


def emit(data) -> None:
    print(json.dumps(data, sort_keys=True))


def cmd_stats(args) -> int:
    w = parse_word(args.word)
    data = {
        "word": list(w),
        "des": sorted(permstat.des_set(w)),
        "peak": sorted(permstat.peak_set(w)),
        "cdes": sorted(permstat.cdes_set(w)),
        "cpeak": sorted(permstat.cpeak_set(w)),
        "composition_des": list(phi(permstat.des_set(w), len(w))),
        "canonical_rotation": list(permstat.canonical_rotation(w)),
    }
    for stat in ("cdes", "cpeak"):
        multiset = permstat.cyclic_stat_multiset(w, stat)
        data[f"{stat}_multiset"] = [
            {"set": sorted(S), "mult": c}
            for S, c in sorted(multiset.items(), key=lambda kv: sorted(kv[0]))
        ]
    if permstat.cdes_set(w):
        data["composition_cdes"] = list(psi(permstat.cdes_set(w), len(w)))
    emit(data)
    return 0


# ``expand`` builds each kind read as a degree n and a set S by one call.
BUILDERS = {
    "M": qsym.monomial,
    "F": qsym.fundamental,
    "Mcyc": qsym.cyclic_monomial,
    "Fcyc": qsym.cyclic_fundamental,
    "K": lambda n, S: enriched.k_peak(S, n),
    "Kcyc": lambda n, S: enriched.kcyc(S, n),
}


def cmd_expand(args) -> int:
    kind = args.kind
    if kind in ("delta", "delta-cyc"):
        if args.n is not None:  # a set can follow only a degree
            raise SystemExit(f"expand {kind} reads no degree or set")
    else:
        if args.dag is not None or args.word is not None:
            raise SystemExit(f"expand {kind} reads no --dag or --word")
        if args.n is None:
            raise SystemExit(f"expand {kind} needs a degree n")
    try:
        if kind == "delta":
            elem = enriched.delta_dag(load_dag(args))
        elif kind == "delta-cyc":
            elem = enriched.delta_toric(dagmod._class_without_bridges(load_dag(args)))
        else:
            elem = BUILDERS[kind](args.n, parse_subset(args.set))
        basis = args.basis or ("Mcyc" if kind in ("Mcyc", "Kcyc", "delta-cyc") else "M")
        if isinstance(elem, qsym.CQSym):
            print(elem.to_json() if basis == "Mcyc" else elem.as_qsym().to_json(basis))
        else:
            print(elem.to_json(basis))  # ValueError on Mcyc, which a QSym lacks
    except ValueError as exc:
        raise SystemExit(str(exc))
    return 0


def cmd_extensions(args) -> int:
    d = load_dag(args)
    if args.kind == "linear":
        words = dagmod.linear_extensions(d)
    else:
        words = dagmod.toric_extensions(d)
    emit({"kind": args.kind, "extensions": [list(w) for w in words]})
    return 0


# ``enumerate`` refuses to list more assignments or markings than this,
# and ``series`` to print more coefficients.
MAX_ENUMERATED = 10**6


def _refuse_huge_listing(members: Collection[dagmod.Dag], n: int, m: int) -> None:
    """Exit 1 when the n-vertex members have more than ``MAX_ENUMERATED``
    enriched partitions in all. Counted per member, this is exact for a
    toric class too, as its members' enriched sets are disjoint; for
    ``--toric`` the members are those of ``dag._class_without_bridges``.

    The count is skipped when (2m)^n candidates per member cannot exceed
    the limit, and the listing refused at once when C(2m, n) per member
    does, as strictly rising ranks along one linear extension pass every
    arc. Otherwise the count streams the rows and stops one past the
    limit, so a refusal takes no longer than the largest listing allowed.
    The exact count of ``orderpoly.omega_dag`` would not bound it so: its
    DP takes about 2.6 s on a star with 13 leaves, three times as long as
    at 12. The count is a pass of its own: a listing it lets through draws
    every row a second time, since keeping the drawn rows would hold up to
    the limit of them even to refuse.
    """
    if len(members) * (2 * m) ** n <= MAX_ENUMERATED:
        return
    if len(members) * math.comb(2 * m, n) <= MAX_ENUMERATED:
        found = itertools.chain.from_iterable(enriched.iter_enriched(e, m) for e in members)
        if sum(1 for _ in itertools.islice(found, MAX_ENUMERATED + 1)) <= MAX_ENUMERATED:
            return
    raise SystemExit(
        f"enumerate enriched would produce more than {MAX_ENUMERATED}"
        " assignments, the limit"
    )


def _row_template(d: dagmod.Dag) -> tuple[str, operator.itemgetter]:
    """The JSON text of an assignment of the nonempty d as a ``%`` template,
    and the getter of its values in template order. The keys go in the
    order ``json.dumps(..., sort_keys=True)`` gives their strings (10, 11,
    2, 30, 9), so ``template % values(f)`` is that text byte for byte."""
    keys = sorted(d.vertices, key=str)
    return "{%s}" % ", ".join(f'"{k}": %d' for k in keys), operator.itemgetter(*keys)


def cmd_enumerate(args) -> int:
    """List the enriched partitions of a DAG or its toric class, or the
    markings of a word, after checking that the listing stays within
    ``MAX_ENUMERATED``.

    Enriched rows come one at a time from ``enriched.iter_enriched``, or
    under ``--toric`` from ``iter_enriched_toric``'s lazy merge of the
    members' streams, each rendered by one template: ``--ndjson`` writes
    each line as it comes, and the JSON listing holds the rendered rows,
    not the assignments.
    """
    if args.what == "enriched":
        d = load_dag(args)
        tc = dagmod._class_without_bridges(d) if args.toric else None
        _refuse_huge_listing(tc.members if tc else [d], len(d.vertices), args.m)
        if tc:
            found = enriched.iter_enriched_toric(tc, args.m)
        else:
            found = enriched.iter_enriched(d, args.m)
        row, values = _row_template(d)
        if args.ndjson:
            line = '{"f": %s}\n' % row
            sys.stdout.writelines(line % values(f) for f in found)
        else:
            rows = [row % values(f) for f in found]
            print('{"assignments": [%s], "count": %d}' % (", ".join(rows), len(rows)))
    else:
        if args.dag is not None or args.toric:
            raise SystemExit("enumerate markings reads no --dag or --toric")
        if args.word is None:
            raise SystemExit("enumerate markings needs --word")
        w = parse_word(args.word)
        # Exact: the map from enriched partitions has fibres of size 2^(2pk+1).
        pk = len(permstat.peak_set(w))
        if orderpoly.omega(w, args.m) // 2 ** (2 * pk + 1) > MAX_ENUMERATED:
            raise SystemExit(
                f"enumerate markings would produce more than {MAX_ENUMERATED}"
                " markings, the limit"
            )
        marks = orderpoly.enumerate_markings(w, args.m)
        rows = [
            {"bars": list(mk.bars), "marked": sorted(mk.marked)} for mk in marks
        ]
        if args.ndjson:
            for row in rows:
                print(json.dumps(row, sort_keys=True))
        else:
            emit({"count": len(rows), "markings": rows})
    return 0


def cmd_order_poly(args) -> int:
    w = parse_word(args.word)
    print("m\tomega\tomega_cyc")
    for m in range(0, args.m + 1):
        print(f"{m}\t{orderpoly.omega(w, m)}\t{orderpoly.omega_cyc(w, m)}")
    return 0


def cmd_series(args) -> int:
    w = parse_word(args.word)
    if args.order + 1 > MAX_ENUMERATED:
        raise SystemExit(
            f"series would produce more than {MAX_ENUMERATED} coefficients, the limit"
        )
    emit(
        {
            "word": list(w),
            "order": args.order,
            "omega": orderpoly.gf_omega(w, args.order),
            "omega_cyc": orderpoly.gf_omega_cyc(w, args.order),
        }
    )
    return 0


def cmd_table(args) -> int:
    rows = []
    for key in sorted(verify.TABLE1, key=lambda S: (len(S), sorted(S))):
        rows.append(
            {
                "class": sorted(key),
                "composition": list(psi(key, 4)),
                "expansion": json.loads(qsym.cyclic_monomial(4, key).as_qsym().to_json()),
            }
        )
    emit({"degree": 4, "rows": rows})
    return 0


def cmd_verify(args) -> int:
    kwargs = {}
    if args.n is not None:
        kwargs["max_n"] = args.n
    if args.m is not None:
        kwargs["max_m"] = args.m
    try:
        report = verify.run_suite(args.suite, **kwargs)
    except KeyError as exc:
        raise SystemExit(exc.args[0])
    reports = report.get("reports", [report])
    for rep in reports:
        for check in rep["checks"]:
            # A check over no instance shows nothing, though it passes.
            empty = check.get("instances") == 0
            status = ("EMPTY" if empty else "PASS") if check["pass"] else "FAIL"
            detail = f"  [{check['detail']}]" if check["detail"] and not check["pass"] else ""
            print(f"{status}  {rep['suite']}: {check['name']}{detail}")
    print("OK" if report["pass"] else "FAILED")
    return 0 if report["pass"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then kept: parsing
    leaves it unchanged, so in-process callers of ``main`` share it."""
    p = argparse.ArgumentParser(
        prog="toricpeaks",
        description="Exact combinatorics of enriched partitions on DAGs and toric classes.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stats", help="descent and peak statistics of a word")
    sp.add_argument("word")
    sp.set_defaults(fn=cmd_stats)

    sp = sub.add_parser("expand", help="expand an element in a chosen basis")
    sp.add_argument("kind", choices=[*BUILDERS, "delta", "delta-cyc"])
    sp.add_argument("n", nargs="?", type=int)
    sp.add_argument("set", nargs="?", default="")
    sp.add_argument(
        "--basis",
        choices=["M", "F", "Mcyc"],
        help="basis to print in (default: Mcyc for Mcyc, Kcyc and delta-cyc, else M)",
    )
    sp.add_argument("--dag", help="DAG as a JSON file path or inline JSON")
    sp.add_argument("--word", help="total order given as a word")
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("extensions", help="linear or toric extensions of a DAG")
    sp.add_argument("kind", choices=["linear", "toric"])
    sp.add_argument("--dag")
    sp.add_argument("--word")
    sp.set_defaults(fn=cmd_extensions)

    sp = sub.add_parser("enumerate", help="enriched partitions or markings")
    sp.add_argument("what", choices=["enriched", "markings"])
    sp.add_argument("--dag")
    sp.add_argument("--word")
    sp.add_argument("--m", type=int, required=True, help="bound on absolute values")
    sp.add_argument("--toric", action="store_true", help="enumerate over the toric class")
    sp.add_argument("--ndjson", action="store_true", help="stream one JSON object per line")
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("order-poly", help="order polynomial table as TSV")
    sp.add_argument("word")
    sp.add_argument("--m", type=int, default=6)
    sp.set_defaults(fn=cmd_order_poly)

    sp = sub.add_parser("series", help="generating function coefficients as JSON")
    sp.add_argument("word")
    sp.add_argument("--order", type=int, default=10)
    sp.set_defaults(fn=cmd_series)

    sp = sub.add_parser("table", help="degree-4 cyclic monomial expansions")
    sp.set_defaults(fn=cmd_table)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", help="suite name or 'all'")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for bound in ("n", "m", "order"):
        if (getattr(args, bound, None) or 0) < 0:
            raise SystemExit(f"{bound} must be nonnegative, got {getattr(args, bound)}")
    # A reader that stops early, as ``| head`` does, closes the pipe; the
    # flush finds that here even when all output is still buffered. Then
    # stdout writes to /dev/null, so the flush at exit cannot raise again.
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
