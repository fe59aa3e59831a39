"""Verification suites: exact identities checked on small instances.

Each suite returns its list of checks, and ``run_suite`` wraps that list
in a report dict. Everything is deterministic; the one randomized
ingredient (extra DAG samples in the fundamental-lemma suite) uses a fixed
seed.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .dag import (
    Dag,
    ToricClass,
    _toric_extensions,
    disjoint_union,
    flip,
    linear_extensions,
    sinks,
    sources,
    toric_class,
    toric_extensions,
)
from .enriched import (
    cyclic_peak_product,
    delta_dag,
    delta_from_peak_set,
    delta_perm,
    delta_toric,
    delta_toric_by_rotations,
    enumerate_enriched,
    is_enriched,
    k_peak,
    kcyc,
    standardize,
)
from .orderpoly import (
    Marking,
    enumerate_markings,
    gf_omega,
    gf_omega_cyc,
    marking_fibers,
    multiset_coeff,
    omega,
    omega_cyc,
    omega_toric,
    partition_to_marking,
    runs,
)
from .permstat import (
    Word,
    canonical_rotation,
    cpeak_set,
    cyclic_peak_sets,
    peak_set,
    rotations,
    shuffle_set,
)
from .qsym import CQSym, QSym, TruncPoly, cyclic_fundamental, cyclic_monomial
from .setcomp import _canonical_mask, _mask, _set, shift_set


def _check(checks: list, name: str, ok: bool | list[bool], detail: str = "") -> None:
    """Append one check. ``ok`` is one outcome, or a list with one outcome
    per instance, which fails when any entry is false and is detailed by
    its failure count."""
    if isinstance(ok, list):
        detail = f"{sum(not x for x in ok)} failures"
        ok = all(ok)
    checks.append({"name": name, "pass": bool(ok), "detail": detail})


def _report(suite: str, checks: list) -> dict:
    return {
        "suite": suite,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }


def _freeze(f: Mapping[int, int]) -> frozenset[tuple[int, int]]:
    return frozenset(f.items())


# Process-wide memos of pure results. They fill across suites, as ``verify
# all`` runs them in one process. A ToricClass hashes and compares by its
# canonical member, so all members of a class share one toric entry. The
# bodies call the library by its module-level names, so a tracer that
# patches those names still sees the calls.
@functools.cache
def _enriched_set(d: Dag, m: int) -> frozenset:
    return frozenset(_freeze(f) for f in enumerate_enriched(d, m))


@functools.cache
def _toric_of(d: Dag) -> ToricClass:
    return toric_class(d)


@functools.cache
def _toric_enriched_set(tc: ToricClass, m: int) -> frozenset:
    return frozenset().union(*(_enriched_set(member, m) for member in tc.members))


@functools.cache
def _delta_toric(tc: ToricClass) -> CQSym:
    return delta_toric(tc)


@functools.cache
def _toric_extensions_of(tc: ToricClass) -> list[Word]:
    return _toric_extensions(tc.members)


@functools.cache
def _k_peak(S: frozenset, n: int) -> QSym:
    return k_peak(S, n)


def small_dags(max_n: int = 4) -> list[Dag]:
    """Every DAG on a vertex set [n], n <= max_n.

    Every DAG embeds in the transitive tournament of any of its linear
    extensions, so arc subsets of all transitive tournaments exhaust them.
    """
    out = set()
    for n in range(1, max_n + 1):
        for w in itertools.permutations(range(1, n + 1)):
            full = sorted(Dag.from_word(w).arcs)
            for k in range(len(full) + 1):
                for arcs in itertools.combinations(full, k):
                    out.add(Dag.make(range(1, n + 1), arcs))
    return sorted(out, key=lambda d: (len(d.vertices), sorted(d.arcs)))


def random_dags(count: int, max_n: int = 4, seed: int = 0) -> list[Dag]:
    """Seeded random DAGs: random arc subsets of random tournaments."""
    if max_n < 2:  # every sample has 2 to max_n vertices
        return []
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        w = list(range(1, n + 1))
        rng.shuffle(w)
        arcs = [a for a in Dag.from_word(w).arcs if rng.random() < 0.5]
        out.append(Dag.make(range(1, n + 1), arcs))
    return out


def _brute_enriched(d: Dag, m: int) -> list[dict[int, int]]:
    """Oracle for ``enumerate_enriched``: filter all (2m)^n assignments,
    then sort them."""
    verts = sorted(d.vertices)
    values = [v for k in range(1, m + 1) for v in (-k, k)]
    out = []
    for combo in itertools.product(values, repeat=len(verts)):
        f = dict(zip(verts, combo))
        if is_enriched(f, d):
            out.append(f)
    out.sort(key=lambda f: sorted(f.items()))
    return out


def _delta_by_extensions(d: Dag) -> QSym:
    """Oracle for ``delta_dag``: the sum of ``delta_perm`` over the linear
    extensions of d (the fundamental lemma), one ``delta_from_peak_set``
    call per distinct peak set."""
    n, counts = len(d.vertices), Counter(map(peak_set, linear_extensions(d)))
    return sum((delta_from_peak_set(S, n).scale(c) for S, c in counts.items()), QSym.zero(n))


def _toric_class_by_flips(d: Dag) -> frozenset[Dag]:
    """Oracle for ``toric_class``: its members, by the checked ``flip`` of
    every member found at every source and sink."""
    members = {d}
    frontier = [d]
    while frontier:
        cur = frontier.pop()
        for v in sources(cur) | sinks(cur):
            nxt = flip(cur, v)
            if nxt not in members:
                members.add(nxt)
                frontier.append(nxt)
    return frozenset(members)


def _toric_extensions_by_rotation(tc: ToricClass) -> list[Word]:
    """Oracle for ``toric_extensions``: the canonical rotation of every
    linear extension of every member, deduplicated and sorted."""
    return sorted(
        {canonical_rotation(w) for member in tc.members for w in linear_extensions(member)}
    )


def _delta_toric_by_cpk(tc: ToricClass) -> CQSym:
    """Oracle for ``delta_toric``: the sum of Kcyc_{cPk w} over the toric
    extensions w of the class, one ``kcyc`` call per distinct cPk set."""
    n = len(tc.canonical.vertices)
    counts = Counter(cpeak_set(w) for w in _toric_extensions_of(tc))
    return sum((kcyc(S, n).scale(c) for S, c in counts.items()), CQSym.zero(n))


def _count_enriched_word(w: tuple[int, ...], m: int) -> int:
    """Independent brute-force count for a total order.

    Checks only consecutive pairs; transitivity of the signed order makes
    that equivalent to the full arc set of the chain.
    """
    vals = [v for k in range(1, m + 1) for v in (-k, k)]
    n = len(w)
    count = 0
    for combo in itertools.product(vals, repeat=n):
        ok = True
        for i in range(n - 1):
            a, b = combo[i], combo[i + 1]
            if (abs(a), a > 0) > (abs(b), b > 0):
                ok = False
                break
            if a == b and ((a > 0) != (w[i] < w[i + 1])):
                ok = False
                break
        if ok:
            count += 1
    return count


def _cyclic_fundamental_via_F(n: int, E: Iterable[int]) -> QSym:
    """Oracle for ``cyclic_fundamental``: Fcyc_{n,E} as the sum over i in
    [n] of F_{n,L} with L the shift of E by -i, less n."""
    E = frozenset(E)
    if not E:
        raise ValueError("Fcyc requires a nonempty index set")
    shifted = Counter(shift_set(E, n, -i) - {n} for i in range(1, n + 1))
    return QSym.from_fundamental(n, shifted)


def _fcyc_pair_oracle(n: int, E: Iterable[int], m: int) -> TruncPoly:
    """Brute-force Fcyc_{n,E} in m variables from its defining pair set.

    Enumerates all (w, k) with w in [m]^n cyclically weakly increasing from
    index k and strict rises at positions of E other than k-1 (mod n).
    """
    E = frozenset(E)
    if m < 1:
        raise ValueError("need at least one variable")
    out: Counter = Counter()
    for w in itertools.product(range(1, m + 1), repeat=n):
        for k in range(1, n + 1):
            seq = w[k - 1:] + w[: k - 1]
            if any(seq[i] > seq[i + 1] for i in range(n - 1)):
                continue
            skip = k - 1 if k >= 2 else n
            if any(w[i - 1] >= w[i % n] for i in E if i != skip):
                continue
            expo = [0] * m
            for x in w:
                expo[x - 1] += 1
            out[tuple(expo)] += 1
    return TruncPoly(m, out)


def _delta_fundamental_expansion(w: Sequence[int]) -> dict[frozenset, int]:
    """Oracle for ``delta_perm(w).to_fundamental()``, Stembridge's peak-set
    expansion: coefficient 2^{pk+1} on each D in [n-1] with Pk w inside
    D △ (D+1)."""
    n = len(w)
    S = peak_set(w)
    coeff = 2 ** (len(S) + 1)
    peaks = _mask(S, n)
    return {_set(D, n): coeff for D in range(0, 1 << n, 2) if not peaks & ~(D ^ D >> 1)}


def _kcyc_triangular_matrix(
    n: int,
) -> tuple[list[frozenset[int]], list[list[int]], list[list[int]]]:
    """The Kcyc of the canonical cyclic peak sets S_1, S_2, ... in [n], in
    cardinality-then-lex order, as two matrices with one row per set.

    Entry (i, j) of the first is the coefficient in Kcyc_{S_i} of the class
    of f(S_j), where f(S) = {s_1} ∪ {s_k - 1 : k >= 2} for S = {s_1 < s_2 <
    ...}; the ``triangularity`` suite checks that it is upper triangular
    with a nonzero diagonal. The second has one column per class that
    occurs in any row, for the rank.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    sets = cyclic_peak_sets(n)
    rows = [kcyc(S, n).masks for S in sets]
    mapped = []
    for S in sets:
        first, *rest = sorted(S)
        mapped.append(_canonical_mask(_mask([first, *(s - 1 for s in rest)], n), n))
    classes = sorted(set().union(*rows))
    return (
        sets,
        [[row.get(c, 0) for c in mapped] for row in rows],
        [[row.get(c, 0) for c in classes] for row in rows],
    )


def _matrix_rank(rows: list[list[int]]) -> int:
    """Exact rank over the rationals by Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank, col = 0, 0
    ncols = len(work[0]) if work else 0
    while rank < len(work) and col < ncols:
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        for r in range(rank + 1, len(work)):
            if work[r][col]:
                factor = work[r][col] / lead
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
        col += 1
    return rank


def _interpolate(points: Sequence[tuple[int, int]], x: int) -> Fraction:
    """Lagrange interpolation at integer nodes, exact rationals."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if i != j:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def _weight_poly(assignments, m: int) -> TruncPoly:
    """Brute-force weight enumerator: sum of products of x_{|f(i)|}."""
    out: Counter = Counter()
    for frozen in assignments:
        expo = [0] * m
        for _, v in frozen:
            expo[abs(v) - 1] += 1
        out[tuple(expo)] += 1
    return TruncPoly(m, out)


D3 = Dag.make([1, 2, 3, 4], [(2, 1), (2, 4), (2, 3), (4, 1), (4, 3)])

# Cyclic monomial functions of degree 4 in the monomial basis, one row per
# cyclic composition class of 4, keyed by the canonical class subset.
TABLE1 = {
    frozenset({1}): {frozenset(): 1},
    frozenset({1, 2}): {frozenset({1}): 1, frozenset({3}): 1},
    frozenset({1, 3}): {frozenset({2}): 2},
    frozenset({1, 2, 3}): {
        frozenset({1, 2}): 1,
        frozenset({1, 3}): 1,
        frozenset({2, 3}): 1,
    },
    frozenset({1, 2, 3, 4}): {frozenset({1, 2, 3}): 4},
}

DELTA_CYC_D3 = CQSym(
    4,
    {
        frozenset({1, 2, 3, 4}): 32,
        frozenset({1, 2, 3}): 64,
        frozenset({1, 2}): 20,
        frozenset({1, 3}): 16,
        frozenset({1}): 4,
    },
)


def suite_table1(**_) -> list:
    """The five degree-4 cyclic monomial expansions."""
    checks: list = []
    for key, expected in TABLE1.items():
        got = cyclic_monomial(4, key).as_qsym()
        _check(
            checks,
            f"Mcyc class {sorted(key)} expansion",
            got == QSym(4, expected),
            repr(got),
        )
    return checks


def suite_cyclic_f(max_m: int = 5, **_) -> list:
    """The degree-4 cyclic fundamental expansion and its pair oracle."""
    checks: list = []
    E = frozenset({1, 3})
    expected = QSym(
        4,
        {
            frozenset({2}): 2,
            frozenset({1, 2}): 2,
            frozenset({1, 3}): 2,
            frozenset({2, 3}): 2,
            frozenset({1, 2, 3}): 4,
        },
    )
    elem = cyclic_fundamental(4, E)
    _check(checks, "Fcyc_{4,{1,3}} monomial expansion", elem.as_qsym() == expected)
    _check(
        checks,
        "Fcyc_{4,{1,3}} via shifted fundamentals",
        _cyclic_fundamental_via_F(4, E) == expected,
    )
    for m in range(1, max_m + 1):
        _check(
            checks,
            f"pair oracle m={m}",
            _fcyc_pair_oracle(4, E, m) == elem.truncate(m),
        )
    return checks


def suite_extensions(**_) -> list:
    """Linear and toric extensions of the running 4-vertex example."""
    checks: list = []
    _check(
        checks,
        "linear extensions",
        linear_extensions(D3) == [(2, 4, 1, 3), (2, 4, 3, 1)],
        str(linear_extensions(D3)),
    )
    tc = _toric_of(D3)
    _check(checks, "toric class size 5", len(tc.members) == 5, str(len(tc.members)))
    _check(
        checks,
        "toric extensions",
        toric_extensions(D3) == [(1, 2, 4, 3), (1, 3, 2, 4)],
        str(toric_extensions(D3)),
    )
    _check(
        checks,
        "toric extensions as rotation classes of linear extensions",
        {canonical_rotation(w) for w in linear_extensions(D3)}
        == set(toric_extensions(D3)),
    )
    return checks


def suite_enumerator(max_n: int = 4, max_m: int = 3, **_) -> list:
    """Cyclic weight enumerator of the example, two ways, plus oracles."""
    checks: list = []
    tc = _toric_of(D3)
    delta = delta_toric(tc)
    via_cpk = _delta_toric_by_cpk(tc)
    via_rot = delta_toric_by_rotations(tc)
    # The member sum and its cPk oracle share one line.
    _check(
        checks,
        "delta-cyc via cPk formula",
        delta == via_cpk == DELTA_CYC_D3,
        f"member sum {delta!r}, cPk route {via_cpk!r}",
    )
    _check(checks, "delta-cyc via rotation sums", via_rot == DELTA_CYC_D3, repr(via_rot))
    for m in range(1, max_m + 1):
        brute = _weight_poly(_toric_enriched_set(tc, m), m)
        _check(
            checks,
            f"delta-cyc brute-force weights m={m}",
            brute == delta.truncate(m),
        )
    # Linear enumerators against brute force, and the F-expansion shortcut.
    agree = []
    for n in range(1, max_n + 1):
        for w in itertools.permutations(range(1, n + 1)):
            dperm = delta_perm(w)
            if n <= 3 or w == (1, 3, 2, 4):
                for m in range(1, max_m + 1):
                    brute = _weight_poly(_enriched_set(Dag.from_word(w), m), m)
                    agree.append(brute == dperm.truncate(m))
            agree.append(_delta_fundamental_expansion(w) == dperm.to_fundamental())
    _check(checks, f"delta oracles all words n<={max_n}", agree)
    # Kcyc of the cyclic peak set against the rotation route, which sums
    # the linear enumerators of all n rotations of the cyclic order w.
    agree = []
    for n in range(2, 7):
        for rest in itertools.permutations(range(2, n + 1)):
            w = (1, *rest)
            tc = toric_class(Dag.from_word(w))
            agree.append(delta_toric_by_rotations(tc) == kcyc(cpeak_set(w), n))
    _check(checks, "enumerators depend only on peak data, n<=6", agree)
    return checks


def _is_disjoint_cover(whole: frozenset, pieces: list[frozenset]) -> bool:
    """The pieces are pairwise disjoint and their union is ``whole``."""
    return sum(map(len, pieces)) == len(whole) and frozenset().union(*pieces) == whole


def suite_fundamental_lemma(
    max_n: int = 4, max_m: int = 3, random_count: int = 200, seed: int = 0, **_
) -> list:
    """Disjoint-union decompositions of enriched partitions, all small DAGs."""
    checks: list = []
    dags = small_dags(max_n) + random_dags(random_count, max_n, seed)
    linear_ok, toric_ok, spec_ok = [], [], []
    toric_done: set = set()
    for d in dags:
        # The fast paths against their oracles count as linear failures.
        # The (2m)^n filter runs only up to m = 2, where it stays cheap.
        delta = delta_dag(d)
        linear_ok.append(delta == _delta_by_extensions(d))
        words = linear_extensions(d)
        for m in range(1, max_m + 1):
            whole = _enriched_set(d, m)
            pieces = [_enriched_set(Dag.from_word(w), m) for w in words]
            linear_ok.append(_is_disjoint_cover(whole, pieces))
            if m <= 2:
                linear_ok.append(whole == frozenset(map(_freeze, _brute_enriched(d, m))))
            spec_ok.append(delta.specialize_ones(m) == len(whole))
        tc = _toric_of(d)
        if tc in toric_done:
            continue
        toric_done.add(tc)
        # The class and its toric extensions against their flip and
        # rotation oracles, the member sum against its cPk oracle, and the
        # disjoint member sets it rests on, count as toric failures.
        extensions = _toric_extensions_of(tc)
        toric_ok.append(tc.members == _toric_class_by_flips(d))
        toric_ok.append(extensions == _toric_extensions_by_rotation(tc))
        toric_ok.append(_delta_toric(tc) == _delta_toric_by_cpk(tc))
        for m in range(1, max_m + 1):
            whole = _toric_enriched_set(tc, m)
            members = [_enriched_set(member, m) for member in tc.members]
            toric_ok.append(_is_disjoint_cover(whole, members))
            pieces = [
                _toric_enriched_set(_toric_of(Dag.from_word(w)), m) for w in extensions
            ]
            toric_ok.append(_is_disjoint_cover(whole, pieces))
            spec_ok.append(_delta_toric(tc).specialize_ones(m) == len(whole))
    _check(checks, f"linear decomposition, {len(dags)} DAGs, m<={max_m}", linear_ok)
    _check(checks, f"toric decomposition, {len(toric_done)} classes, m<={max_m}", toric_ok)
    _check(checks, "specialization counts", spec_ok)
    return checks


def suite_order_poly(max_n: int = 5, max_m: int = 3, series_m: int = 6, **_) -> list:
    """Formula, brute force and series coefficients agree; run invariants."""
    checks: list = []
    formula_ok, series_ok, cyc_ok = [], [], []
    for n in range(1, max_n + 1):
        classes: set = set()
        for w in itertools.permutations(range(1, n + 1)):
            coeffs = gf_omega(w, series_m)
            series_ok += [coeffs[m] == omega(w, m) for m in range(series_m + 1)]
            formula_ok += [
                omega(w, m) == _count_enriched_word(w, m) for m in range(1, max_m + 1)
            ]
            formula_ok.append(omega(w, 0) == 0)
            classes.add(canonical_rotation(w))
        for w in sorted(classes):
            cyc = [omega_cyc(w, m) for m in range(max(series_m, max_m) + 1)]
            cyc_ok += [
                value == sum(omega(v, m) for v in rotations(w)) for m, value in enumerate(cyc)
            ]
            ccoeffs = gf_omega_cyc(w, series_m)
            cyc_ok += [ccoeffs[m] == cyc[m] for m in range(series_m + 1)]
            if n <= 4:
                tc = _toric_of(Dag.from_word(w))
                for m in range(1, max_m + 1):
                    cyc_ok.append(omega_toric(tc, m) == cyc[m])
                    cyc_ok.append(len(_toric_enriched_set(tc, m)) == cyc[m])
    _check(checks, f"omega == brute force, n<={max_n}, m<={max_m}", formula_ok)
    _check(checks, f"omega == series coefficients, m<={series_m}", series_ok)
    _check(checks, f"cyclic triple agreement, n<={max_n}", cyc_ok)
    run_ok, rot_ok, poly_ok = [], [], []
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            pk = len(peak_set(w))
            decomp = runs(w)
            run_ok.append(len(decomp.runs) == 2 * pk + 2)
            run_ok.append(len(decomp.markable) == n - 2 * pk - 1)
            if n <= 6:
                cpk = len(cpeak_set(w))
                low = sum(
                    1 for v in rotations(w) if len(peak_set(v)) == cpk - 1
                )
                high = sum(1 for v in rotations(w) if len(peak_set(v)) == cpk)
                rot_ok.append(low == 2 * cpk and low + high == n)
            if n <= 4:
                pts = [(m, omega(w, m)) for m in range(1, n + 2)]
                poly_ok += [_interpolate(pts, m) == omega(w, m) for m in range(n + 2, n + 5)]
    _check(checks, "run invariants, n<=7", run_ok)
    _check(checks, "rotation peak-count structure, n<=6", rot_ok)
    _check(checks, "polynomiality of omega, n<=4", poly_ok)
    return checks


def suite_markings(max_m: int = 3, **_) -> list:
    """The enriched-partition-to-marking correspondence on 4-letter words."""
    checks: list = []
    fiber_ok, image_ok, count_ok = [], [], []
    for w in itertools.permutations(range(1, 5)):
        pk = len(peak_set(w))
        markable = runs(w).markable
        for m in range(1, max_m + 1):
            fibers = marking_fibers(w, m)
            expected = set(enumerate_markings(w, m))
            image_ok.append(set(fibers) == expected)
            for mk, size in fibers.items():
                fiber_ok.append(size == 2 ** (2 * pk + 1))
                image_ok.append(
                    mk.marked <= markable
                    and len(mk.bars) + len(mk.marked) == m - 1 - pk
                )
            count_ok.append(len(expected) * 2 ** (2 * pk + 1) == omega(w, m))
            count = sum(
                multiset_coeff(5, k) * math.comb(len(markable), m - 1 - pk - k)
                for k in range(0, m - pk)
            )
            count_ok.append(count == len(expected))
    _check(checks, "marking image matches enumeration, S_4", image_ok)
    _check(checks, "every fiber has size 2^(2pk+1)", fiber_ok)
    _check(checks, "marking counts match omega", count_ok)
    w = (1, 4, 3, 2, 5, 6)
    decomp = runs(w)
    _check(
        checks,
        "run decomposition of 143256",
        [sorted(I) for I in decomp.index_sets]
        == [[0, 1], [2], [3, 4], [5, 6, 7]]
        and decomp.markable == frozenset({3, 5, 6}),
        str(decomp),
    )
    f = {1: 1, 4: -2, 3: -4, 2: -4, 5: -5, 6: 5}
    mk = partition_to_marking(f, w, 5)
    _check(
        checks,
        "displayed partition maps to bars {2,2}, mark {5}",
        mk == Marking(w, (2, 2), frozenset({5})),
        str(mk),
    )
    displayed = {Marking(w, (2, 2), frozenset({5})), Marking(w, (2, 6), frozenset({3}))}
    _check(
        checks,
        "both displayed markings occur for m=5",
        displayed <= set(enumerate_markings(w, 5)),
    )
    fibers1 = marking_fibers((1,), 1)
    _check(
        checks,
        "w=1, m=1 collapses to one empty marking with fiber 2",
        fibers1 == Counter({Marking((1,), (), frozenset()): 2}),
    )
    return checks


def suite_triangularity(max_n: int = 6, **_) -> list:
    """Kcyc against mapped cyclic monomial classes: triangular, full rank."""
    checks: list = []
    for n in range(2, max_n + 1):
        sets, matrix, full = _kcyc_triangular_matrix(n)
        bad = [
            (i, j)
            for i, row in enumerate(matrix)
            for j in range(i + 1)
            if (row[j] != 0) != (i == j)
        ]
        # Columns that are zero in every row do not change the rank.
        _check(
            checks,
            f"triangularity and rank n={n}",
            not bad and _matrix_rank(full) == len(sets),
            f"bad entry at {bad[0]}" if bad else f"{len(sets)} classes",
        )
    _check(
        checks,
        "n=4 cyclic peak sets are {1} and {1,3}",
        cyclic_peak_sets(4) == [frozenset({1}), frozenset({1, 3})],
    )
    return checks


def suite_closure(max_n: int = 6, **_) -> list:
    """The cyclic peak functions form a subring: products decompose."""
    checks: list = []
    products = []
    for mU in range(1, max_n):
        for nT in range(1, max_n - mU + 1):
            for U in cyclic_peak_sets(mU):
                for T in cyclic_peak_sets(nT):
                    lhs, decomposition = cyclic_peak_product(U, mU, T, nT)
                    rhs = sum(
                        (kcyc(S, mU + nT).scale(c) for S, c in decomposition.items()),
                        CQSym.zero(mU + nT),
                    )
                    products.append(lhs == rhs)
    _check(checks, f"{len(products)} witness products, degrees <= {max_n}", products)
    k1 = kcyc({1}, 2)
    _check(
        checks,
        "degree-0 unit cases",
        cyclic_peak_product(frozenset(), 0, frozenset({1}), 2)[0] == k1
        and cyclic_peak_product(frozenset({1}), 2, frozenset(), 0)[0] == k1,
    )
    rng = random.Random(1)
    left = small_dags(2)
    right = [d for d in small_dags(3) if len(d.vertices) == 3]
    # Labels 4-6 on the right, at most 3 on the left: the unions are disjoint.
    shifted = [
        Dag.make([v + 3 for v in d.vertices], [(i + 3, j + 3) for i, j in d.arcs])
        for d in right
    ]
    unions = [(a, b) for a in left for b in shifted] + [
        (rng.choice(right), rng.choice(shifted)) for _ in range(20)
    ]
    _check(
        checks,
        f"delta-cyc product rule on {len(unions)} disjoint unions",
        [
            _delta_toric(_toric_of(a)) * _delta_toric(_toric_of(b))
            == _delta_toric(_toric_of(disjoint_union(a, b)))
            for a, b in unions
        ],
    )
    return checks


def suite_shuffle(max_n: int = 6, **_) -> list:
    """K_{Pk pi} K_{Pk sigma} = sum of K_{Pk tau} over interleavings."""
    checks: list = []
    products = []
    for a in range(1, max_n):
        for b in range(1, max_n - a + 1):
            for pi in itertools.permutations(range(1, a + 1)):
                for sig0 in itertools.permutations(range(1, b + 1)):
                    sig = standardize(sig0, a)
                    lhs = _k_peak(peak_set(pi), a) * _k_peak(peak_set(sig0), b)
                    taus = shuffle_set(pi, sig)
                    counts = Counter(peak_set(tau) for tau in taus)
                    rhs = sum(
                        (_k_peak(S, a + b).scale(c) for S, c in counts.items()),
                        QSym.zero(a + b),
                    )
                    products.append(lhs == rhs and len(taus) == math.comb(a + b, a))
    _check(checks, f"{len(products)} shuffle products, degrees <= {max_n}", products)
    return checks


SUITES = {
    "table1": suite_table1,
    "cyclic-f": suite_cyclic_f,
    "extensions": suite_extensions,
    "enumerator": suite_enumerator,
    "fundamental-lemma": suite_fundamental_lemma,
    "order-poly": suite_order_poly,
    "markings": suite_markings,
    "triangularity": suite_triangularity,
    "closure": suite_closure,
    "shuffle": suite_shuffle,
}


def run_suite(name: str, **kwargs) -> dict:
    passed = {k: v for k, v in kwargs.items() if v is not None}
    if name == "all":
        reports = [_report(key, fn(**passed)) for key, fn in SUITES.items()]
        return {
            "suite": "all",
            "reports": reports,
            "pass": all(r["pass"] for r in reports),
        }
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return _report(name, SUITES[name](**passed))
