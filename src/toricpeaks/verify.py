"""Verification suites: exact identities checked on small instances.

Each suite is a generator that yields one record per check, ``_suite``
collects its records into the suite's list, and ``run_suite`` wraps that
list in a report dict. Everything is deterministic; the one randomized
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
from typing import Iterable, Iterator, Sequence

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
    _delta_from_peaks,
    _peak_distribution,
    _values_key,
    cyclic_peak_product,
    delta_dag,
    delta_perm,
    delta_toric,
    delta_toric_by_rotations,
    enumerate_enriched,
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
    omega_dag,
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
from .qsym import CQSym, QSym, _partial_sums, _superset_sum, cyclic_fundamental, cyclic_monomial
from .setcomp import _canonical_mask, _mask, shift_set


def _check(name: str, ok: bool | list[bool], detail: str = "") -> dict:
    """The record of one check, which a suite yields. ``ok`` is one
    outcome, or a list with one outcome per instance, which fails when any
    entry is false, is detailed by its failure count and records its number
    of instances. A family of checks, one per size, over no size is
    recorded once, as a list of no outcome."""
    check = {"name": name}
    if isinstance(ok, list):
        detail = f"{sum(not x for x in ok)} failures"
        check["instances"] = len(ok)
        ok = all(ok)
    return {**check, "pass": bool(ok), "detail": detail}


def _suite(gen):
    """A suite as a function that returns the list of records its
    generator yields. It stays a plain function for perfbench's tracer,
    which times a plain function as one span but only counts the calls of
    a generator function."""

    @functools.wraps(gen)
    def suite(**kwargs) -> list:
        return list(gen(**kwargs))

    return suite


# Process-wide memos of pure results. They fill across suites, as ``verify
# all`` runs them in one process. A ToricClass hashes and compares by its
# canonical member, so all members of a class share one toric entry. The
# bodies call the library by its module-level names, so a tracer that
# patches those names still sees the calls.
@functools.cache
def _enriched_set(d: Dag, m: int) -> frozenset[tuple[int, ...]]:
    """The enriched partitions of d up to m, each keyed by ``_values_key``."""
    return frozenset(map(_values_key(d), enumerate_enriched(d, m)))


@functools.cache
def _word_dag(w: Word) -> Dag:
    return Dag.from_word(w)


@functools.cache
def _linear_extensions_of(d: Dag) -> list[Word]:
    return linear_extensions(d)


# The toric class of every DAG met so far, recorded for all its members
# once one of them is built, so each class is built once and the memo holds
# one set of member DAGs per class.
_TORIC_CLASSES: dict[Dag, ToricClass] = {}


def _toric_of(d: Dag) -> ToricClass:
    tc = _TORIC_CLASSES.get(d)
    if tc is None:
        tc = toric_class(d)
        _TORIC_CLASSES.update(dict.fromkeys(tc.members, tc))
    return tc


@functools.cache
def _toric_enriched_set(tc: ToricClass, m: int) -> frozenset:
    return frozenset().union(*(_enriched_set(member, m) for member in tc.members))


@functools.cache
def _delta_toric(tc: ToricClass) -> CQSym:
    return delta_toric(tc)


@functools.cache
def _k_peak_product(S: frozenset, a: int, T: frozenset, b: int) -> QSym:
    return k_peak(S, a) * k_peak(T, b)


def small_dags(max_n: int = 4) -> list[Dag]:
    """Every DAG on a vertex set [n], n <= max_n.

    Every DAG embeds in the transitive tournament of any of its linear
    extensions, so arc subsets of all transitive tournaments exhaust them.
    """
    out = []
    for n in range(1, max_n + 1):
        arc_sets = set()
        for w in itertools.permutations(range(1, n + 1)):
            # The arcs of w's tournament, sorted, so each subset is too.
            full = sorted(itertools.combinations(w, 2))
            for k in range(len(full) + 1):
                arc_sets.update(itertools.combinations(full, k))
        vertices = frozenset(range(1, n + 1))
        out += [Dag(vertices, frozenset(arcs)) for arcs in sorted(arc_sets)]
    return out


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
        # The tournament's arcs, in the set that ``Dag.from_word`` builds,
        # so they are drawn in the same order without checking a DAG.
        tournament = frozenset((w[i], w[j]) for i in range(n) for j in range(i + 1, n))
        arcs = [a for a in tournament if rng.random() < 0.5]
        out.append(Dag.make(range(1, n + 1), arcs))
    return out


def _brute_values(n: int, arcs: Sequence[tuple[int, int, bool]], m: int) -> Iterator[tuple]:
    """Every n-tuple over ±[m], in lex order, that satisfies each arc
    (a, b, up) between positions a and b: the key (|x|, x > 0) weakly
    increases, and a tie is at a positive value exactly when the arc is
    up. It shares no code with the library's rank and arc test."""
    keys = [(abs(x), x > 0) for x in [*range(-m, 0), *range(1, m + 1)]]
    for combo in itertools.product(keys, repeat=n):
        for a, b, up in arcs:
            x, y = combo[a], combo[b]
            if x > y or x == y and x[1] != up:
                break
        else:
            yield tuple([k if positive else -k for k, positive in combo])


def _brute_enriched(d: Dag, m: int) -> list[dict[int, int]]:
    """Oracle for ``enumerate_enriched``: ``_brute_values`` over d's
    vertices in label order, so the assignments come sorted."""
    verts = sorted(d.vertices)
    pos = {v: k for k, v in enumerate(verts)}
    arcs = [(pos[i], pos[j], i < j) for i, j in d.arcs]
    return [dict(zip(verts, combo)) for combo in _brute_values(len(verts), arcs, m)]


def _delta_by_extensions(d: Dag) -> QSym:
    """Oracle for ``delta_dag``: the sum of Δ_w over the linear extensions w
    of d (the fundamental lemma). Each distinct peak set is expanded in the
    fundamental basis by ``_k_fundamental``, and the summed coefficients
    convert to the monomial basis once, by the unsigned superset sum, so
    no K-expansion of the library takes part."""
    n = len(d.vertices)
    counts = Counter(_mask(peak_set(w), n) for w in _linear_extensions_of(d))
    coeffs: Counter = Counter()
    for S, c in counts.items():
        for D, k in _k_fundamental(S, n).items():
            coeffs[D] += c * k
    return QSym._make(n, _superset_sum(coeffs, n, signed=False))


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
    linear extension of every member, deduplicated and sorted. The empty
    word, the one extension of the empty class, is its own rotation."""
    words = (w for member in tc.members for w in _linear_extensions_of(member))
    return sorted({canonical_rotation(w) if w else w for w in words})


def _delta_toric_by_cpk(tc: ToricClass) -> CQSym:
    """Oracle for ``delta_toric``: the sum of Kcyc_{cPk w} over the toric
    extensions w of the class, one ``kcyc`` call per distinct cPk set."""
    n = len(tc.canonical.vertices)
    counts = Counter(cpeak_set(w) for w in _toric_extensions(tc.members))
    return sum((kcyc(S, n).scale(c) for S, c in counts.items()), CQSym.zero(n))


def _count_enriched_word(w: tuple[int, ...], m: int) -> int:
    """Independent brute-force count for a total order: ``_brute_values``
    over w's consecutive pairs, which transitivity makes equivalent to the
    full arc set of the chain."""
    arcs = [(i, i + 1, w[i] < w[i + 1]) for i in range(len(w) - 1)]
    return sum(1 for _ in _brute_values(len(w), arcs, m))


def _cyclic_fundamental_via_F(n: int, E: Iterable[int]) -> QSym:
    """Oracle for ``cyclic_fundamental``: Fcyc_{n,E} as the sum over i in
    [n] of F_{n,L} with L the shift of E by -i, less n."""
    E = frozenset(E)
    shifted = Counter(shift_set(E, n, -i) - {n} for i in range(1, n + 1))
    return QSym.from_fundamental(n, shifted)


def _fcyc_pair_oracle(n: int, E: Iterable[int], m: int) -> dict[tuple[int, ...], int]:
    """Brute-force Fcyc_{n,E} in m variables from its defining pair set.

    Enumerates all (w, k) with w in [m]^n cyclically weakly increasing from
    index k and strict rises at positions of E other than k-1 (mod n).
    """
    E = frozenset(E)
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
    return dict(out)


def _k_fundamental(peaks: int, n: int) -> dict[int, int]:
    """K_S in the fundamental basis by Stembridge's peak-set expansion, for
    the mask ``peaks`` of S: coefficient 2^{|S|+1} (1 in degree 0) on the
    mask of each D in [n-1] with S inside D △ (D+1)."""
    coeff = 1 << peaks.bit_count() + (n > 0)
    return {D: coeff for D in range(0, 1 << n, 2) if not peaks & ~(D ^ D >> 1)}


def _kcyc_triangular_matrix(n: int) -> tuple[list[frozenset[int]], list[list[int]]]:
    """The Kcyc of the canonical cyclic peak sets S_1, S_2, ... in [n], in
    cardinality-then-lex order, as a square matrix with one row per set.

    Entry (i, j) is the coefficient in Kcyc_{S_i} of the class of f(S_j),
    where f(S) = {s_1} ∪ {s_k - 1 : k >= 2} for S = {s_1 < s_2 < ...}. The
    ``triangularity`` suite checks that it is upper triangular with a
    nonzero diagonal, and that alone makes the Kcyc independent: such a
    square matrix has full rank, and its columns are some coordinates of
    the Kcyc. Two sets with one class f(S) give two equal columns, so the
    later set's nonzero diagonal entry would also sit below the diagonal,
    in the earlier set's column.
    """
    sets = cyclic_peak_sets(n)
    rows = [kcyc(S, n).masks for S in sets]
    mapped = []
    for S in sets:
        first, *rest = sorted(S)
        mapped.append(_canonical_mask(_mask([first, *(s - 1 for s in rest)], n), n))
    return sets, [[row.get(c, 0) for c in mapped] for row in rows]


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


def _truncate(x: QSym, m: int) -> dict[tuple[int, ...], int]:
    """x in m variables, x_{m+1} = x_{m+2} = ... = 0, as a map from exponent
    vectors to coefficients: M_alpha places the parts of alpha in order on
    |alpha| of the variables. Each key and placement gives its own vector,
    so no coefficient is zero."""
    out = {}
    for E, c in x.masks.items():
        sums = _partial_sums(E, x.degree)
        for idx in itertools.combinations(range(m), len(sums) - 1):
            expo = [0] * m
            for pos, a, b in zip(idx, sums, sums[1:]):
                expo[pos] = b - a
            out[tuple(expo)] = c
    return out


def _weight_poly(assignments, m: int) -> dict[tuple[int, ...], int]:
    """Brute-force weight enumerator: sum of products of x_{|f(i)|}."""
    out: Counter = Counter()
    for values in assignments:
        expo = [0] * m
        for v in values:
            expo[abs(v) - 1] += 1
        out[tuple(expo)] += 1
    return dict(out)


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


@_suite
def suite_table1(**_) -> Iterator[dict]:
    """The five degree-4 cyclic monomial expansions."""
    for key, expected in TABLE1.items():
        got = cyclic_monomial(4, key).as_qsym()
        yield _check(
            f"Mcyc class {sorted(key)} expansion",
            got == QSym(4, expected),
            repr(got),
        )


@_suite
def suite_cyclic_f(max_m: int = 5, **_) -> Iterator[dict]:
    """The degree-4 cyclic fundamental expansion and its pair oracle."""
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
    yield _check("Fcyc_{4,{1,3}} monomial expansion", elem.as_qsym() == expected)
    yield _check(
        "Fcyc_{4,{1,3}} via shifted fundamentals",
        _cyclic_fundamental_via_F(4, E) == expected,
    )
    if max_m < 1:
        yield _check(f"pair oracle m<={max_m}", [])
    for m in range(1, max_m + 1):
        yield _check(
            f"pair oracle m={m}",
            _fcyc_pair_oracle(4, E, m) == _truncate(elem.as_qsym(), m),
        )


@_suite
def suite_extensions(**_) -> Iterator[dict]:
    """Linear and toric extensions of the running 4-vertex example."""
    yield _check(
        "linear extensions",
        linear_extensions(D3) == [(2, 4, 1, 3), (2, 4, 3, 1)],
        str(linear_extensions(D3)),
    )
    tc = _toric_of(D3)
    yield _check("toric class size 5", len(tc.members) == 5, str(len(tc.members)))
    yield _check(
        "toric extensions",
        toric_extensions(D3) == [(1, 2, 4, 3), (1, 3, 2, 4)],
        str(toric_extensions(D3)),
    )
    yield _check(
        "toric extensions as rotation classes of linear extensions",
        {canonical_rotation(w) for w in linear_extensions(D3)}
        == set(toric_extensions(D3)),
    )


@_suite
def suite_enumerator(max_n: int = 4, max_m: int = 3, **_) -> Iterator[dict]:
    """Cyclic weight enumerator of the example, two ways, plus oracles."""
    tc = _toric_of(D3)
    delta = delta_toric(tc)
    via_cpk = _delta_toric_by_cpk(tc)
    via_rot = delta_toric_by_rotations(tc)
    # The member sum and its cPk oracle share one line.
    yield _check(
        "delta-cyc via cPk formula",
        delta == via_cpk == DELTA_CYC_D3,
        f"member sum {delta!r}, cPk route {via_cpk!r}",
    )
    yield _check("delta-cyc via rotation sums", via_rot == DELTA_CYC_D3, repr(via_rot))
    if max_m < 1:
        yield _check(f"delta-cyc brute-force weights m<={max_m}", [])
    for m in range(1, max_m + 1):
        brute = _weight_poly(_toric_enriched_set(tc, m), m)
        yield _check(
            f"delta-cyc brute-force weights m={m}",
            brute == _truncate(delta.as_qsym(), m),
        )
    # Linear enumerators against brute force, and the F-expansion shortcut.
    agree = []
    for n in range(1, max_n + 1):
        for w in itertools.permutations(range(1, n + 1)):
            dperm = delta_perm(w)
            if n <= 3 or w == (1, 3, 2, 4):
                for m in range(1, max_m + 1):
                    brute = _weight_poly(_enriched_set(_word_dag(w), m), m)
                    agree.append(brute == _truncate(dperm, m))
            agree.append(_k_fundamental(_mask(peak_set(w), n), n) == dperm._fundamental_masks())
    yield _check(f"delta oracles all words n<={max_n}", agree)
    # Kcyc of the cyclic peak set against the rotation route, which sums
    # the linear enumerators of all n rotations of the cyclic order w.
    agree = []
    for n in range(2, 7):
        for rest in itertools.permutations(range(2, n + 1)):
            w = (1, *rest)
            tc = toric_class(Dag.from_word(w))
            agree.append(delta_toric_by_rotations(tc) == kcyc(cpeak_set(w), n))
    yield _check("enumerators depend only on peak data, n<=6", agree)


def _is_disjoint_cover(whole: frozenset, pieces: list[frozenset]) -> bool:
    """The pieces are pairwise disjoint and their union is ``whole``."""
    return sum(map(len, pieces)) == len(whole) and frozenset().union(*pieces) == whole


@_suite
def suite_fundamental_lemma(max_n: int = 4, max_m: int = 3, **_) -> Iterator[dict]:
    """Disjoint-union decompositions of enriched partitions, all small DAGs
    and 200 seeded random draws."""
    dags = small_dags(max_n) + random_dags(200, max_n)
    linear_ok, toric_ok, spec_ok = [], [], []
    toric_done: set = set()
    # A DAG drawn k times is checked once and its outcomes count k times.
    for d, draws in Counter(dags).items():
        # The fast paths against their oracles count as linear failures.
        # The (2m)^n filter runs only up to m = 2, where it stays cheap.
        linear, spec = [], []
        delta = delta_dag(d)
        linear.append(delta == _delta_by_extensions(d))
        words = _linear_extensions_of(d)
        # The peak DP's total is the number of linear extensions.
        spec.append(sum(_peak_distribution(d.pred).values()) == len(words))
        for m in range(1, max_m + 1):
            whole = _enriched_set(d, m)
            pieces = [_enriched_set(_word_dag(w), m) for w in words]
            linear.append(_is_disjoint_cover(whole, pieces))
            if m <= 2:
                brute = frozenset(map(_values_key(d), _brute_enriched(d, m)))
                linear.append(whole == brute)
            # Brute-force weights, which do not rest on the lemma.
            linear.append(_truncate(delta, m) == _weight_poly(whole, m))
            spec.append(delta.specialize_ones(m) == len(whole))
            spec.append(omega_dag(d, m) == len(whole))
        linear_ok += linear * draws
        spec_ok += spec * draws
        tc = _toric_of(d)
        if tc in toric_done:
            continue
        toric_done.add(tc)
        # The class and both toric-extension routes against their flip and
        # rotation oracles, the member sum against its cPk oracle, and the
        # disjoint member sets it rests on, count as toric failures.
        extensions = _toric_extensions(tc.members)
        rotated = _toric_extensions_by_rotation(tc)
        toric_ok.append(tc.members == _toric_class_by_flips(d))
        toric_ok += [extensions == rotated, toric_extensions(tc.canonical) == rotated]
        toric_ok.append(_delta_toric(tc) == _delta_toric_by_cpk(tc))
        # The members' linear extensions are the n rotations of the toric
        # extensions, so their peak DPs' totals sum to n for each.
        totals = sum(sum(_peak_distribution(e.pred).values()) for e in tc.members)
        spec_ok.append(totals == len(d.vertices) * len(extensions))
        for m in range(1, max_m + 1):
            whole = _toric_enriched_set(tc, m)
            members = [_enriched_set(member, m) for member in tc.members]
            toric_ok.append(_is_disjoint_cover(whole, members))
            pieces = [
                _toric_enriched_set(_toric_of(_word_dag(w)), m) for w in extensions
            ]
            toric_ok.append(_is_disjoint_cover(whole, pieces))
            toric_ok.append(_truncate(_delta_toric(tc).as_qsym(), m) == _weight_poly(whole, m))
            spec_ok.append(_delta_toric(tc).specialize_ones(m) == len(whole))
            spec_ok.append(omega_toric(tc, m) == len(whole))
    yield _check(f"linear decomposition, {len(dags)} DAGs, m<={max_m}", linear_ok)
    yield _check(f"toric decomposition, {len(toric_done)} classes, m<={max_m}", toric_ok)
    yield _check("specialization counts", spec_ok)


@_suite
def suite_order_poly(max_n: int = 5, max_m: int = 3, **_) -> Iterator[dict]:
    """Formula, brute force and series coefficients agree; run invariants."""
    order = 6  # the series are checked at m = 0..order
    formula_ok, series_ok, cyc_ok = [], [], []
    for n in range(1, max_n + 1):
        classes: set = set()
        for w in itertools.permutations(range(1, n + 1)):
            coeffs = gf_omega(w, order)
            series_ok += [coeffs[m] == omega(w, m) for m in range(order + 1)]
            formula_ok += [
                omega(w, m) == _count_enriched_word(w, m) for m in range(1, max_m + 1)
            ]
            formula_ok.append(omega(w, 0) == 0)
            if n <= 4:  # the peak-set DP of w's chain DAG
                chain = _word_dag(w)
                formula_ok += [omega_dag(chain, m) == omega(w, m) for m in range(max_m + 1)]
            classes.add(canonical_rotation(w))
        for w in sorted(classes):
            cyc = [omega_cyc(w, m) for m in range(max(order, max_m) + 1)]
            cyc_ok += [
                value == sum(omega(v, m) for v in rotations(w)) for m, value in enumerate(cyc)
            ]
            ccoeffs = gf_omega_cyc(w, order)
            cyc_ok += [ccoeffs[m] == cyc[m] for m in range(order + 1)]
            if n <= 4:
                tc = _toric_of(_word_dag(w))
                for m in range(1, max_m + 1):
                    cyc_ok.append(omega_toric(tc, m) == cyc[m])
                    cyc_ok.append(len(_toric_enriched_set(tc, m)) == cyc[m])
    yield _check(f"omega == brute force, n<={max_n}, m<={max_m}", formula_ok)
    yield _check(f"omega == series coefficients, m<={order}", series_ok)
    yield _check(f"cyclic triple agreement, n<={max_n}", cyc_ok)
    run_ok, rot_ok, poly_ok = [], [], []
    for n in range(1, 8):
        for w in itertools.permutations(range(1, n + 1)):
            pk = len(peak_set(w))
            decomp = runs(w)
            run_ok.append(len(decomp.runs) == 2 * pk + 2)
            run_ok.append(len(decomp.markable) == n - 2 * pk - 1)
            if n <= 6:
                cpk = len(cpeak_set(w))
                pks = Counter(len(peak_set(v)) for v in rotations(w))
                rot_ok.append(pks[cpk - 1] == 2 * cpk and pks[cpk - 1] + pks[cpk] == n)
            if n <= 4:
                pts = [(m, omega(w, m)) for m in range(1, n + 2)]
                poly_ok += [_interpolate(pts, m) == omega(w, m) for m in range(n + 2, n + 5)]
    yield _check("run invariants, n<=7", run_ok)
    yield _check("rotation peak-count structure, n<=6", rot_ok)
    yield _check("polynomiality of omega, n<=4", poly_ok)


@_suite
def suite_markings(max_m: int = 3, **_) -> Iterator[dict]:
    """The enriched-partition-to-marking correspondence on 4-letter words."""
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
    yield _check("marking image matches enumeration, S_4", image_ok)
    yield _check("every fiber has size 2^(2pk+1)", fiber_ok)
    yield _check("marking counts match omega", count_ok)
    w = (1, 4, 3, 2, 5, 6)
    decomp = runs(w)
    yield _check(
        "run decomposition of 143256",
        [sorted(I) for I in decomp.index_sets]
        == [[0, 1], [2], [3, 4], [5, 6, 7]]
        and decomp.markable == frozenset({3, 5, 6}),
        str(decomp),
    )
    f = {1: 1, 4: -2, 3: -4, 2: -4, 5: -5, 6: 5}
    mk = partition_to_marking(f, w, 5)
    yield _check(
        "displayed partition maps to bars {2,2}, mark {5}",
        mk == Marking(w, (2, 2), frozenset({5})),
        str(mk),
    )
    displayed = {Marking(w, (2, 2), frozenset({5})), Marking(w, (2, 6), frozenset({3}))}
    yield _check(
        "both displayed markings occur for m=5",
        displayed <= set(enumerate_markings(w, 5)),
    )
    fibers1 = marking_fibers((1,), 1)
    yield _check(
        "w=1, m=1 collapses to one empty marking with fiber 2",
        fibers1 == Counter({Marking((1,), (), frozenset()): 2}),
    )


@_suite
def suite_triangularity(max_n: int = 6, **_) -> Iterator[dict]:
    """Kcyc against mapped cyclic monomial classes: triangular, full rank."""
    if max_n < 2:
        yield _check(f"triangularity and rank n<={max_n}", [])
    for n in range(2, max_n + 1):
        sets, matrix = _kcyc_triangular_matrix(n)
        bad = [
            (i, j)
            for i, row in enumerate(matrix)
            for j in range(i + 1)
            if (row[j] != 0) != (i == j)
        ]
        yield _check(
            f"triangularity and rank n={n}",
            not bad,
            f"bad entry at {bad[0]}" if bad else f"{len(sets)} classes",
        )
    yield _check(
        "n=4 cyclic peak sets are {1} and {1,3}",
        cyclic_peak_sets(4) == [frozenset({1}), frozenset({1, 3})],
    )


@_suite
def suite_closure(max_n: int = 6, **_) -> Iterator[dict]:
    """The cyclic peak functions form a subring: products decompose."""
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
    yield _check(f"{len(products)} witness products, degrees <= {max_n}", products)
    k1 = kcyc({1}, 2)
    yield _check(
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
    yield _check(
        f"delta-cyc product rule on {len(unions)} disjoint unions",
        [
            _delta_toric(_toric_of(a)) * _delta_toric(_toric_of(b))
            == _delta_toric(_toric_of(disjoint_union(a, b)))
            for a, b in unions
        ],
    )


@_suite
def suite_shuffle(max_n: int = 6, **_) -> Iterator[dict]:
    """K_{Pk pi} K_{Pk sigma} = sum of K_{Pk tau} over interleavings."""
    products = []
    for a in range(1, max_n):
        for b in range(1, max_n - a + 1):
            for pi in itertools.permutations(range(1, a + 1)):
                for sig0 in itertools.permutations(range(1, b + 1)):
                    sig = standardize(sig0, a)
                    lhs = _k_peak_product(peak_set(pi), a, peak_set(sig0), b)
                    taus = shuffle_set(pi, sig)
                    counts = Counter(_mask(peak_set(tau), a + b) for tau in taus)
                    rhs = _delta_from_peaks(a + b, counts)
                    products.append(lhs == rhs and len(taus) == math.comb(a + b, a))
    yield _check(f"{len(products)} shuffle products, degrees <= {max_n}", products)


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


def _run(name: str, kwargs: dict) -> dict:
    """The report of one suite. An exception from the library fails the
    suite as its only check, named by the exception's type and detailed
    by the first line of its message, so ``verify all`` goes on."""
    try:
        checks = SUITES[name](**kwargs)
    except Exception as exc:
        checks = [_check(f"raised {type(exc).__name__}", False, str(exc).partition("\n")[0])]
    return {"suite": name, "checks": checks, "pass": all(c["pass"] for c in checks)}


def run_suite(name: str, **kwargs) -> dict:
    """The report of one suite, or of every suite for ``all``. The sizes a
    user sets, ``max_n`` and ``max_m``, are the only keywords; a suite
    ignores the one it has no use for."""
    unknown = sorted(kwargs.keys() - {"max_n", "max_m"})
    if unknown:
        raise TypeError(f"run_suite takes only max_n and max_m, not {', '.join(unknown)}")
    if name == "all":
        reports = [_run(key, kwargs) for key in SUITES]
        return {
            "suite": "all",
            "reports": reports,
            "pass": all(r["pass"] for r in reports),
        }
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return _run(name, kwargs)
