"""DAGs on finite label sets, flips, toric classes and extensions.

A ``Dag`` is an immutable labeled digraph, validated acyclic on
construction. A toric class is the closure of a DAG under flips at
sources and sinks; its canonical member is the one with lexicographically
least sorted arc list.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Iterable, Iterator, Sequence

from .permstat import Word, check_word

Arc = tuple[int, int]


@dataclasses.dataclass(frozen=True)
class Dag:
    vertices: frozenset[int]
    arcs: frozenset[Arc]

    def __post_init__(self):
        for i, j in self.arcs:
            if i == j:
                raise ValueError(f"self loop at {i}")
            if i not in self.vertices or j not in self.vertices:
                raise ValueError(f"arc ({i},{j}) leaves the vertex set")
        if _has_cycle(self.vertices, self.arcs):
            raise ValueError("digraph contains a directed cycle")

    @classmethod
    def make(cls, vertices: Iterable[int], arcs: Iterable[Sequence[int]]) -> "Dag":
        return cls(frozenset(vertices), frozenset((i, j) for i, j in arcs))

    @classmethod
    def from_word(cls, w: Sequence[int]) -> "Dag":
        """The total linear order DAG of a permutation."""
        word = check_word(w)
        n = len(word)
        arcs = frozenset(
            (word[i], word[j]) for i in range(n) for j in range(i + 1, n)
        )
        return cls(frozenset(word), arcs)

    def to_json(self) -> str:
        return json.dumps(
            {"vertices": sorted(self.vertices), "arcs": sorted(map(list, self.arcs))},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "Dag":
        data = json.loads(payload)
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object with vertices and arcs")
        if any(type(v) is not int for v in data["vertices"]):
            raise ValueError("vertices must be integers")
        return cls.make(data["vertices"], data["arcs"])


def _has_cycle(vertices: frozenset[int], arcs: frozenset[Arc]) -> bool:
    return len(_topological_order(vertices, arcs)) != len(vertices)


def _topological_order(vertices: frozenset[int], arcs: frozenset[Arc]) -> list[int]:
    """Some topological order, by Kahn's algorithm; on a digraph with a
    cycle it stops short and misses the vertices on or after a cycle."""
    indeg = {v: 0 for v in vertices}
    succ: dict[int, list[int]] = {v: [] for v in vertices}
    for i, j in arcs:
        succ[i].append(j)
        indeg[j] += 1
    queue = [v for v in vertices if indeg[v] == 0]
    order = []
    while queue:
        v = queue.pop()
        order.append(v)
        for u in succ[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    return order


def transitive_closure(d: Dag) -> Dag:
    """Unique transitive closure, by reachability along arcs."""
    succ: dict[int, set[int]] = {v: set() for v in d.vertices}
    for i, j in d.arcs:
        succ[i].add(j)
    closed = set(d.arcs)
    for v in d.vertices:
        stack, reach = list(succ[v]), set()
        while stack:
            u = stack.pop()
            if u not in reach:
                reach.add(u)
                stack.extend(succ[u])
        closed.update((v, u) for u in reach)
    return Dag(d.vertices, frozenset(closed))


def sources(d: Dag) -> frozenset[int]:
    heads = {j for _, j in d.arcs}
    return frozenset(d.vertices - heads)


def sinks(d: Dag) -> frozenset[int]:
    tails = {i for i, _ in d.arcs}
    return frozenset(d.vertices - tails)


def flip(d: Dag, v: int) -> Dag:
    """Reverse every arc incident to v; v must be a source or a sink."""
    if v not in sources(d) and v not in sinks(d):
        raise ValueError(f"vertex {v} is neither a source nor a sink")
    arcs = frozenset(
        (j, i) if v in (i, j) else (i, j) for i, j in d.arcs
    )
    return Dag(d.vertices, arcs)


@dataclasses.dataclass(frozen=True)
class ToricClass:
    """The members of a toric class and its canonical member. It hashes and
    compares by the canonical member alone, which determines the class."""

    members: frozenset[Dag] = dataclasses.field(compare=False)
    canonical: Dag

    def to_json(self) -> str:
        return json.dumps(
            {
                "canonical": json.loads(self.canonical.to_json()),
                "size": len(self.members),
            },
            sort_keys=True,
        )


def toric_class(d: Dag) -> ToricClass:
    """Closure of d under flips at sources and sinks. Such a flip leaves a
    DAG acyclic, so the search flips plain arc sets and builds each member
    as a checked ``Dag`` once."""
    seen = {d.arcs}
    frontier = [d.arcs]
    while frontier:
        arcs = frontier.pop()
        tails = {i for i, _ in arcs}
        heads = {j for _, j in arcs}
        for v in tails ^ heads:  # the sources and sinks with an arc
            nxt = frozenset((j, i) if v in (i, j) else (i, j) for i, j in arcs)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    members = {arcs: Dag(d.vertices, arcs) for arcs in seen}
    return ToricClass(frozenset(members.values()), members[min(seen, key=sorted)])


def linear_extensions(d: Dag) -> list[Word]:
    """All topological orderings of d, sorted lexicographically: a
    depth-first search over bitmasks of placed vertices that tries, in label
    order, each vertex whose predecessor mask lies inside the placed mask."""
    return _extensions(d, least_first=False)


def _extensions(d: Dag, least_first: bool) -> list[Word]:
    """``linear_extensions`` of d or, with ``least_first``, those of them
    that start with the least label (none unless it is a source)."""
    verts = sorted(d.vertices)
    bit = {v: 1 << k for k, v in enumerate(verts)}
    pred = dict.fromkeys(verts, 0)
    for i, j in d.arcs:
        pred[j] |= bit[i]
    choices = [(v, bit[v], pred[v]) for v in verts]
    full = (1 << len(verts)) - 1
    out: list[Word] = []

    def rec(placed: int, prefix: tuple[int, ...]) -> None:
        if placed == full:
            out.append(prefix)
            return
        for v, b, p in choices:
            if not placed & b and not p & ~placed:
                rec(placed | b, prefix + (v,))

    head = verts[:1] if least_first else []
    if not any(pred[v] for v in head):
        rec(sum(bit[v] for v in head), tuple(head))
    return out


def toric_extensions(d: Dag) -> list[Word]:
    """Cyclic classes torically extending [d], as canonical rotations.

    Each is listed once, cut at its least label: there it is a linear
    extension of exactly one member of the class.
    """
    return _toric_extensions(toric_class(d).members)


def _toric_extensions(members: Iterable[Dag]) -> list[Word]:
    """``toric_extensions`` of a class whose members are already known. Cut
    at its least label v, a toric extension is a linear extension of the
    one member whose arcs it induces, and v is a source of that member."""
    return sorted(w for member in members for w in _extensions(member, least_first=True))


def _paths(succ: dict[int, list[int]], a: int, b: int) -> Iterator[tuple[int, ...]]:
    """All simple directed paths from a to b with at least one interior vertex."""
    stack: list[tuple[int, tuple[int, ...]]] = [(a, (a,))]
    while stack:
        v, path = stack.pop()
        for u in succ[v]:
            if u in path:
                continue
            if u == b:
                if len(path) >= 2:
                    yield path + (u,)
            else:
                stack.append((u, path + (u,)))


def is_toric_transitive(d: Dag) -> bool:
    """Every chorded directed path i_1 -> ... -> i_k has all its chords."""
    succ: dict[int, list[int]] = {v: [] for v in d.vertices}
    for i, j in d.arcs:
        succ[i].append(j)
    for a, b in d.arcs:
        for path in _paths(succ, a, b):
            k = len(path)
            for x in range(k):
                for y in range(x + 1, k):
                    if (path[x], path[y]) not in d.arcs:
                        return False
    return True


def is_toric_poset(tc: ToricClass) -> bool:
    """Whether the canonical member, and so every member, is toric
    transitive; the tests check that all members agree on every class with
    at most 4 vertices."""
    return is_toric_transitive(tc.canonical)


def disjoint_union(d: Dag, e: Dag) -> Dag:
    """Union digraph on disjoint vertex sets."""
    if d.vertices & e.vertices:
        raise ValueError(f"vertex sets overlap: {sorted(d.vertices & e.vertices)}")
    return Dag(d.vertices | e.vertices, d.arcs | e.arcs)
