"""DAGs on finite label sets, flips, toric classes and extensions.

A ``Dag`` is an immutable labeled digraph, validated acyclic on
construction. Every DAG algorithm reads one bit index, ``_index``: bit k
stands for the k-th smallest label. A toric class is the closure of a DAG
under flips at sources and sinks; its canonical member is the one with
lexicographically least sorted arc list.

The toric split lives here alone: ``_without_bridges``, ``_components``
and ``_bridgeless_classes`` cut a DAG or a class into the pieces that the
toric enumerators factor over.
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
        _, pred = _index(self.vertices, self.arcs)
        if len(_topological_order(pred)) != len(pred):
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
        for key in ("vertices", "arcs"):
            if key not in data:
                raise ValueError(f"missing key {key!r}")
        vertices, arcs = data["vertices"], data["arcs"]
        if type(vertices) is not list:
            raise ValueError("vertices must be a list of integers")
        if any(type(v) is not int for v in vertices):
            raise ValueError("vertices must be integers")
        if type(arcs) is not list:
            raise ValueError("arcs must be a list of two-element lists of integers")
        for arc in arcs:
            if type(arc) is not list or len(arc) != 2:
                raise ValueError(
                    f"an arc must be a two-element list of integers, not {json.dumps(arc)}"
                )
        if any(type(v) is not int for arc in arcs for v in arc):
            raise ValueError("arc endpoints must be integers")
        return cls.make(vertices, arcs)


def _index(vertices: Iterable[int], arcs: Iterable[Arc]) -> tuple[list[int], list[int]]:
    """The bit index every DAG algorithm reads: bit k stands for the k-th
    smallest label, and ``pred[k]`` is the mask of its predecessors."""
    labels = sorted(vertices)
    bit = {v: 1 << k for k, v in enumerate(labels)}
    pred = dict.fromkeys(labels, 0)
    for i, j in arcs:
        pred[j] |= bit[i]
    return labels, list(pred.values())


def _topological_order(pred: list[int]) -> list[int]:
    """Some topological order of the bits: sweeps over the unplaced bits,
    in label order, place each bit whose predecessors are all placed. On a
    digraph with a cycle a sweep places nothing, and the order stops short."""
    order, placed, todo = [], 0, range(len(pred))
    while todo:
        rest = []
        for k in todo:
            if pred[k] & ~placed:
                rest.append(k)
            else:
                placed |= 1 << k
                order.append(k)
        if len(rest) == len(todo):
            break
        todo = rest
    return order


def _ancestors(pred: list[int]) -> list[int]:
    """Per bit, the mask of the bits with a directed path to it."""
    anc = list(pred)
    for k in _topological_order(pred):
        for j in range(len(pred)):
            if pred[k] >> j & 1:
                anc[k] |= anc[j]
    return anc


def _without_bridges(d: Dag) -> Dag:
    """d minus its bridges, the arcs on no cycle, or d itself when it has
    none.

    An enriched partition f orients every edge, and that orientation lies
    in [d] exactly when each cycle has d's forward-minus-backward count
    (Pretzel's criterion). No cycle runs through a bridge, so f is an
    enriched toric partition of [d] exactly when it is one of [d minus its
    bridges]. An arc is a bridge when its ends fall apart once it is
    removed; one reachability sweep over undirected adjacency masks tests
    each arc. A bridge stays removed, which changes no cycle.
    """
    labels, pred = _index(d.vertices, d.arcs)
    adj = _undirected(pred)
    bridges = set()
    for k, p in enumerate(pred):
        for j in _bits(p):
            adj[j] ^= 1 << k
            adj[k] ^= 1 << j
            # On a cycle, through a common neighbour or a longer way round:
            # put the arc back.
            if adj[j] & adj[k] or _reach(adj, j) >> k & 1:
                adj[j] ^= 1 << k
                adj[k] ^= 1 << j
            else:
                bridges.add((labels[j], labels[k]))
    return Dag(d.vertices, d.arcs - bridges) if bridges else d


def _components(d: Dag) -> list[Dag]:
    """The connected components of d's underlying graph, as sub-DAGs that
    keep their labels, in order of their least labels. When d is empty or
    connected, the list is ``[d]`` itself."""
    labels, pred = _index(d.vertices, d.arcs)
    adj = _undirected(pred)
    parts, left = [], (1 << len(labels)) - 1
    while left:
        parts.append(_reach(adj, (left & -left).bit_length() - 1))
        left &= ~parts[-1]
    if len(parts) <= 1:
        return [d]
    return [
        Dag(
            frozenset(labels[k] for k in _bits(part)),
            frozenset((labels[j], labels[k]) for k in _bits(part) for j in _bits(pred[k])),
        )
        for part in parts
    ]


def _undirected(pred: list[int]) -> list[int]:
    """Per bit, the mask of its neighbours in the underlying graph."""
    adj = list(pred)
    for k, p in enumerate(pred):
        for j in _bits(p):
            adj[j] |= 1 << k
    return adj


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(adj: list[int], start: int) -> int:
    """The mask of the bits reachable from bit ``start`` along ``adj``."""
    seen = frontier = 1 << start
    while frontier:
        step = 0
        for k in _bits(frontier):
            step |= adj[k]
        frontier = step & ~seen
        seen |= frontier
    return seen


def transitive_closure(d: Dag) -> Dag:
    """Unique transitive closure: an arc to each vertex from each ancestor."""
    labels, pred = _index(d.vertices, d.arcs)
    arcs = frozenset(
        (labels[j], v)
        for v, anc in zip(labels, _ancestors(pred))
        for j in range(len(labels))
        if anc >> j & 1
    )
    return Dag(d.vertices, arcs)


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


def _bridgeless_classes(tc: ToricClass) -> Iterable[ToricClass]:
    """The toric classes of the 2-edge-connected components of the
    canonical member, built one at a time, or ``[tc]`` itself when it has
    one and no bridge. Their enriched toric partitions, joined, are those
    of tc (see ``_without_bridges``)."""
    parts = _components(_without_bridges(tc.canonical))
    return [tc] if parts[0] is tc.canonical else map(toric_class, parts)


def linear_extensions(d: Dag) -> list[Word]:
    """All topological orderings of d, sorted lexicographically: a
    depth-first search over bitmasks of placed vertices that tries, in label
    order, each vertex whose predecessor mask lies inside the placed mask."""
    return _extensions(d, least_first=False)


def _extensions(d: Dag, least_first: bool) -> list[Word]:
    """``linear_extensions`` of d or, with ``least_first``, those of them
    that start with the least label (none unless it is a source)."""
    labels, pred = _index(d.vertices, d.arcs)
    choices = [(v, 1 << k, p) for k, (v, p) in enumerate(zip(labels, pred))]
    full = (1 << len(labels)) - 1
    out: list[Word] = []

    def rec(placed: int, prefix: tuple[int, ...]) -> None:
        if placed == full:
            out.append(prefix)
            return
        for v, b, p in choices:
            if not placed & b and not p & ~placed:
                rec(placed | b, prefix + (v,))

    head = labels[:1] if least_first else []
    if not any(pred[: len(head)]):
        rec((1 << len(head)) - 1, tuple(head))
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


def is_toric_transitive(d: Dag) -> bool:
    """Every chorded directed path i_1 -> ... -> i_k has all its chords.

    The vertices on the paths along an arc a -> b are a, b and the
    descendants of a that are ancestors of b; each of them needs an arc
    from every one of them that reaches it.
    """
    _, pred = _index(d.vertices, d.arcs)
    anc = _ancestors(pred)
    bits = range(len(pred))
    for b in bits:
        for a in bits:
            if pred[b] >> a & 1:
                on = 1 << a | 1 << b
                on |= sum(1 << v for v in bits if anc[b] >> v & 1 and anc[v] >> a & 1)
                if any(anc[v] & on & ~pred[v] for v in bits if on >> v & 1):
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
