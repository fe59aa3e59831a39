"""DAGs on finite label sets, flips, toric classes and extensions.

A ``Dag`` is an immutable labeled digraph, validated acyclic on
construction. The DAG algorithms read one bit index, built by ``_index``
when the DAG is validated and kept on it as ``labels`` and ``pred``: bit k
stands for the k-th smallest label. Five read the arc set instead:
``flip``, ``sources``, ``sinks`` and ``disjoint_union`` here, and
``enriched.is_enriched``. A toric class is the closure of a DAG under flips
at sources and sinks; its canonical member is the one with
lexicographically least sorted arc list. ``toric_class`` searches it on the
bit index and builds each member from its predecessor masks (``_from_masks``).
``flip``, ``sources`` and ``sinks`` stay on arc sets, as they are the route
of the oracle ``verify._toric_class_by_flips``, which shares no flip code
with that search.

The toric split lives here alone: ``_without_bridges``, ``_components``
and ``_bridgeless_classes`` cut a DAG or a class into the pieces that the
toric enumerators factor over.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, Sequence

from .permstat import Word, check_word

Arc = tuple[int, int]


class _Frozen:
    """An immutable value on ``__slots__``, as a frozen dataclass behaves
    without the cost of importing and running ``dataclasses``. A subclass
    names its constructor's fields, in order, in ``__match_args__``, which
    ``repr`` shows, and returns the tuple of fields behind ``==`` and
    hashing from ``_key``. Assignment and ``del`` raise
    ``dataclasses.FrozenInstanceError``; pickling and copying restore every
    slot without calling the constructor."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


class Dag(_Frozen):
    """A DAG on a finite label set. ``labels`` and ``pred`` are its bit
    index (see ``_index``), built by the acyclicity check and kept; they
    take no part in equality, hashing or ``repr``."""

    __slots__ = ("vertices", "arcs", "labels", "pred")
    __match_args__ = ("vertices", "arcs")
    vertices: frozenset[int]
    arcs: frozenset[Arc]
    labels: tuple[int, ...]
    pred: tuple[int, ...]

    def __init__(self, vertices: frozenset[int], arcs: frozenset[Arc]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arcs", arcs)
        self.__post_init__()

    def _key(self) -> tuple:
        return self.vertices, self.arcs

    def __post_init__(self):
        for i, j in self.arcs:
            if i == j:
                raise ValueError(f"self loop at {i}")
            if i not in self.vertices or j not in self.vertices:
                raise ValueError(f"arc ({i},{j}) leaves the vertex set")
        self._keep_index(*_index(self.vertices, self.arcs))

    def _keep_index(self, labels: tuple[int, ...], pred: tuple[int, ...]) -> None:
        """Keep the bit index, once it passes the acyclicity check."""
        if len(_topological_order(pred)) != len(pred):
            raise ValueError("digraph contains a directed cycle")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "pred", pred)

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
        _listed_once(vertices, "vertex")
        _listed_once(map(tuple, arcs), "arc")
        return cls.make(vertices, arcs)


def _from_masks(d: Dag, nbrs: Sequence[int]) -> Callable[[tuple[int, ...]], Dag]:
    """The constructor of the DAGs on d's vertices and bit index whose arcs
    join neighbours in ``nbrs``, one neighbour mask per bit, such as the
    members of d's toric class. It takes a DAG's predecessor masks and
    reads its arcs off them, each arc tuple built once and shared by every
    DAG it builds, and runs the acyclicity check of a DAG built from arcs;
    no index is derived again."""
    labels, vertices = d.labels, d.vertices
    into = [[(1 << j, (labels[j], v)) for j in _bits(a)] for v, a in zip(labels, nbrs)]

    def build(pred: tuple[int, ...]) -> Dag:
        e = object.__new__(Dag)
        object.__setattr__(e, "vertices", vertices)
        object.__setattr__(
            e, "arcs", frozenset([arc for p, row in zip(pred, into) for b, arc in row if p & b])
        )
        e._keep_index(labels, pred)
        return e

    return build


def _listed_once(items: Iterable, what: str) -> None:
    """Refuse a JSON list that repeats an item, which a set would drop."""
    seen = set()
    for x in items:
        if x in seen:
            raise ValueError(f"{what} {json.dumps(x)} is listed twice")
        seen.add(x)


def _index(
    vertices: Iterable[int], arcs: Iterable[Arc]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The bit index every DAG algorithm reads: bit k stands for the k-th
    smallest label, and ``pred[k]`` is the mask of its predecessors. Each
    ``Dag`` builds it once, on construction, as ``labels`` and ``pred``."""
    labels = sorted(vertices)
    bit = {v: 1 << k for k, v in enumerate(labels)}
    pred = dict.fromkeys(labels, 0)
    for i, j in arcs:
        pred[j] |= bit[i]
    return tuple(labels), tuple(pred.values())


def _topological_order(pred: Sequence[int]) -> list[int]:
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


def _ancestors(pred: Sequence[int]) -> list[int]:
    """Per bit, the mask of the bits with a directed path to it."""
    anc = list(pred)
    for k in _topological_order(pred):
        for j in range(len(pred)):
            if pred[k] >> j & 1:
                anc[k] |= anc[j]
    return anc


def _without_bridges(d: Dag) -> Dag:
    """d minus its bridges, the arcs on no cycle, or d itself when it has
    none. An arc is a bridge when its ends fall apart once it is removed;
    one reachability sweep over undirected adjacency masks tests each arc.
    A bridge stays removed, which changes no cycle. The result is built
    from its predecessor masks, on d's labels."""
    pred = d.pred
    adj = _undirected(pred)
    kept = list(pred)
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
                kept[k] ^= 1 << j
    kept = tuple(kept)
    return d if kept == pred else _from_masks(d, adj)(kept)


def _components(d: Dag) -> list[Dag]:
    """The connected components of d's underlying graph, as sub-DAGs that
    keep their labels, in order of their least labels. When d is empty or
    connected, the list is ``[d]`` itself."""
    labels, pred = d.labels, d.pred
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


def _undirected(pred: Sequence[int]) -> list[int]:
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
    labels, pred = d.labels, d.pred
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


class ToricClass(_Frozen):
    """The members of a toric class and its canonical member. It hashes and
    compares by the canonical member alone, which determines the class."""

    __slots__ = __match_args__ = ("members", "canonical")
    members: frozenset[Dag]
    canonical: Dag

    def __init__(self, members: frozenset[Dag], canonical: Dag):
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "canonical", canonical)

    def _key(self) -> tuple:
        return (self.canonical,)

    def to_json(self) -> str:
        """``json.dumps`` of {"canonical", "size"} with sorted keys, the
        canonical member's JSON text set in as it is."""
        return '{"canonical": %s, "size": %d}' % (self.canonical.to_json(), len(self.members))


def toric_class(d: Dag) -> ToricClass:
    """Closure of d under flips at sources and sinks, searched on the bit
    index. A member is one int holding its predecessor masks, n bits per
    vertex, and a flip at v is one XOR with a mask that toggles both bits
    of each edge at v. A vertex with a neighbour is a source when its mask
    is 0 and a sink when its mask is its neighbour mask. Every member but
    d itself is then built once from its masks, and checked acyclic."""
    if not d.arcs:  # no flip applies
        return ToricClass(frozenset([d]), d)
    pred = d.pred
    n = len(pred)
    full = (1 << n) - 1
    shifts = [k * n for k in range(n)]
    adj = _undirected(pred)
    flips = []
    for v, nbrs in enumerate(adj):
        if nbrs:
            toggle = 0
            for u in _bits(nbrs):
                toggle |= 1 << (v * n + u) | 1 << (u * n + v)
            flips.append((v * n, nbrs, toggle))
    start = sum(p << shift for p, shift in zip(pred, shifts))
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        for shift, nbrs, toggle in flips:
            mask = state >> shift & full
            if not mask or mask == nbrs:
                nxt = state ^ toggle
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    seen.remove(start)
    build = _from_masks(d, adj)
    members = [d]
    members += (build(tuple(state >> shift & full for shift in shifts)) for state in seen)
    return ToricClass(frozenset(members), min(members, key=lambda m: sorted(m.arcs)))


def _class_without_bridges(d: Dag) -> ToricClass:
    """The toric class of d minus its bridges. It has the toric
    extensions, enriched toric partitions, Δ and Ω of [d], and 2^b times
    fewer members for b bridges: a word or an enriched partition orients
    every edge, that orientation lies in [d] exactly when each cycle has
    d's forward-minus-backward count (Pretzel's criterion), and no cycle
    runs through a bridge."""
    return toric_class(_without_bridges(d))


def _bridgeless_classes(tc: ToricClass) -> Iterable[ToricClass]:
    """The toric classes of the 2-edge-connected components of the
    canonical member, built one at a time, or ``[tc]`` itself when it has
    one and no bridge. Their enriched toric partitions, joined, are those
    of tc (see ``_class_without_bridges``)."""
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
    labels, pred = d.labels, d.pred
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

    head = labels[:1] if least_first else ()
    if not any(pred[: len(head)]):
        rec((1 << len(head)) - 1, head)
    return out


def toric_extensions(d: Dag) -> list[Word]:
    """Cyclic classes torically extending [d], as canonical rotations.

    Each is listed once, cut at its least label: there it is a linear
    extension of exactly one member of ``_class_without_bridges(d)``.
    """
    return _toric_extensions(_class_without_bridges(d).members)


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
    pred = d.pred
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
