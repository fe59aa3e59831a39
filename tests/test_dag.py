import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricpeaks.dag import (
    Dag,
    _components,
    _without_bridges,
    disjoint_union,
    flip,
    is_toric_poset,
    is_toric_transitive,
    linear_extensions,
    sinks,
    sources,
    toric_class,
    toric_extensions,
    transitive_closure,
)
from toricpeaks.verify import (
    _toric_class_by_flips,
    _toric_extensions_by_rotation,
    small_dags,
)

D3 = Dag.make([1, 2, 3, 4], [(2, 1), (2, 4), (2, 3), (4, 1), (4, 3)])


def test_cycle_rejected():
    with pytest.raises(ValueError):
        Dag.make([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError):
        Dag.make([1], [(1, 1)])


def test_arc_outside_vertices_rejected():
    with pytest.raises(ValueError):
        Dag.make([1, 2], [(1, 3)])


def test_from_word_is_total_order():
    d = Dag.from_word((2, 1, 3))
    assert d.arcs == frozenset({(2, 1), (2, 3), (1, 3)})
    assert linear_extensions(d) == [(2, 1, 3)]


def test_transitive_closure():
    d = Dag.make([1, 2, 3], [(1, 2), (2, 3)])
    assert transitive_closure(d).arcs == frozenset({(1, 2), (2, 3), (1, 3)})


def test_sources_sinks_and_flip():
    assert sources(D3) == frozenset({2})
    assert sinks(D3) == frozenset({1, 3})
    flipped = flip(D3, 2)
    assert (1, 2) in flipped.arcs and (3, 2) in flipped.arcs
    with pytest.raises(ValueError):
        flip(D3, 4)


def test_linear_extensions_of_example():
    assert linear_extensions(D3) == [(2, 4, 1, 3), (2, 4, 3, 1)]


def test_toric_class_of_example_has_five_members():
    tc = toric_class(D3)
    assert len(tc.members) == 5
    assert D3 in tc.members
    # the class is the same from any member
    for member in tc.members:
        assert toric_class(member).members == tc.members


def test_toric_extensions_of_example():
    assert toric_extensions(D3) == [(1, 2, 4, 3), (1, 3, 2, 4)]


def is_toric_transitive_by_paths(d):
    """Oracle for ``is_toric_transitive``: list every simple directed path
    with an interior vertex along each arc a -> b, and look up its chords."""
    succ = {v: [] for v in d.vertices}
    for i, j in d.arcs:
        succ[i].append(j)
    for a, b in d.arcs:
        stack = [(a, (a,))]
        while stack:
            v, path = stack.pop()
            for u in succ[v]:
                if u == b and len(path) >= 2:
                    if any(arc not in d.arcs for arc in itertools.combinations(path + (b,), 2)):
                        return False
                elif u != b and u not in path:
                    stack.append((u, path + (u,)))
    return True


def test_total_orders_are_toric_posets():
    for w in [(1, 2, 3), (3, 1, 2), (2, 4, 1, 3)]:
        assert is_toric_transitive(Dag.from_word(w))
        assert is_toric_poset(toric_class(Dag.from_word(w)))


def test_toric_transitivity_is_a_class_invariant():
    classes = {}
    for d in small_dags(4):
        tc = toric_class(d)
        classes[tc.canonical] = tc
    assert len(classes) == 121
    for tc in classes.values():
        values = {is_toric_transitive(member) for member in tc.members}
        assert values == {is_toric_poset(tc)}
        assert values == {is_toric_transitive_by_paths(member) for member in tc.members}


def test_non_toric_transitive_example():
    # without the long arc there is no chord requirement at all
    assert is_toric_transitive(Dag.make([1, 2, 3], [(1, 2), (2, 3)]))
    assert is_toric_transitive(Dag.make([1, 2, 3], [(1, 2), (2, 3), (1, 3)]))
    # the long arc 1 -> 4 demands the chords (1,3) and (2,4)
    d = Dag.make([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert not is_toric_transitive(d)


def test_disjoint_union():
    a = Dag.from_word((1, 2))
    b = Dag.from_word((3, 4))
    u = disjoint_union(a, b)
    assert u.vertices == frozenset({1, 2, 3, 4})
    assert len(linear_extensions(u)) == 6
    with pytest.raises(ValueError):
        disjoint_union(a, Dag.from_word((2, 3)))


def _bridgeless_parts_of(d):
    """The 2-edge-connected components of d, the pieces of the toric split."""
    return _components(_without_bridges(d))


def test_bridgeless_parts():
    empty = Dag.make([], [])
    assert _bridgeless_parts_of(empty)[0] is empty
    assert len(_bridgeless_parts_of(empty)) == 1
    one = Dag.make([7], [])
    assert _bridgeless_parts_of(one)[0] is one
    assert len(_bridgeless_parts_of(one)) == 1
    # A 5-cycle on scattered labels with a pendant path 9 -> 4 <- 12: both
    # path arcs are bridges, so each path vertex is a part of its own.
    cycle = [(3, 11), (11, 20), (20, 9), (3, 6), (6, 9)]
    d = Dag.make([3, 4, 6, 9, 11, 12, 20], cycle + [(9, 4), (12, 4)])
    assert _bridgeless_parts_of(d) == [
        Dag.make([3, 6, 9, 11, 20], cycle),
        Dag.make([4], []),
        Dag.make([12], []),
    ]
    # D3 is bridgeless and connected; two triangles joined by an arc split
    # at it, and without it they split all the same.
    assert _bridgeless_parts_of(D3)[0] is D3
    assert len(_bridgeless_parts_of(D3)) == 1
    triangles = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    parts = [Dag.make([1, 2, 3], triangles[:3]), Dag.make([4, 5, 6], triangles[3:])]
    assert _bridgeless_parts_of(Dag.make(range(1, 7), triangles + [(3, 4)])) == parts
    assert _bridgeless_parts_of(Dag.make(range(1, 7), triangles)) == parts


def test_without_bridges():
    # Every arc of a tree is a bridge: a star 2 <- 1 -> 3 with a pendant 3 -> 4.
    tree = Dag.make([1, 2, 3, 4], [(1, 2), (1, 3), (3, 4)])
    assert _without_bridges(tree) == Dag.make([1, 2, 3, 4], [])
    # Two triangles joined by one arc lose that arc alone.
    triangles = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    joined = Dag.make(range(1, 7), triangles + [(3, 4)])
    assert _without_bridges(joined) == Dag.make(range(1, 7), triangles)
    # With no bridge, d itself comes back, so no class is built twice.
    for d in (D3, Dag.make([], [])):
        assert _without_bridges(d) is d


def test_components():
    # A split that never splits leaves every count right; only this catches it.
    empty = Dag.make([], [])
    assert _components(empty)[0] is empty
    assert len(_components(empty)) == 1
    one = Dag.make([7], [])
    assert _components(one)[0] is one
    assert len(_components(one)) == 1
    # Two chains on interleaved labels, 4 -> 15 -> 2 and 9 -> 30, keep their
    # arcs and labels and come in order of their least labels.
    chains = Dag.make([2, 4, 9, 15, 30], [(4, 15), (15, 2), (9, 30)])
    assert _components(chains) == [
        Dag.make([2, 4, 15], [(4, 15), (15, 2)]),
        Dag.make([9, 30], [(9, 30)]),
    ]
    # A connected DAG is its own component, bridges and all.
    for d in (D3, Dag.make([3, 8, 5], [(3, 8), (5, 8)])):
        assert _components(d)[0] is d
        assert len(_components(d)) == 1


def test_json_roundtrip():
    assert Dag.from_json(D3.to_json()) == D3
    for payload in ('{"vertices":[1,2],"arcs":[[true,2]]}', '{"vertices":[1,2],"arcs":[[2,1.0]]}'):
        with pytest.raises(ValueError, match="arc endpoints must be integers"):
            Dag.from_json(payload)
    with pytest.raises(ValueError, match="missing key 'arcs'"):
        Dag.from_json('{"vertices":[1,2]}')
    for arcs in ("[5]", "[[1,2,3]]", "[[1]]", '["12"]'):
        with pytest.raises(ValueError, match="an arc must be a two-element list of integers"):
            Dag.from_json(f'{{"vertices":[1,2],"arcs":{arcs}}}')
    with pytest.raises(ValueError, match="vertices must be a list of integers"):
        Dag.from_json('{"vertices":5,"arcs":[]}')
    with pytest.raises(ValueError, match="arcs must be a list of two-element lists"):
        Dag.from_json('{"vertices":[1,2],"arcs":{"1":2}}')
    tc = toric_class(D3)
    assert '"size": 5' in tc.to_json()


@st.composite
def labeled_dags(draw, max_n):
    """A random arc subset of the transitive tournament of a random order
    of 1 to max_n distinct labels, not necessarily consecutive."""
    w = draw(st.lists(st.integers(1, 20), min_size=1, max_size=max_n, unique=True))
    pairs = list(itertools.combinations(w, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Dag.make(w, [arc for arc, k in zip(pairs, keep) if k])


@settings(deadline=None)
@given(labeled_dags(6))
def test_extension_routes_match_their_oracles(d):
    tc = toric_class(d)
    assert tc.members == _toric_class_by_flips(d)
    assert tc.canonical == min(tc.members, key=lambda m: sorted(m.arcs))
    assert toric_extensions(d) == _toric_extensions_by_rotation(tc)
    linear = [
        w
        for w in itertools.permutations(sorted(d.vertices))
        if all(w.index(i) < w.index(j) for i, j in d.arcs)
    ]
    assert linear_extensions(d) == linear
    # A poset is the intersection of its linear extensions.
    assert transitive_closure(d).arcs == {
        (i, j)
        for i, j in itertools.permutations(d.vertices, 2)
        if all(w.index(i) < w.index(j) for w in linear)
    }
    assert is_toric_transitive(d) == is_toric_transitive_by_paths(d)


def test_empty_dag_extensions():
    empty = Dag.make([], [])
    assert linear_extensions(empty) == [()]
    assert toric_extensions(empty) == [()]
    assert toric_class(empty).members == frozenset({empty})
