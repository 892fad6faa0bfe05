"""Graph substrate: parsing, connectivity, bridges, bare paths, enumeration."""

import itertools
import random
import time
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblekit.errors import GraphParseError, ValidationError
from pebblekit.graphs import (CLASSES_MAX_N, Graph, _canonical, adjacency_masks,
                              augmentations, bridges,
                              canonical_form, connected_graph_classes,
                              enumerate_connected_graphs, graph_from_masks,
                              is_bare_path, is_connected, is_cycle_graph,
                              maximal_bare_paths, parse_graph)
from pebblekit.permgroups import PermGroup

from conftest import complete_graph, cycle_graph, path_graph
from oracles import bare_paths_by_definition, component_count


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, edges, labels, message", [
    (-1, [], None, "vertex count"),
    (3, [(1, 1)], None, "self-loop"),
    (3, [(0, 3)], None, "out of range"),
    (2, [(0, 1)], ("a",), "labels"),
])
def test_graph_refuses_malformed_construction(n, edges, labels, message):
    with pytest.raises(ValidationError, match=message):
        Graph.from_edges(n, edges, labels)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_edge_list_path():
    g = parse_graph("0 1\n1 2")
    assert g.n == 3 and g.sorted_edges() == [(0, 1), (1, 2)]


def test_parse_edge_list_duplicate_edge():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("0 1\n1 0")


def test_parse_edge_list_self_loop():
    with pytest.raises(GraphParseError, match="self-loop"):
        parse_graph("3 3")


def test_parse_edge_list_malformed_line():
    with pytest.raises(GraphParseError, match="line 1"):
        parse_graph("0 1 2")


def test_parse_refuses_unknown_format_and_invalid_json():
    with pytest.raises(ValidationError, match="unknown graph format 'yaml'"):
        parse_graph("n: 2", "yaml")
    with pytest.raises(GraphParseError, match="invalid JSON"):
        parse_graph("{nope", "json")


def test_parse_edge_list_comments_and_labels():
    g = parse_graph("# a square\na b\nb c # right side\nc d\nd a\n")
    assert g.n == 4 and len(g.edges) == 4
    assert g.labels == ("a", "b", "c", "d")


def test_parse_edge_list_first_appearance_order():
    g = parse_graph("5 7\n7 9")
    assert g.n == 3
    assert g.sorted_edges() == [(0, 1), (1, 2)]
    assert g.labels == ("5", "7", "9")


def test_parse_json_cycle():
    g = parse_graph('{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}', "json")
    assert g.n == 4 and is_cycle_graph(g)


@pytest.mark.parametrize("doc,field", [
    ('{"n":4,"edges":[[0,1],[0,1]]}', "edges"),
    ('{"n":4,"edges":[[0,0]]}', "edges"),
    ('{"n":2,"edges":[[0,5]]}', "edges"),
    ('{"edges":[]}', "'n'"),
    ('{"n":3,"edges":"no"}', "edges"),
    ('{"n":true,"edges":[]}', "'n'"),
    ('{"n":100001,"edges":[]}', "'n'"),
    ('{"n":3,"edges":[[true,2]]}', "edges"),
])
def test_parse_json_errors(doc, field):
    with pytest.raises(GraphParseError, match=field):
        parse_graph(doc, "json")


def test_json_round_trip():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert parse_graph('{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[0,4]]}', "json") == g


def test_json_labels_round_trip():
    g = Graph.from_edges(3, [(0, 1), (1, 2)], labels=("a", "b", "c"))
    doc = '{"n":3,"edges":[[0,1],[1,2]],"labels":{"0":"a","1":"b","2":"c"}}'
    assert parse_graph(doc, "json") == g
    # unnamed vertices keep their index as label
    g2 = parse_graph('{"n":3,"edges":[],"labels":{"1":"x"}}', "json")
    assert g2.labels == ("0", "x", "2")


@pytest.mark.parametrize("labels,what", [
    ('["a","b"]', "expected an object"),
    ('{"1_0":"ten"}', "decimal vertex index"),
    ('{" 2 ":"two"}', "decimal vertex index"),
    ('{"04":"four"}', "decimal vertex index"),
    ('{"-1":"minus"}', "decimal vertex index"),
    ('{"":"empty"}', "decimal vertex index"),
    ('{"12":"twelve"}', "out of range"),
    ('{"%s":"long"}' % ("9" * 5000), "out of range"),
    ('{"3":null}', "expected a string"),
    ('{"4":[1,2]}', "expected a string"),
], ids=["array", "underscore", "spaces", "leading-zero", "negative", "empty",
        "n", "5000-digits", "null", "list"])
def test_parse_json_refuses_bad_labels(labels, what):
    with pytest.raises(GraphParseError, match=what):
        parse_graph('{"n":12,"edges":[],"labels":%s}' % labels, "json")


# ---------------------------------------------------------------------------
# connectivity and bridges
# ---------------------------------------------------------------------------

def test_is_connected_basics():
    assert is_connected(path_graph(3))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert is_connected(Graph.from_edges(1, []))
    assert is_connected(Graph.from_edges(0, []))


def test_bridges_examples(k4):
    assert bridges(path_graph(4)) == frozenset({(0, 1), (1, 2), (2, 3)})
    assert bridges(cycle_graph(4)) == frozenset()
    pendant = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    assert bridges(pendant) == frozenset({(0, 4)})
    assert bridges(k4) == frozenset()


def test_bridges_linear_in_components():
    # 25,000 disjoint edges: one DFS root per component, each costing O(1)
    g = Graph.from_edges(50_000, [(2 * i, 2 * i + 1) for i in range(25_000)])
    t0 = time.perf_counter()
    assert bridges(g) == g.edges
    assert time.perf_counter() - t0 < 1.0


def _bridges_by_definition(g: Graph) -> frozenset:
    base = component_count(g)
    out = set()
    for e in g.edges:
        h = Graph(g.n, g.edges - {e})
        if component_count(h) > base:
            out.add(e)
    return frozenset(out)


@given(st.integers(2, 7), st.data())
@settings(max_examples=120, deadline=None)
def test_bridges_match_definition(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    mask = data.draw(st.integers(0, 2 ** len(pairs) - 1))
    g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
    assert bridges(g) == _bridges_by_definition(g)
    assert is_connected(g) == (component_count(g) == 1)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_counts():
    assert sum(1 for _ in enumerate_connected_graphs(1)) == 1
    assert sum(1 for _ in enumerate_connected_graphs(2)) == 1
    assert sum(1 for _ in enumerate_connected_graphs(3)) == 4
    assert sum(1 for _ in enumerate_connected_graphs(4)) == 38
    assert sum(1 for _ in enumerate_connected_graphs(5)) == 728


def test_enumeration_is_exact_for_n3():
    got = {g.edges for g in enumerate_connected_graphs(3)}
    pairs = list(itertools.combinations(range(3), 2))
    want = set()
    for mask in range(8):
        g = Graph.from_edges(3, [pairs[i] for i in range(3) if mask >> i & 1])
        if is_connected(g):
            want.add(g.edges)
    assert got == want and len(got) == 4


def test_enumeration_unique_and_connected():
    seen = set()
    for g in enumerate_connected_graphs(4):
        assert is_connected(g)
        assert g.edges not in seen
        seen.add(g.edges)


def test_enumeration_range_check():
    with pytest.raises(ValidationError):
        list(enumerate_connected_graphs(0))
    with pytest.raises(ValidationError):
        list(enumerate_connected_graphs(9))


# ---------------------------------------------------------------------------
# connected graphs up to isomorphism
# ---------------------------------------------------------------------------

def test_class_counts_and_orbit_sums():
    # OEIS A001349 (classes) and A001187 (labelled connected graphs)
    # n = 8 guards the generator's one-child-per-orbit pruning: a missed
    # automorphism would keep two isomorphic children
    classes = [1, 1, 2, 6, 21, 112, 853, 11_117]
    labelled = [1, 1, 4, 38, 728, 26_704, 1_866_256, 251_548_592]
    for n in range(1, 9):
        reps = connected_graph_classes(n)
        assert len(reps) == classes[n - 1], n
        assert sum(factorial(n) // aut for _, aut in reps) == labelled[n - 1], n
        assert len({adj for adj, _ in reps}) == len(reps)
        assert all(is_connected(graph_from_masks(adj)) for adj, _ in reps)


def test_classes_cover_the_labelled_graphs():
    # every labelled connected graph on 5 vertices canonises to one class
    reps = {adj for adj, _ in connected_graph_classes(5)}
    assert {canonical_form(adjacency_masks(g))[0]
            for g in enumerate_connected_graphs(5)} == reps


def _relabel(adj, perm):
    """The masks of the graph with vertex v renamed perm[v]."""
    out = [0] * len(adj)
    for v, mask in enumerate(adj):
        for u in range(len(adj)):
            if mask >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return tuple(out)


def test_canonical_form_ignores_relabelling():
    rng = random.Random(15)
    for n in range(1, 8):
        for adj, aut in connected_graph_classes(n):
            for _ in range(3 if n < 7 else 1):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(_relabel(adj, perm)) == (adj, aut), (adj, perm)


def test_automorphism_count_is_brute_force():
    for n in range(1, 7):
        for adj, aut in connected_graph_classes(n):
            fixed = sum(_relabel(adj, p) == adj
                        for p in itertools.permutations(range(n)))
            assert fixed == aut, adj


def test_automorphisms_generate_the_group():
    # augmentations prunes each parent's children by the group these
    # vertex maps generate, so it must be all of Aut G
    for n in range(1, 8):
        for adj, aut in connected_graph_classes(n):
            gens = _canonical(list(adj))[4]
            for gamma in gens:
                assert _relabel(adj, gamma) == adj, (adj, gamma)
            assert PermGroup(n, [tuple(g) for g in gens]).order() == aut, adj


def test_classes_range_check():
    for n in (0, CLASSES_MAX_N + 1):
        with pytest.raises(ValidationError):
            connected_graph_classes(n)
    too_big = complete_graph(CLASSES_MAX_N + 1)
    with pytest.raises(ValidationError):
        canonical_form(adjacency_masks(too_big))
    with pytest.raises(ValidationError):
        augmentations(*canonical_form(adjacency_masks(complete_graph(CLASSES_MAX_N))))


@pytest.mark.parametrize("adj, what", [
    ((2, 0), "does not list 0"),
    ((2, 5, 0), "does not list 1"),
    ((4096, 1), "below 2"),
    ((3,), "below 1"),
    ((2, 3), "self-loop"),
    ((-1, 1), "below 2"),
    ((2.0, 1), "below 2"),
], ids=["asymmetric", "asymmetric-late", "beyond-n", "loop-beyond-n", "self-loop",
        "negative", "float"])
def test_canonical_form_refuses_masks_of_no_simple_graph(adj, what):
    with pytest.raises(ValidationError, match=what):
        canonical_form(adj)


def test_tie_free_children_get_aut_by_orbit_stabilizer(monkeypatch):
    # walk the class tree as the sweep does, parents in the labelling
    # augmentations built; a child built without a canonical form, its
    # new vertex tied with none or only with twins of it, has
    # |ties and n| * |Aut(parent)| / |orbit of its neighbourhood|
    # automorphisms, which must be what its canonical form counts
    import pebblekit.graphs as graphs
    canonised = set()
    canonical = graphs._canonical
    monkeypatch.setattr(graphs, "_canonical",
                        lambda adj: canonised.add(tuple(adj)) or canonical(adj))
    level = [((), 1, [])]
    tie_free = 0
    for n in range(1, 8):
        level = [c for p in level for c in augmentations(*p)]
        for adj, aut, _ in level:
            if adj not in canonised:
                tie_free += 1
                assert canonical(list(adj))[2] == aut, adj
        assert sorted(canonical(list(adj))[0] for adj, _, _ in level) == sorted(
            adj for adj, _ in connected_graph_classes(n)), n
    # 630 children for n <= 7 pass the invariant alone, and 123 more have
    # only twins of n among their ties
    assert tie_free > 700


def test_carried_generators_generate_the_automorphism_group():
    # the sweep hands each class's generators to its children, which
    # prune their neighbourhoods by the group these vertex maps generate:
    # wherever they are carried, the parent's alone or with the swaps of
    # the new vertex and its twins, they must generate exactly Aut G
    level = [((), 1, [])]
    carried = symmetric = 0
    for n in range(1, 9):
        level = [c for p in level for c in augmentations(*p)]
        for adj, aut, gens in level:
            if gens is None:
                continue
            for gamma in gens:
                assert _relabel(adj, gamma) == adj, (adj, gamma)
            assert PermGroup(n, [tuple(g) for g in gens]).order() == aut, adj
            carried += 1
            symmetric += aut > 1
    assert carried > 9_000 and symmetric > 5_000


def _recording_canonical(monkeypatch) -> list:
    import pebblekit.graphs as graphs
    calls = []
    canonical = graphs._canonical
    monkeypatch.setattr(graphs, "_canonical",
                        lambda adj: calls.append(tuple(adj)) or canonical(adj))
    return calls


def test_children_whose_ties_are_twins_need_no_canonical_form(monkeypatch):
    # a leaf joined to the centre of the star K_{1,3} ties with the three
    # old leaves, each a twin of it: the child K_{1,4} is kept with
    # 4 * 3! / 1 automorphisms, which the star's generators, fixing the
    # new leaf, and the three swaps of a leaf with it generate
    calls = _recording_canonical(monkeypatch)
    star = (0b1110, 1, 1, 1)
    children = augmentations(star, 6, [[0, 2, 1, 3], [0, 1, 3, 2]])
    assert calls == []
    adj, aut, gens = next(c for c in children if c[0][0] == 0b11110)
    assert adj == (0b11110, 1, 1, 1, 1)
    assert aut == 24 == sum(_relabel(adj, p) == adj
                            for p in itertools.permutations(range(5)))
    assert [0, 4, 2, 3, 1] in gens and [0, 1, 2, 4, 3] in gens
    for gamma in gens:
        assert _relabel(adj, gamma) == adj, gamma
    assert PermGroup(5, [tuple(g) for g in gens]).order() == 24


def test_a_tie_that_is_no_twin_builds_a_canonical_form(monkeypatch):
    # a leaf joined to an end of the path 0-1-2 ties with the other end,
    # which has another neighbour; a vertex joined to both ends makes C4,
    # where vertex 1 is a twin of the new vertex but 0 and 2 are not.
    # Both children are decided by their canonical forms
    calls = _recording_canonical(monkeypatch)
    children = augmentations((2, 5, 2), 2, [[2, 1, 0]])
    p4, c4 = (2 | 8, 5, 2, 1), (2 | 8, 5, 2 | 8, 5)
    assert calls == [p4, c4]
    assert {adj: aut for adj, aut, _ in children} == {
        p4: 2, (2, 5 | 8, 2, 2): 6, c4: 8}


# ---------------------------------------------------------------------------
# bare paths
# ---------------------------------------------------------------------------

def test_bare_path_cover_path_graph():
    assert maximal_bare_paths(path_graph(6)) == [(0, 1, 2, 3, 4, 5)]


def test_bare_path_cover_cycle(c6):
    paths = maximal_bare_paths(c6)
    assert paths
    for seq in paths:
        assert len(seq) == 6 and is_bare_path(c6, seq)
    # a repeated vertex, a vertex out of range, a step that is not an edge
    for seq in [(0, 1, 0), (5, 6), (0, 2)]:
        assert not is_bare_path(c6, seq)


def test_maximal_bare_paths_k4(k4):
    # all degrees 3: every edge is its own maximal bare path
    assert maximal_bare_paths(k4) == sorted(
        (u, v) for u, v in k4.sorted_edges())


def test_maximal_bare_paths_single_vertex():
    assert maximal_bare_paths(Graph.from_edges(1, [])) == [(0,)]


def test_maximal_bare_paths_match_the_definition():
    count = 0
    for n in range(1, 8):
        for adj, _ in connected_graph_classes(n):
            g = graph_from_masks(adj)
            assert maximal_bare_paths(g) == bare_paths_by_definition(g), g
            count += 1
    assert count == 996


def test_maximal_bare_paths_on_relabelled_cycles():
    # every Hamiltonian path of a cycle is maximal, whatever the labels
    rng = random.Random(3)
    for n in range(3, 9):
        orders = [list(range(n))] + [rng.sample(range(n), n) for _ in range(4)]
        for order in orders:
            g = Graph.from_edges(n, [(order[i], order[i - 1]) for i in range(n)])
            paths = maximal_bare_paths(g)
            assert len(paths) == n
            assert paths == bare_paths_by_definition(g), g


@given(st.integers(2, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_bare_path_cover_invariants(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    mask = data.draw(st.integers(0, 2 ** len(pairs) - 1))
    g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
    if not is_connected(g):
        return
    for seq in maximal_bare_paths(g):
        assert is_bare_path(g, seq)
