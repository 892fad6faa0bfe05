"""Graph substrate: parsing, connectivity, bridges, bare paths, flows."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblekit.errors import GraphParseError, ValidationError
from pebblekit.graphs import (Graph, bridges, enumerate_connected_graphs,
                              find_bare_path_cover, is_bare_path, is_connected,
                              is_cycle_graph, max_disjoint_paths,
                              maximal_bare_paths, parse_graph)

from conftest import complete_graph, cycle_graph, path_graph
from oracles import component_count, min_vertex_separator_size


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
    import json
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    g2 = parse_graph(json.dumps(g.to_json_dict()), "json")
    assert g2 == g


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
# disjoint paths and Menger duality
# ---------------------------------------------------------------------------

def test_max_disjoint_paths_grid():
    # 2x3 grid: rows 0-1-2 and 3-4-5
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    count, paths = max_disjoint_paths(g, [0, 3], [2, 5])
    assert count == 2
    used = [v for p in paths for v in p]
    assert len(used) == len(set(used))
    for p in paths:
        assert p[0] in {0, 3} and p[-1] in {2, 5}
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)


def test_max_disjoint_paths_disconnected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert max_disjoint_paths(g, [0], [2])[0] == 0


def test_max_disjoint_paths_single_source(k4):
    count, paths = max_disjoint_paths(k4, [0], [3])
    assert count == 1 and len(paths) == 1


def test_max_disjoint_paths_forbidden():
    g = path_graph(5)
    assert max_disjoint_paths(g, [0], [4], forbidden=[2])[0] == 0


def test_max_disjoint_paths_precondition():
    g = path_graph(3)
    with pytest.raises(ValidationError):
        max_disjoint_paths(g, [0, 1], [1, 2])


def _brute_force_max_disjoint(g: Graph, A, B) -> int:
    """Independent oracle: maximize over families of disjoint A-B paths."""
    A, B = set(A), set(B)
    all_paths = []
    for a in A:
        stack = [(a, (a,))]
        while stack:
            u, path = stack.pop()
            if u in B:
                all_paths.append(frozenset(path))
                continue
            for w in g.adjacency()[u]:
                if w not in path and (w in B or (w not in A)):
                    stack.append((w, path + (w,)))
    best = 0

    def rec(idx, used, count):
        nonlocal best
        best = max(best, count)
        if count + (len(all_paths) - idx) <= best:
            return
        for j in range(idx, len(all_paths)):
            p = all_paths[j]
            if not (p & used):
                rec(j + 1, used | p, count + 1)

    rec(0, frozenset(), 0)
    return best


def test_flow_matches_brute_force_exhaustive_n4():
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << len(pairs)):
        g = Graph.from_edges(4, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        for a_mask in range(1, 16):
            for b_mask in range(1, 16):
                if a_mask & b_mask:
                    continue
                A = [v for v in range(4) if a_mask >> v & 1]
                B = [v for v in range(4) if b_mask >> v & 1]
                got = max_disjoint_paths(g, A, B)[0]
                assert got == _brute_force_max_disjoint(g, A, B)


@given(st.integers(5, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_flow_oracle_and_menger_random(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    mask = data.draw(st.integers(0, 2 ** len(pairs) - 1))
    g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
    verts = list(range(n))
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    rng.shuffle(verts)
    na = rng.randint(1, n - 1)
    nb = rng.randint(1, n - na)
    A, B = verts[:na], verts[na:na + nb]
    rest = verts[na + nb:]
    F = rng.sample(rest, rng.randint(0, len(rest)))
    usable = Graph(g.n, frozenset(e for e in g.edges
                                  if e[0] not in F and e[1] not in F))
    count, paths = max_disjoint_paths(g, A, B, F)
    assert count == _brute_force_max_disjoint(usable, A, B)
    # Menger duality: count equals the minimum separator size
    assert count == min_vertex_separator_size(g, A, B, F)
    # witnesses are disjoint valid paths
    used = [v for p in paths for v in p]
    assert len(used) == len(set(used))
    for p in paths:
        assert p[0] in set(A) and p[-1] in set(B)
        assert not (set(p) & set(F))
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)


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
# bare paths
# ---------------------------------------------------------------------------

def test_bare_path_cover_path_graph():
    g = path_graph(6)
    assert find_bare_path_cover(g, 2) == (0, 1, 2, 3, 4, 5)


def test_bare_path_cover_cycle(c6):
    seq = find_bare_path_cover(c6, 2)
    assert seq is not None and len(seq) >= 4
    assert is_bare_path(c6, seq)


def test_bare_path_cover_k4_absent(k4):
    assert find_bare_path_cover(k4, 1) is None


def test_maximal_bare_paths_k4(k4):
    # all degrees 3: every edge is its own maximal bare path
    assert maximal_bare_paths(k4) == sorted(
        (u, v) for u, v in k4.sorted_edges())


def test_maximal_bare_paths_single_vertex():
    assert maximal_bare_paths(Graph.from_edges(1, [])) == [(0,)]


@given(st.integers(2, 6), st.data())
@settings(max_examples=100, deadline=None)
def test_bare_path_cover_invariants(n, data):
    pairs = list(itertools.combinations(range(n), 2))
    mask = data.draw(st.integers(0, 2 ** len(pairs) - 1))
    g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
    if not is_connected(g):
        return
    k = data.draw(st.integers(0, n))
    seq = find_bare_path_cover(g, k)
    if seq is not None:
        assert is_bare_path(g, seq)
        assert g.n - len(seq) <= k
