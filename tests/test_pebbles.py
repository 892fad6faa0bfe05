"""The pebble-pushing game: moves, achievability, shortest plans."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblekit.errors import StateCapExceeded, ValidationError
from pebblekit.graphs import (Graph, enumerate_connected_graphs, graph_from_mask,
                              is_connected, vertex_pairs)
from pebblekit.pebbles import (is_achievable, is_move, legal_moves,
                               reachable_states, solve,
                               validate_move_sequence)

from conftest import complete_graph, cycle_graph, path_graph, star_graph
from oracles import labelled_class


def test_legal_moves_path_blocked():
    g = path_graph(3)
    assert legal_moves(g, (0, 1)) == [(0, 2)]


def test_legal_moves_single_pebble_triangle():
    g = complete_graph(3)
    assert legal_moves(g, (0,)) == [(1,), (2,)]


def test_legal_moves_no_room():
    g = path_graph(2)
    assert legal_moves(g, (0, 1)) == []


def test_legal_moves_order_is_pebble_then_target():
    g = complete_graph(4)
    moves = legal_moves(g, (0, 1))
    assert moves == [(2, 1), (3, 1), (0, 2), (0, 3)]


def test_legal_moves_validates_state():
    g = path_graph(3)
    with pytest.raises(ValidationError):
        legal_moves(g, (0, 0))
    with pytest.raises(ValidationError):
        legal_moves(g, (0, 9))
    with pytest.raises(ValidationError):
        legal_moves(g, ())


def test_achievable_push_right():
    g = path_graph(3)
    assert is_achievable(g, (0, 1), (1, 2))


def test_achievable_order_preserved_on_path():
    g = path_graph(3)
    assert not is_achievable(g, (0, 1), (1, 0))


def test_achievable_star_swap():
    # center 0, leaves 1..3; two pebbles on leaves can swap
    g = star_graph(3)
    assert is_achievable(g, (1, 2), (2, 1))


def test_solve_identity():
    g = path_graph(3)
    assert solve(g, (0, 1), (0, 1)) == [(0, 1)]


def test_solve_two_moves():
    g = path_graph(3)
    assert solve(g, (0, 1), (1, 2)) == [(0, 1), (0, 2), (1, 2)]


def test_solve_cycle_swap_is_four_moves():
    # shortest swap of two adjacent pebbles on a 4-cycle takes 4 moves
    g = cycle_graph(4)
    seq = solve(g, (0, 1), (1, 0))
    assert seq is not None
    validate_move_sequence(g, seq)
    assert seq[0] == (0, 1) and seq[-1] == (1, 0)
    assert len(seq) - 1 == _idastar_length(g, (0, 1), (1, 0))


def test_solve_unreachable_returns_none():
    g = path_graph(3)
    assert solve(g, (0, 1), (1, 0)) is None


def test_reachable_states_path():
    g = path_graph(3)
    assert reachable_states(g, (0, 1)) == {(0, 1), (0, 2), (1, 2)}


def test_reachable_states_single_pebble_connected():
    g = cycle_graph(5)
    assert reachable_states(g, (3,)) == {(v,) for v in range(5)}


def test_reachable_states_fully_occupied():
    g = complete_graph(3)
    assert reachable_states(g, (0, 1, 2)) == {(0, 1, 2)}


def test_state_cap_is_hard_error():
    g = complete_graph(5)
    with pytest.raises(StateCapExceeded):
        reachable_states(g, (0, 1), cap=3)


def _labelled_cases(seed):
    """(graph, start, labelled class) for every labelled graph with
    n <= 5, connected or not, every k and two seeded starts each."""
    rng = random.Random(seed)
    for n in range(1, 6):
        for mask in range(1 << len(vertex_pairs(n))):
            g = graph_from_mask(n, mask)
            for k in range(1, n + 1):
                for _ in range(2):
                    start = tuple(rng.sample(range(n), k))
                    yield g, start, labelled_class(g, start)


def test_configuration_answers_match_labelled_bfs():
    rng = random.Random(11)
    for g, start, cls in _labelled_cases(7):
        assert reachable_states(g, start) == cls, (g, start)
        goal = rng.choice(sorted(cls))
        assert is_achievable(g, start, goal), (g, start, goal)
        outside = [t for t in itertools.permutations(range(g.n), len(start))
                   if t not in cls]
        if outside:
            goal = rng.choice(outside)
            assert not is_achievable(g, start, goal), (g, start, goal)


def test_state_cap_is_exact():
    # the least cap that reachable_states accepts is the class size, on
    # disconnected graphs too, where fewer than C(n, k) configurations
    # are reachable
    rng = random.Random(13)
    cases = [c for c in _labelled_cases(17) if len(c[2]) > 1]
    for g, start, cls in rng.sample(cases, 400):
        assert reachable_states(g, start, cap=len(cls)) == cls
        with pytest.raises(StateCapExceeded):
            reachable_states(g, start, cap=len(cls) - 1)


def _idastar_length(g, start, goal):
    """Independent oracle: iterative-deepening search for the shortest plan."""
    if start == goal:
        return 0
    for limit in range(1, 64):
        stack = [(start, 0)]
        while stack:
            s, depth = stack.pop()
            if depth == limit:
                if s == goal:
                    return limit
                continue
            for t in legal_moves(g, s):
                stack.append((t, depth + 1))
        # breadth exhausted at this limit without hitting goal
    raise AssertionError("no plan within 63 moves")


def _small_graphs(max_n):
    for n in range(2, max_n + 1):
        yield from enumerate_connected_graphs(n)


def test_solve_is_shortest_on_small_graphs():
    import random
    rng = random.Random(5)
    graphs = [g for g in _small_graphs(4)]
    graphs += rng.sample(list(enumerate_connected_graphs(5)), 12)
    for g in graphs:
        k = rng.randint(1, min(3, g.n - 1)) if g.n > 1 else 1
        states = list(itertools.permutations(range(g.n), k))
        for _ in range(3):
            start = rng.choice(states)
            goal = rng.choice(states)
            seq = solve(g, start, goal)
            if seq is None:
                assert not is_achievable(g, start, goal)
                continue
            validate_move_sequence(g, seq)
            assert seq[0] == start and seq[-1] == goal
            if len(seq) - 1 <= 7:
                assert len(seq) - 1 == _idastar_length(g, start, goal)


def test_reversibility_exhaustive_small():
    # achievability is symmetric: each move reverses
    for g in _small_graphs(4):
        for k in (1, 2, 3):
            if k > g.n:
                continue
            states = list(itertools.permutations(range(g.n), k))
            for start in states:
                cls = reachable_states(g, start)
                for goal in cls:
                    assert start in reachable_states(g, goal)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_reversibility_and_partition_n5(data):
    pairs = list(itertools.combinations(range(5), 2))
    mask = data.draw(st.integers(0, 2 ** len(pairs) - 1))
    g = Graph.from_edges(5, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
    if not is_connected(g):
        return
    k = data.draw(st.integers(1, 3))
    states = list(itertools.permutations(range(5), k))
    start = states[data.draw(st.integers(0, len(states) - 1))]
    cls = reachable_states(g, start)
    probe = sorted(cls)[:6]
    for y in probe:
        assert reachable_states(g, y) == cls  # class is an equivalence class
    outside = [s for s in states if s not in cls][:4]
    for z in outside:
        assert start not in reachable_states(g, z)


def test_transitivity_spot_checks():
    g = star_graph(3)
    states = list(itertools.permutations(range(4), 2))
    for x in states:
        cls = reachable_states(g, x)
        for y in sorted(cls)[:4]:
            for z in sorted(reachable_states(g, y))[:4]:
                assert is_achievable(g, x, z)


def test_is_move():
    g = path_graph(3)
    assert is_move(g, (0, 1), (0, 2))
    assert not is_move(g, (0, 1), (1, 0))       # two coordinates change
    assert not is_move(g, (0, 1), (0, 1))       # no coordinate changes
    assert not is_move(g, (0, 1), (2, 1))       # 0-2 is not an edge
    assert is_move(g, (0, 2), (1, 2))


def test_validate_move_sequence_rejects_jump():
    g = path_graph(4)
    with pytest.raises(ValidationError):
        validate_move_sequence(g, [(0, 1), (0, 3)])
