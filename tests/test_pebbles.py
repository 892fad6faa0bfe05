"""The pebble-pushing game: moves, achievability, shortest plans."""

import itertools
import random
import tracemalloc
from math import comb, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblekit.errors import StateCapExceeded, ValidationError
from pebblekit.graphs import (Graph, enumerate_connected_graphs, graph_from_masks,
                              is_connected, mask_adjacency, vertex_pairs)
from pebblekit.pebbles import (DEFAULT_STATE_CAP, is_achievable,
                               legal_moves, reachable_states, solve,
                               validate_move_sequence)

from conftest import complete_graph, cycle_graph, path_graph, star_graph
from oracles import labelled_class, labelled_distance


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


def test_a_float_vertex_is_refused_on_every_call():
    # 1.0 == 1 and hash(1.0) == hash(1): a float start must not read the
    # group stored for the int one
    g = path_graph(3)
    assert reachable_states(g, (0, 1)) == {(0, 1), (0, 2), (1, 2)}
    for call in (lambda: reachable_states(g, (0.0, 1.0)),
                 lambda: is_achievable(g, (0.0, 1.0), (1, 2)),
                 lambda: legal_moves(g, (0, 1.5))):
        with pytest.raises(ValidationError, match="must be integers"):
            call()


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
    assert len(seq) - 1 == labelled_distance(g, (0, 1), (1, 0))


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


def test_states_of_different_sizes_are_refused():
    g = path_graph(4)
    for call in (solve, is_achievable):
        with pytest.raises(ValidationError, match="same number of pebbles"):
            call(g, (0, 1), (2,))


def test_state_cap_is_hard_error():
    g = complete_graph(5)
    with pytest.raises(StateCapExceeded):
        reachable_states(g, (0, 1), cap=3)


def _labelled_cases(seed):
    """(graph, start, labelled class) for every labelled graph with
    n <= 5, connected or not, every k and two seeded starts each."""
    rng = random.Random(seed)
    for n in range(1, 6):
        pairs = vertex_pairs(n)
        for mask in range(1 << len(pairs)):
            g = graph_from_masks(mask_adjacency(n, mask, pairs))
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


def _tree(rng, n):
    """A random recursive tree: vertex v hangs from a random earlier one."""
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def _sparse(rng, n):
    """Every pair with probability 1/4, so often disconnected."""
    return Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < 0.25])


def _bipartite(rng, n):
    """A 2-connected bipartite graph other than a cycle: an even cycle with
    the chord (0, 3), one ear of length 2 when n is odd, and random chords
    between the two sides."""
    m = n - n % 2
    edges = {(v, (v + 1) % m) for v in range(m)} | {(0, 3)}
    side = [v % 2 for v in range(m)]
    if n > m:
        edges |= {(0, m), (2, m)}
        side.append(1)
    edges |= {(a, b) for a, b in itertools.combinations(range(n), 2)
              if side[a] != side[b] and rng.random() < 0.3}
    return Graph.from_edges(n, edges)


def test_configuration_answers_match_labelled_bfs_to_n8():
    # k <= 4, and k = n - 1 on the bipartite graphs, whose group there is
    # A_k (Wilson 1974): the search must not stop at half of k!
    rng = random.Random(19)
    kinds = set()               # (class is every arrangement on a component, k)
    wilson = 0
    for make in (_tree, _sparse, _dense, _bipartite):
        for n in range(6, 9):
            for _ in range(3):
                g = make(rng, n)
                ks = [1, 2, 3, 4] + [n - 1] * (make is _bipartite)
                for k in ks:
                    start = tuple(rng.sample(range(n), k))
                    cls = labelled_class(g, start)
                    got = reachable_states(g, start)
                    # a built set, not a lazy view
                    assert type(got) is set and got == cls, (g, start)
                    comp = {v for s in cls for v in s}
                    if k == n - 1:
                        assert len(cls) == perm(n, k) // 2, g
                        wilson += 1
                        continue
                    kinds.add((len(cls) == perm(len(comp), k), k))
                    goal = rng.choice(sorted(cls))
                    assert is_achievable(g, start, goal), (g, start, goal)
                    while True:
                        goal = tuple(rng.sample(range(n), k))
                        if goal not in cls or len(cls) == perm(n, k):
                            break
                    assert is_achievable(g, start, goal) == (goal in cls), (g, start, goal)
    assert kinds == {(full, k) for full in (True, False) for k in range(1, 5)} - {(False, 1)}
    assert wilson == 9


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


def _small_graphs(max_n):
    for n in range(2, max_n + 1):
        yield from enumerate_connected_graphs(n)


def test_solve_is_shortest_on_small_graphs():
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
            assert len(seq) - 1 == labelled_distance(g, start, goal)


def test_solve_is_none_exactly_off_the_labelled_class():
    # disconnected graphs included: there a pebble's goal may lie off its
    # component, which solve must answer before the search starts
    rng = random.Random(19)
    for g, start, cls in _labelled_cases(23):
        for goal in (tuple(rng.sample(range(g.n), len(start))),
                     rng.choice(sorted(cls))):
            seq = solve(g, start, goal)
            assert (seq is None) == (goal not in cls), (g, start, goal)
            if seq is not None:
                validate_move_sequence(g, seq)
                assert seq[0] == start and seq[-1] == goal


def _theta(rng, n):
    """Three internally disjoint paths between vertices 0 and 1 through
    the other n - 2 vertices, at most one of them a bare edge."""
    while True:
        a, b = sorted(rng.randint(0, n - 2) for _ in range(2))
        sizes = (a, b - a, n - 2 - b)
        if sizes.count(0) <= 1:
            break
    edges, nxt = [], 2
    for size in sizes:
        path = [0, *range(nxt, nxt + size), 1]
        edges += zip(path, path[1:])
        nxt += size
    return Graph.from_edges(n, edges)


def _dense(rng, n):
    """A random Hamiltonian path plus every other pair with probability 1/2."""
    order = rng.sample(range(n), n)
    pairs = {(min(e), max(e)) for e in zip(order, order[1:])}
    pairs |= {e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5}
    return Graph.from_edges(n, pairs)


def _far_instance(family, n, k, seed):
    """(graph, start, goal) with the goal 400 random moves from the start."""
    rng = random.Random(f"{family}:{n}:{k}:{seed}")
    g = {"theta": _theta, "dense": _dense}[family](rng, n)
    start = goal = tuple(range(k))
    for _ in range(400):
        goal = rng.choice(legal_moves(g, goal))
    return g, start, goal


# seeds with long plans, 7 to 24 moves; theta n=10 makes A* store
# thousands of states
@pytest.mark.parametrize("family,n,k,seed", [
    ("dense", 8, 4, 3), ("dense", 9, 5, 1), ("dense", 10, 6, 1),
    ("theta", 8, 4, 3), ("theta", 9, 5, 2), ("theta", 10, 6, 2),
])
def test_solve_is_shortest_on_far_goals(family, n, k, seed):
    g, start, goal = _far_instance(family, n, k, seed)
    seq = solve(g, start, goal)
    validate_move_sequence(g, seq)
    assert seq[0] == start and seq[-1] == goal
    assert len(seq) - 1 == labelled_distance(g, start, goal)


def test_solve_stores_a_tenth_of_the_space():
    # a search that expands the whole labelled space cannot pass this
    g, start, goal = _far_instance("dense", 10, 6, 1)
    cap = perm(10, 6) // 10
    assert solve(g, start, goal, cap=cap)[-1] == goal
    with pytest.raises(StateCapExceeded):
        labelled_distance(g, start, goal, cap=cap)


def test_solve_memory_per_stored_state():
    # the 3x3 grid with k = 8: swapping pebbles 0 and 1 is odd, off the
    # class, so the search runs to its cap before the configurations
    # decide; each stored state is a few ints, about 135 bytes of
    # tracemalloc peak (a tuple-keyed search took about 240).  Half of a
    # 50,000 cap halves the hash table too, so the reading is the same
    # (133.9 against 135.1 bytes) in half the traced time
    g = Graph.from_edges(9, [(v, v + 1) for v in range(9) if v % 3 < 2]
                         + [(v, v + 3) for v in range(6)])
    cap = 25_000
    tracemalloc.start()
    try:
        assert solve(g, tuple(range(8)), (1, 0, *range(2, 8)), cap=cap) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * cap


def test_solve_memory_follows_the_states_reached():
    # n/2 pebbles on P_n and a goal one move away.  At n = 600 a state is
    # 300 fields of 10 bits, so move tables for all 180,000 (slot, vertex)
    # pairs would take over 100 MB.  At n = 2000, k goal-distance rows of
    # n entries, most of them ints above 256, took 94 MB of peak; grown
    # only as far as the search reads them, the peak is 33 MB, nearly all
    # of it the empty move tables
    for n, mb in [(600, 20), (2000, 48)]:
        g = path_graph(n)
        k = n // 2
        start, goal = tuple(range(k)), (*range(k - 1), k)
        tracemalloc.start()
        try:
            assert solve(g, start, goal) == [start, goal]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mb * 2 ** 20, n


def test_solve_cap_below_the_search_raises():
    # a reachable goal never reads as unreachable for want of cap: below
    # C(n, k) the configuration check raises, from there the search does
    g, start, goal = _far_instance("theta", 10, 6, 2)
    cap = 1
    while True:
        try:
            seq = solve(g, start, goal, cap=cap)
            break
        except StateCapExceeded as exc:
            assert cap < comb(10, 6) or "state search" in str(exc)
        cap *= 2
    assert seq[-1] == goal
    assert cap > 4 * comb(10, 6)


def test_solve_refuses_by_its_own_cap(p5):
    # the configuration check that solve asks at its cap refuses too (P5
    # has 10 configurations of two pebbles); the refusal solve raises
    # names its own search
    with pytest.raises(StateCapExceeded) as exc:
        solve(p5, (0, 1), (3, 4), cap=1)
    assert str(exc.value) == "state search exceeded cap of 1 states"


def test_solve_unreachable_at_the_cap_asks_configurations():
    # a spider with legs 1, 2 and 3-4: 10 configurations, 20 labelled
    # states in the class of (0, 1, 2), and (0, 1, 3) outside it; the
    # search reaches the cap and the configuration check decides
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    start, goal = (0, 1, 2), (0, 1, 3)
    cls = labelled_class(g, start)
    assert len(cls) == 20 and goal not in cls
    assert solve(g, start, goal, cap=comb(5, 3)) is None
    with pytest.raises(StateCapExceeded):
        solve(g, start, goal, cap=comb(5, 3) - 1)


def test_solve_near_goal_on_a_large_graph():
    # C(1000, 3) configurations are far above the default cap; a goal one
    # move away needs only the labelled states around the start
    g = cycle_graph(1000)
    assert comb(1000, 3) > DEFAULT_STATE_CAP
    assert solve(g, (0, 1, 2), (0, 1, 3)) == [(0, 1, 2), (0, 1, 3)]
    assert solve(g, (0, 1, 2), (999, 1, 2)) == [(0, 1, 2), (999, 1, 2)]


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
    validate_move_sequence(g, [(0, 1), (0, 2)])
    for a, b in [((0, 1), (1, 0)),              # two coordinates change
                 ((0, 1), (0, 1)),              # no coordinate changes
                 ((0, 1), (2, 1))]:             # 0-2 is not an edge
        with pytest.raises(ValidationError, match="illegal move"):
            validate_move_sequence(g, [a, b])
    validate_move_sequence(g, [(0, 2), (1, 2)])


def test_validate_move_sequence_rejects_jump():
    g = path_graph(4)
    with pytest.raises(ValidationError):
        validate_move_sequence(g, [(0, 1), (0, 3)])
