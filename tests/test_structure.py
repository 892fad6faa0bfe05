"""Pebble-permutation groups, the win decision, colourings, witnesses."""

import itertools
import random
import sys
import threading
import time
from collections import deque
from math import factorial, perm

import pytest

from pebblekit import pebbles, structure
from pebblekit.errors import StateCapExceeded, ValidationError
from pebblekit.graphs import (Graph, adjacency_masks, bridges, canonical_form,
                              connected_graph_classes,
                              enumerate_connected_graphs, graph_from_masks,
                              is_bare_path, is_connected, is_cycle_graph)
from pebblekit.pebbles import _config_group, reachable_states
from pebblekit.permgroups import PermGroup, transposition
from pebblekit.structure import (SWEEP_MAX_N, StructureWitnessNotFound,
                                 is_k_pebble_win, pebble_permutation_group,
                                 rb_colouring, structure_witness,
                                 verify_structure_theorem)

from conftest import complete_graph, cycle_graph, path_graph, star_graph
from oracles import harvest_group, labelled_class, labelled_sweep
from sweep_probe import probe


# ---------------------------------------------------------------------------
# groups from the state space
# ---------------------------------------------------------------------------

def test_path_group_trivial(p5):
    assert pebble_permutation_group(p5, (0, 1, 2)).order() == 1
    assert pebble_permutation_group(p5, (0, 2, 4)).order() == 1


def test_cycle_group_is_rotations():
    g = cycle_graph(5)
    grp = pebble_permutation_group(g, (0, 1, 2))
    assert grp.order() == 3
    assert (1, 2, 0) in grp or (2, 0, 1) in grp
    assert transposition(3, 0, 1) not in grp


def test_k4_two_pebbles_full_swap(k4):
    grp = pebble_permutation_group(k4, (0, 1))
    assert grp.order() == 2 and grp.is_symmetric()


def test_group_well_defined_across_class():
    # achievable states share the same permutation group
    cases = [(cycle_graph(5), (0, 1, 2)), (star_graph(3), (1, 2)),
             (path_graph(4), (0, 2))]
    for g, start in cases:
        base = set(pebble_permutation_group(g, start).elements())
        for y in sorted(reachable_states(g, start))[:8]:
            assert set(pebble_permutation_group(g, y).elements()) == base


# ---------------------------------------------------------------------------
# the win decision, via the configuration covering
# ---------------------------------------------------------------------------

def test_win_examples(p5, c6, k4):
    assert is_k_pebble_win(complete_graph(5), 3)
    assert not is_k_pebble_win(p5, 2)
    assert not is_k_pebble_win(c6, 3)
    assert is_k_pebble_win(k4, 2)
    assert is_k_pebble_win(c6, 2)          # two pebbles rotate and swap
    assert is_k_pebble_win(path_graph(3), 1)


def test_win_requires_connected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValidationError, match="graph must be connected"):
        is_k_pebble_win(g, 1)


def test_huge_k_is_refused_before_a_state_is_built(c6):
    t0 = time.perf_counter()
    for call in (is_k_pebble_win, structure_witness):
        with pytest.raises(ValidationError):
            call(c6, 10 ** 18)
    assert time.perf_counter() - t0 < 1


class _Two:
    """An integer that is no int, as numpy's are."""

    def __index__(self):
        return 2


@pytest.mark.parametrize("k", [2.0, "2", None])
def test_win_queries_refuse_a_k_that_is_no_integer(c6, k):
    for call in (is_k_pebble_win, structure_witness):
        with pytest.raises(ValidationError, match="k must be an integer"):
            call(c6, k)
    assert is_k_pebble_win(c6, _Two()) == is_k_pebble_win(c6, 2)
    assert structure_witness(c6, _Two()) == structure_witness(c6, 2)


def test_group_colouring_and_witness_require_connected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    for call in (lambda: pebble_permutation_group(g, (0, 1)),
                 lambda: rb_colouring(g, (0, 1)),
                 lambda: structure_witness(g, 2)):
        with pytest.raises(ValidationError, match="graph must be connected"):
            call()


def test_fast_group_matches_state_space_group():
    # the base state and other starts against the definitional harvest
    rng = random.Random(3)
    cases = []
    for g in itertools.chain(*map(enumerate_connected_graphs, (3, 4))):
        for k in range(2, g.n):
            cases += [(g, s) for s in itertools.permutations(range(g.n), k)]
    for g in rng.sample(list(enumerate_connected_graphs(5)), 25):
        for k in range(2, g.n):
            starts = list(itertools.permutations(range(g.n), k))
            cases += [(g, tuple(range(k)))] + [(g, s) for s in rng.sample(starts, 4)]
    for g, start in cases:
        slow = set(harvest_group(g, start).elements())
        assert set(pebble_permutation_group(g, start).elements()) == slow, (g, start)


def test_config_group_matches_harvest_on_every_class():
    # every connected class with n <= 6 and every k <= n - 1 at the base
    # state.  Every generator is a proved element.  Transpositions enter
    # the chain only after the other transports, so a symmetric group
    # whose generators are all transpositions comes from the union-find
    # certificate, fed by transposition transports and their conjugates;
    # it must hold k - 1 of them, joining the k slots.
    certified = 0
    for n in range(2, 7):
        for masks, _ in connected_graph_classes(n):
            g = graph_from_masks(masks)
            for k in range(1, n):
                base = tuple(range(k))
                grp = _config_group(masks, n, base)[1]
                want = set(harvest_group(g, base).elements())
                assert set(grp.elements()) == want, (masks, k)
                assert all(p in want for p in grp.generators), (masks, k, grp.generators)
                moved = [[i for i in range(k) if p[i] != i] for p in grp.generators]
                if k < 2 or not grp.is_symmetric() or any(len(m) != 2 for m in moved):
                    continue
                certified += 1
                assert len(moved) == k - 1, (masks, k, grp.generators)
                comp = {0}
                while any(len(comp & set(m)) == 1 for m in moved):
                    comp |= {x for m in moved if comp & set(m) for x in m}
                assert comp == set(base), (masks, k, grp.generators)
    assert certified > 0


def _width_cases(n):
    """Graphs on n vertices: a path, a cycle, a triangle with a tail, a
    cycle with a chord, and a triangle beside a path (disconnected)."""
    tail = [(i, i + 1) for i in range(2, n - 1)]
    out = [("path", [(i, i + 1) for i in range(n - 1)])]
    if n >= 3:
        out.append(("cycle", [(i, (i + 1) % n) for i in range(n)]))
    if n >= 4:
        out.append(("lollipop", [(0, 1), (1, 2), (0, 2)] + tail))
        out.append(("theta", [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)]))
        out.append(("split", [(0, 1), (1, 2), (0, 2)] + tail[1:]))
    return [(name, Graph.from_edges(n, edges)) for name, edges in out]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9, 16, 17])
def test_config_group_matches_harvest_across_field_widths(n):
    # a packed representative gives each slot (n - 1).bit_length() bits,
    # which grows at n = 3, 5, 9 and 17; pebbles start on the lowest and
    # on the highest vertices
    for name, g in _width_cases(n):
        masks = adjacency_masks(g)
        for k in sorted({1, 2, n - 1, n} if n < 16 else {1, 2, 3}):
            if name == "theta" and perm(n, k) > 50_000:
                continue         # 9! labelled states; the cycle covers k = 8
            for start in (tuple(range(k)), tuple(range(n - 1, n - 1 - k, -1))):
                reps, grp = _config_group(masks, n, start)
                want = harvest_group(g, start)
                case = (name, n, start)
                assert grp.order() == want.order(), case
                for i, j in itertools.combinations(range(k), 2):
                    t = transposition(k, i, j)
                    assert (t in grp) == (t in want), (case, i, j)
                reached = labelled_class(g, start)
                if grp.is_symmetric():
                    assert {sum(1 << v for v in s) for s in reached} == {
                        sum(1 << v for v in s) for s in itertools.permutations(
                            [v for v in range(n) if reps >> v & 1], k)}, case
                else:
                    assert set(reps.values()) <= reached, case
                    assert set(reps) == {sum(1 << v for v in s) for s in reached}, case
                    assert all(sum(1 << v for v in r) == c for c, r in reps.items()), case


@pytest.fixture
def sifts(monkeypatch):
    """Every generator a PermGroup receives to sift, in order."""
    received = []
    real = PermGroup.__init__

    def recording(self, degree, generators=()):
        generators = list(generators)
        received.extend(generators)
        real(self, degree, generators)

    monkeypatch.setattr(PermGroup, "__init__", recording)
    return received


def theta7() -> Graph:
    # a fresh graph each time: a graph keeps every group it has built, so
    # a test that counts the work of building one needs a graph not yet
    # queried
    return Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4),
                                (4, 5), (5, 6), (6, 2), (1, 5)])


def test_tree_certified_query_sifts_nothing(sifts):
    # the theta7 and c4-pendant queries end on a tree of proved
    # transpositions, so no transport reaches the stabilizer chain; a
    # search that ends without a tree sifts its distinct transports, then
    # the tree
    for start in ((0, 1, 2, 3, 4), (6, 1, 2, 3)):
        assert pebble_permutation_group(theta7(), start).is_symmetric()
    c4_pendant = Graph.from_edges(5, [(0, 4), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert pebble_permutation_group(c4_pendant, (0, 1, 2)).is_symmetric()
    assert sifts == []
    # a 5-cycle with a pendant vertex proves no transposition on the way
    # to S_4; the chain's orbit product certifies it
    c5_pendant = graph_from_masks((38, 9, 17, 18, 12, 1))
    assert pebble_permutation_group(c5_pendant, (0, 1, 2, 3)).is_symmetric()
    assert sifts == [(2, 0, 3, 1), (0, 2, 3, 1)]


def theta332() -> Graph:
    # hubs 0 and 1 joined by paths with 3, 3 and 2 interior vertices
    return Graph.from_edges(10, [(0, 2), (2, 3), (3, 4), (4, 1), (0, 5),
                                 (5, 6), (6, 7), (7, 1), (0, 8), (8, 9),
                                 (9, 1)])


@pytest.mark.parametrize("make, start, dequeued", [
    (theta7, (0, 1, 2, 3, 4), 7),
    (theta7, (6, 1, 2, 3), 7),
    (theta332, (0, 1, 2, 3, 4), 31),
], ids=["theta7", "theta7-late", "theta332"])
def test_conjugated_transpositions_end_the_search_early(monkeypatch, make,
                                                        start, dequeued):
    # conjugates of proved transpositions complete the tree after 7, 7 and
    # 31 configurations; transposition transports alone need 16, 13 and 157
    pops = []

    class CountingDeque(deque):
        def popleft(self):
            pops.append(None)
            return super().popleft()

    g = make()
    monkeypatch.setattr(pebbles, "deque", CountingDeque)
    grp = pebble_permutation_group(g, start)
    assert grp.is_symmetric()
    assert len(pops) == dequeued


def test_repeated_transports_are_sifted_once(sifts):
    # on the 22-cycle with k = 7, 38,760 non-tree loops move pebbles, each
    # by a rotation; a repeat never extends the chain, so at most
    # |G| - 1 = 6 distinct transports are sifted
    assert pebble_permutation_group(cycle_graph(22), tuple(range(7))).order() == 7
    assert 1 <= len(sifts) <= 6


# ---------------------------------------------------------------------------
# a graph keeps its groups
# ---------------------------------------------------------------------------

@pytest.fixture
def engine_runs(monkeypatch):
    """One entry per run of the configuration BFS, with its start."""
    runs = []
    real = pebbles._config_group

    def counting(adj_masks, n, start, cap=pebbles.DEFAULT_STATE_CAP):
        runs.append(start)
        return real(adj_masks, n, start, cap)

    monkeypatch.setattr(pebbles, "_config_group", counting)
    monkeypatch.setattr(structure, "_config_group", counting)
    return runs


def test_six_readers_share_one_search_on_an_s_k_graph(engine_runs):
    g, base = theta7(), tuple(range(5))
    assert len(reachable_states(g, base)) == perm(7, 5)
    assert pebbles.is_achievable(g, base, (1, 0, 2, 3, 4))
    assert pebble_permutation_group(g, base).is_symmetric()
    with pytest.raises(ValidationError):
        rb_colouring(g, base)
    assert is_k_pebble_win(g, 5)
    assert structure_witness(g, 5).pebble_win
    assert engine_runs == [base]


def test_a_non_s_k_table_is_searched_again(engine_runs, c6):
    # the cyclic group of three pebbles on C6 comes with a table of 20
    # representatives, which the graph does not keep
    base = (0, 1, 2)
    assert len(reachable_states(c6, base)) == 60
    assert pebble_permutation_group(c6, base).order() == 3
    assert rb_colouring(c6, base) == {0: "r", 1: "b", 2: "b"}
    assert not is_k_pebble_win(c6, 3)
    assert structure_witness(c6, 3).witness.cycle
    assert len(engine_runs) == 1
    assert pebbles.is_achievable(c6, base, (1, 2, 0))
    assert not pebbles.is_achievable(c6, base, (1, 0, 2))
    assert len(reachable_states(c6, base)) == 60
    assert len(engine_runs) == 4


@pytest.mark.parametrize("make, n", [(path_graph, 5), (complete_graph, 4)],
                         ids=["trivial", "symmetric"])
def test_a_stored_group_still_meets_the_cap(make, n):
    # P5 and K4 place two pebbles in 10 and 6 configurations; a cap below
    # that refuses after a default-cap call as it does on a fresh graph
    g, start, low = make(n), (0, 1), perm(n, 2) // 2 - 1
    calls = [lambda cap: pebble_permutation_group(g, start, cap=cap),
             lambda cap: reachable_states(g, start, cap=cap),
             lambda cap: pebbles.is_achievable(g, start, start[::-1], cap=cap),
             lambda cap: is_k_pebble_win(g, 2, cap=cap),
             lambda cap: structure_witness(g, 2, cap=cap)]
    with pytest.raises(StateCapExceeded) as fresh:
        calls[0](low)
    for call in calls:
        call(pebbles.DEFAULT_STATE_CAP)
        with pytest.raises(StateCapExceeded) as exc:
            call(low)
        assert str(exc.value) == str(fresh.value)


def test_equal_graphs_give_equal_answers():
    # a graph queried at many starts first, and an equal one queried cold
    cases = [(theta7(), 5), (cycle_graph(6), 3), (path_graph(5), 2),
             (star_graph(3), 2)]
    for g, k in cases:
        warm = Graph(g.n, g.edges)
        assert warm == g and warm is not g
        for start in itertools.permutations(range(g.n), k):
            pebble_permutation_group(warm, start)
        for start in [tuple(range(k)), tuple(range(g.n - 1, g.n - 1 - k, -1))]:
            for h in (g, warm):
                grp = pebble_permutation_group(h, start)
                answer = (grp.order(), grp.generators, reachable_states(h, start),
                          is_k_pebble_win(h, k), structure_witness(h, k))
                if h is g:
                    cold = answer
            assert answer == cold, (g, start)
        for entry in [*g._pebble_groups.values(), *warm._pebble_groups.values()]:
            # a count, a bitmask or None, and the group: no table of
            # representatives
            assert not any(isinstance(x, dict) for x in entry), (g, entry)


def test_threads_sharing_a_fresh_graph_agree():
    # from Python 3.12 functools.cached_property takes no lock, so threads
    # that meet a fresh graph may each build its dict of groups; one dict
    # is then dropped with its entries, and no answer may change
    want = [(120, perm(7, 5), True), (3, 60, False)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            graphs = [(theta7(), 5), (cycle_graph(6), 3)]
            answers = []

            def ask():
                answers.append([(pebble_permutation_group(g, tuple(range(k))).order(),
                                 len(reachable_states(g, tuple(range(k)))),
                                 is_k_pebble_win(g, k)) for g, k in graphs])

            threads = [threading.Thread(target=ask) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert answers == [want] * 6
    finally:
        sys.setswitchinterval(old)


def _connected_without(adj, v):
    rest = [u for u in range(len(adj)) if u != v]
    seen, stack = {rest[0]}, [rest[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w != v and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(rest)


def _is_bipartite(adj):
    side = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in side:
                side[w] = 1 - side[u]
                stack.append(w)
            elif side[w] == side[u]:
                return False
    return True


def test_wilson_groups_of_2_connected_graphs():
    # Wilson (1974): on a 2-connected graph that is neither a cycle nor
    # the 7-vertex theta_0, n - 1 pebbles generate A_{n-1} when the graph
    # is bipartite and S_{n-1} otherwise.  Each class counts for its
    # n!/|Aut| labelled graphs.
    graphs = bipartite = 0
    exceptions = []
    for n in range(3, 8):
        for masks, aut in connected_graph_classes(n):
            g = graph_from_masks(masks)
            adj = g.adjacency()
            if is_cycle_graph(g) or not all(_connected_without(adj, v)
                                            for v in range(n)):
                continue
            copies = factorial(n) // aut if n < 7 else 0
            graphs += copies
            grp = pebble_permutation_group(g, tuple(range(n - 1)))
            if _is_bipartite(adj):
                bipartite += copies
                wilson = factorial(n - 1) // 2
            else:
                wilson = factorial(n - 1)
            if grp.order() != wilson:
                exceptions.append((masks, grp.order()))
    assert (graphs, bipartite) == (11541, 305)
    # theta_0 = theta(2,3,3): paths of 2, 3 and 3 edges between 0 and 1;
    # its six pebbles generate PGL(2,5), of order 120
    theta0 = Graph.from_edges(7, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1),
                                  (0, 5), (5, 6), (6, 1)])
    assert exceptions == [(canonical_form(adjacency_masks(theta0))[0], 120)]


def test_2_connected_non_cycles_are_n_minus_2_pebble_win():
    # Kornhauser, Miller and Spirakis (FOCS 1984): with two holes, every
    # 2-connected graph that is not a cycle is won.  A graph is 2-connected
    # when it stays connected after deleting any one vertex, and a
    # connected graph is a cycle when every vertex has degree 2.
    classes = 0
    for n in range(3, 8):
        for masks, _ in connected_graph_classes(n):
            adj = [[u for u in range(n) if m >> u & 1] for m in masks]
            if all(len(a) == 2 for a in adj):
                continue
            if not all(_connected_without(adj, v) for v in range(n)):
                continue
            classes += 1
            assert is_k_pebble_win(graph_from_masks(masks), n - 2), masks
    # 2-connected classes (OEIS A002218) less one cycle per n
    assert classes == 0 + 2 + 9 + 55 + 467


def test_certified_symmetric_group_stops_the_search():
    # K_30 has C(30, 5) = 142,506 configurations, and the orbit product
    # reaches 5! after a few of them; walking them all takes seconds
    g = complete_graph(30)
    t0 = time.perf_counter()
    assert is_k_pebble_win(g, 5)
    assert time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    assert pebble_permutation_group(g, tuple(range(5))).order() == 120
    assert time.perf_counter() - t0 < 1.0


def test_win_monotone_in_k():
    # k-pebble-win implies j-pebble-win for j < k; the sweep relies on it
    for g in enumerate_connected_graphs(5):
        wins = [is_k_pebble_win(g, k) for k in range(1, g.n + 1)]
        for lo, hi in zip(wins, wins[1:]):
            assert lo or not hi, g


# ---------------------------------------------------------------------------
# red/blue colouring
# ---------------------------------------------------------------------------

def test_rb_path_endpoints(p5):
    assert rb_colouring(p5, (0, 4)) == {0: "r", 1: "b"}


def test_rb_cycle_sizes(c6):
    col = rb_colouring(c6, (0, 1, 2))
    sizes = sorted([sum(1 for c in col.values() if c == "r"),
                    sum(1 for c in col.values() if c == "b")])
    assert sizes == [1, 2]
    assert col[0] == "r"


def test_rb_errors_on_win(k4, monkeypatch):
    def member(self, p):
        raise AssertionError("a win graph's group was asked for a member")

    # the group knows it is S_k, so no transposition is tested
    monkeypatch.setattr(PermGroup, "__contains__", member)
    with pytest.raises(ValidationError, match="pebble-win"):
        rb_colouring(k4, (0, 1))
    assert structure_witness(k4, 2).pebble_win


def test_rb_contract_no_cross_transposition():
    cases = [(path_graph(5), (0, 2, 4)), (cycle_graph(6), (0, 2, 4)),
             (cycle_graph(5), (0, 1, 2))]
    for g, start in cases:
        col = rb_colouring(g, start)
        grp = harvest_group(g, start)
        k = len(start)
        reds = [i for i in range(k) if col[i] == "r"]
        blues = [i for i in range(k) if col[i] == "b"]
        assert reds and blues
        for i in reds:
            for j in blues:
                assert transposition(k, i, j) not in grp


def test_cycle_plus_pendant_is_win():
    # an r-cycle with one pendant vertex is (r-2)-pebble-win: no red/blue
    # split can survive the rotations plus the parking spot
    for r in (4, 5, 6):
        edges = [(i, (i + 1) % r) for i in range(r)] + [(0, r)]
        g = Graph.from_edges(r + 1, edges)
        assert is_k_pebble_win(g, r - 2)


# ---------------------------------------------------------------------------
# structure witness
# ---------------------------------------------------------------------------

def test_witness_path_graph():
    rep = structure_witness(path_graph(6), 2)
    assert not rep.pebble_win
    assert rep.witness.vertices == (0, 1, 2, 3, 4, 5)
    assert all(rep.witness.edge_is_bridge)
    assert not rep.witness.cycle
    assert rep.colouring is not None


def test_witness_cycle(c6):
    rep = structure_witness(c6, 3)
    assert not rep.pebble_win
    assert rep.witness.cycle
    assert len(rep.witness.vertices) == 6
    assert not any(rep.witness.edge_is_bridge)


def test_witness_win_graph():
    rep = structure_witness(complete_graph(5), 3)
    assert rep.pebble_win and rep.witness is None and rep.colouring is None


def test_witness_preconditions(k4):
    with pytest.raises(ValidationError):
        structure_witness(k4, 3)          # needs n >= k + 2


def test_witness_mixed_bare_paths():
    # 4-cycle with a pendant path loses with four pebbles; the qualifying
    # witness must be the all-bridges tail (0,4,5,6), not the
    # lexicographically smaller cycle arc (0,1,2,3)
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0),
                             (0, 4), (4, 5), (5, 6)])
    k = 4
    assert is_k_pebble_win(g, 3)
    assert not is_k_pebble_win(g, k)
    rep = structure_witness(g, k)
    assert rep.witness.vertices == (0, 4, 5, 6)
    assert is_bare_path(g, rep.witness.vertices)
    assert g.n - len(rep.witness.vertices) <= k
    br = bridges(g)
    assert all((min(a, b), max(a, b)) in br
               for a, b in zip(rep.witness.vertices, rep.witness.vertices[1:]))


def test_missing_witness_is_refused(k4, monkeypatch):
    # K4's bare paths are single edges, each missing two vertices
    assert structure._find_witness(k4, 1) is None
    # a losing graph without a witness is a refusal, never a report
    monkeypatch.setattr(structure, "_find_witness", lambda g, k: None)
    with pytest.raises(StructureWitnessNotFound, match=r"k=2 in Graph\(n=5, "):
        structure_witness(path_graph(5), 2)


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def test_sweep_monotone_shortcut_agrees():
    # the sweep stops at the first win in k; decide every instance instead
    checked = non_win = 0
    for n in range(3, 6):
        for g in enumerate_connected_graphs(n):
            for k in range(1, n - 1):
                checked += 1
                non_win += not is_k_pebble_win(g, k)
    rep = verify_structure_theorem(5, workers=1)
    assert (rep["checked"], rep["non_pebble_win"]) == (checked, non_win)


def test_class_sweep_matches_labelled_oracle():
    rep = verify_structure_theorem(6, workers=1)
    for row in rep["per_n"]:
        checked, non_win, failures = labelled_sweep(row["n"])
        assert (row["checked"], row["non_pebble_win"]) == (checked, non_win), row
        assert failures == 0
    assert [row["classes"] for row in rep["per_n"]] == [1, 1, 2, 6, 21, 112]
    assert (rep["checked"], rep["non_pebble_win"]) == (109_080, 6_024)


def test_sweep_failures_name_representatives(monkeypatch):
    # with every witness refused, each non-win is a failure, counted per
    # labelled graph and reported once per class and k, each class's k
    # downward from n - 2
    monkeypatch.setattr(structure, "_find_witness", lambda g, k: None)
    rep = verify_structure_theorem(5, workers=1)
    assert rep["failures"] == rep["non_pebble_win"] == 264
    detail = rep["failures_detail"]
    assert sum(f["labelled_copies"] for f in detail) == 264
    assert len(detail) < 264
    for (n, edges), fs in itertools.groupby(
            detail, lambda f: (f["n"], f["representative"])):
        g = Graph.from_edges(n, edges)
        assert is_connected(g)
        assert [f["k"] for f in fs] == [k for k in range(n - 2, 0, -1)
                                        if not is_k_pebble_win(g, k)]


def test_sweep_looks_for_one_witness_per_class(monkeypatch):
    # a witness for a class's least non-win k serves every larger k, so a
    # class with a non-win asks for one witness, there
    asked = []
    find = structure._find_witness
    monkeypatch.setattr(structure, "_find_witness",
                        lambda g, k: asked.append((g.n, k)) or find(g, k))
    assert verify_structure_theorem(6, workers=1)["failures"] == 0
    least = []
    for n in range(3, 7):
        for adj, _ in connected_graph_classes(n):
            g = graph_from_masks(adj)
            wins = [k for k in range(1, n - 1) if is_k_pebble_win(g, k)]
            if len(wins) < n - 2:
                least.append((n, len(wins) + 1))
    assert sorted(asked) == sorted(least)


def test_sweep_dequeues_are_pinned():
    # 1,084 dequeues in all: the BFS reads a non-tree edge's loop when it
    # first sees the edge, so it proves its tree of transpositions sooner;
    # read at the end with the lesser configuration mask, 1,315
    rows = probe(6)
    assert [row["classes"] for row in rows.values()] == [1, 1, 2, 6, 21, 112]
    assert [row["dequeues"] for row in rows.values()] == [0, 0, 0, 20, 131, 933]
    assert [row["canonical_forms"] for row in rows.values()] == [0, 0, 0, 3, 9, 48]


def test_sweep_generates_each_class_once(monkeypatch):
    # one canonical form per child whose deletion invariant ties with a
    # vertex that is not a twin of the new one, and one per parent with
    # automorphisms that no generators came with: any other child gets
    # |Aut| by orbit-stabilizer, the new vertex's orbit being it and its
    # tied twins, and its parent's generators with the swaps of the twins
    # when every automorphism of the parent fixes its neighbourhood.  A
    # canonical form for every child whose invariant ties took 85; for
    # every parent with automorphisms, 108; for every parent and for every
    # child that passes the invariant, 177; every level below n_max again,
    # or every neighbourhood of a parent, 370
    import pebblekit.graphs as graphs
    calls = []
    canonical = graphs._canonical
    monkeypatch.setattr(graphs, "_canonical",
                        lambda adj: calls.append(1) or canonical(adj))
    assert verify_structure_theorem(6, workers=1)["checked"] == 109_080
    assert len(calls) <= 60


def test_sweep_parallel_agrees(monkeypatch):
    # the deepest level at n = 7 is 7 jobs, so one real pool of two
    # workers runs every level and hands back each level's parents
    import multiprocessing
    import os
    real = multiprocessing.get_context
    sizes = []

    class RecordingContext:
        def __init__(self, method):
            self.ctx = real(method)

        def Pool(self, workers):
            sizes.append(workers)
            return self.ctx.Pool(workers)

    a = verify_structure_theorem(7, workers=1)
    monkeypatch.setattr(multiprocessing, "get_context", RecordingContext)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    b = verify_structure_theorem(7, workers=2)
    assert sizes == [2]
    for key in ("checked", "non_pebble_win", "failures", "per_n"):
        assert a[key] == b[key]


@pytest.mark.parametrize("cpus, size", [(3, 3), (64, 4)])
def test_sweep_worker_count_is_bounded(monkeypatch, cpus, size):
    # at 32 parents per job the deepest level at n = 7 is 4 jobs: the pool
    # gets at most one worker per CPU and per job of that level; a fake
    # pool records its size and maps in this process
    import multiprocessing
    import os
    import pebblekit.structure as structure
    monkeypatch.setattr(structure, "SWEEP_CHUNK", 32)
    sizes = []

    class FakePool:
        def __init__(self, workers):
            sizes.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext())
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    rep = verify_structure_theorem(7, workers=100_000)
    assert sizes == [size]
    serial = verify_structure_theorem(7, workers=1)
    for key in ("checked", "non_pebble_win", "failures"):
        assert rep[key] == serial[key]


def test_sweep_default_is_serial_up_to_n7(monkeypatch):
    # a pool costs more than it saves below n = 8
    import multiprocessing

    def no_pool(method):
        raise AssertionError("the default sweep started a pool")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert verify_structure_theorem(5)["failures"] == 0


def test_sweep_rejects_large_n():
    with pytest.raises(ValidationError):
        verify_structure_theorem(SWEEP_MAX_N + 1)


@pytest.mark.parametrize("workers", [0, -4])
def test_sweep_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValidationError, match="workers must be >= 1"):
        verify_structure_theorem(3, workers=workers)


@pytest.mark.parametrize("n_max, workers, name", [
    (3.0, 1, "n_max"), ("3", None, "n_max"), (3, 1.5, "workers"), (8, 1.5, "workers"),
])
def test_sweep_refuses_arguments_that_are_no_integers(n_max, workers, name):
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        verify_structure_theorem(n_max, workers=workers)


def test_sweep_reads_integer_arguments_as_ints():
    rep = verify_structure_theorem(True, workers=_Two())
    assert rep["n_max"] == 1 and type(rep["n_max"]) is int
