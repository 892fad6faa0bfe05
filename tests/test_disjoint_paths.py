"""The exact disjoint-paths decision and the rim-crossing certificate,
fuzzed against brute force."""

import itertools
import random

import pytest

from pebblekit import disjoint_paths
from pebblekit.disjoint_paths import disjoint_paths_exist
from pebblekit.errors import ResourceCapError, ValidationError
from pebblekit.linkage import _rim_chords_cross, _route
from pebblekit.worlds import make_world, truncate


def brute_force(n, adj, terminals, blocked):
    blocked = set(blocked)
    for s, t in terminals:
        if s == t:
            if s in blocked:
                return False
            blocked.add(s)
    pairs = [(s, t) for s, t in terminals if s != t]
    for s, t in pairs:
        if s in blocked or t in blocked:
            return False

    def rec(idx, used):
        if idx == len(pairs):
            return True
        s, t = pairs[idx]
        if s in used or t in used:
            return False
        stack = [(s, {s})]
        while stack:
            u, seen = stack.pop()
            if u == t:
                if rec(idx + 1, used | seen):
                    return True
                continue
            for w in adj[u]:
                if w in seen or w in used or w in blocked:
                    continue
                stack.append((w, seen | {w}))
        return False

    return rec(0, set())


def check_routed(adj, terminals, blocked, want):
    """The router may miss a feasible family, but what it returns must be
    one: vertex-disjoint paths avoiding ``blocked``, one per terminal pair;
    and when it refutes the pairs (False), brute force must agree."""
    paths = _route(adj, terminals, set(blocked))
    if paths is None:
        return
    assert want == (paths is not False), (terminals, sorted(blocked))
    if paths is False:
        return
    used = set()
    for (s, t), path in zip(terminals, paths):
        assert path[0] == s and path[-1] == t
        assert all(b in adj[a] for a, b in zip(path, path[1:]))
        assert len(set(path)) == len(path)
        assert not set(path) & set(blocked)
        assert not set(path) & used
        used |= set(path)


def test_simple_cases():
    # path graph: one walk end to end
    adj = [[1], [0, 2], [1]]
    assert disjoint_paths_exist(adj, [(0, 2)])
    assert not disjoint_paths_exist(adj, [(0, 2)], blocked=[1])
    # two walks through a single shared hub: impossible
    adj4 = [[2], [2], [0, 1, 3], [2]]
    assert disjoint_paths_exist(adj4, [(0, 3)])
    assert not disjoint_paths_exist(adj4, [(0, 3), (1, 2)])


def test_single_vertex_walks():
    adj = [[1], [0, 2], [1]]
    assert disjoint_paths_exist(adj, [(1, 1)])
    assert not disjoint_paths_exist(adj, [(1, 1), (0, 2)])


def test_validation():
    adj = [[1], [0]]
    with pytest.raises(ValidationError):
        disjoint_paths_exist(adj, [(0, 1)], blocked=[0])
    with pytest.raises(ValidationError):
        disjoint_paths_exist(adj, [(0, 1), (1, 0)])  # reused terminal
    # a single-vertex walk's vertex is a terminal too, whichever walk
    # names it first
    path = [[1], [0, 2], [1]]
    for terms in ([(0, 1), (1, 1)], [(1, 1), (0, 1)]):
        with pytest.raises(ValidationError, match="terminal vertex 1 used twice"):
            disjoint_paths_exist(path, terms)


def test_state_cap(monkeypatch):
    monkeypatch.setattr(disjoint_paths, "DP_STATE_CAP", 50)
    t = truncate(make_world("full-grid"), 3)
    adj = [list(a) for a in t.graph.adjacency()]
    terms = [(t.index_of((-3, -3)), t.index_of((3, 3))),
             (t.index_of((-3, 3)), t.index_of((3, -3)))]
    with pytest.raises(ResourceCapError):
        disjoint_paths_exist(adj, terms)


def test_anchored_ends_carry_their_walk_only():
    # an open end anchored at a terminal does not say which of its walk's
    # two terminals it came from, so this instance, which took over
    # DP_STATE_CAP states while it did, is decided; the router's paths
    # are the witness
    t = truncate(make_world("full-grid"), 3)
    adj = t.graph.adjacency()
    terms = [(43, 45), (21, 4), (19, 22)]
    assert disjoint_paths_exist(adj, terms)
    check_routed(adj, terms, (), True)
    assert _route(adj, terms, set())


def check_sweep(adj, live):
    """A wrong ``gone`` only costs states, never an answer, so the sweep's
    bookkeeping is checked on its own: each live vertex is yielded once,
    with exactly its live neighbours yielded before it, and appears in one
    ``gone``, that of the step after which it has no unswept live
    neighbour."""
    swept, retired = [], []
    for v, earlier, gone in disjoint_paths._sweep_order(adj, live):
        assert v in live and v not in swept
        assert sorted(earlier) == sorted(w for w in adj[v] if w in swept)
        swept.append(v)
        retired.extend(gone)
        assert sorted(retired) == [u for u in sorted(swept)
                                   if all(w in swept for w in adj[u] if w in live)]
    assert sorted(swept) == sorted(live)


def test_fuzz_against_brute_force():
    rng = random.Random(7)
    for trial in range(250):
        n = rng.randint(4, 9)
        edges = set()
        for _ in range(rng.randint(n - 1, n * 2)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        adj = [sorted(a) for a in adj]
        k = rng.randint(1, 4)
        verts = list(range(n))
        rng.shuffle(verts)
        if len(verts) < 2 * k:
            continue
        terms = [(verts[2 * i], verts[2 * i + 1]) for i in range(k)]
        if rng.random() < 0.2:
            terms[-1] = (terms[-1][0], terms[-1][0])   # a single-vertex walk
        pool = verts[2 * k:]
        blocked = set(rng.sample(pool, k=min(rng.randint(0, 2), len(pool))))
        got = disjoint_paths_exist(adj, terms, blocked)
        want = brute_force(n, adj, terms, blocked)
        assert got == want, (trial, sorted(edges), terms, sorted(blocked))
        check_routed(adj, terms, blocked, want)
        check_sweep(adj, set(range(n)) - blocked - {s for s, t in terms if s == t})


def fuzz_certificate(t, seed, trials, rim_pairs):
    """Random terminal pairs on window ``t``, most of them from
    ``rim_pairs(rng, k)``: the rim certificate may fire only where brute
    force finds no disjoint paths, the unpruned DP must agree with brute
    force, and the router may only return genuine paths.  Returns how
    often the certificate fired."""
    rng = random.Random(seed)
    adj = [list(a) for a in t.graph.adjacency()]
    n = t.graph.n
    allv = list(range(n))
    fired = 0
    for trial in range(trials):
        k = rng.randint(1, 3)
        verts = rng.sample(allv, 2 * k)
        if rng.random() < 0.6:
            terms = rim_pairs(rng, k)
        else:
            terms = [(verts[2 * i], verts[2 * i + 1]) for i in range(k)]
        used = set(itertools.chain.from_iterable(terms))
        if len(used) < 2 * k:
            continue
        pool = [v for v in allv if v not in used]
        blocked = set(rng.sample(pool, k=rng.randint(0, 3)))
        want = brute_force(n, adj, terms, blocked)
        if _rim_chords_cross(t, terms):
            fired += 1
            assert not want, (trial, terms, sorted(blocked))
        got = disjoint_paths_exist(adj, terms, blocked)
        assert got == want, (trial, terms, sorted(blocked))
        check_routed(adj, terms, blocked, want)
    return fired


def test_fuzz_with_planarity_prune():
    # half-grid window, terminals from the bottom and top rims
    d = 3
    t = truncate(make_world("half-grid"), d)
    bottom = [t.index_of((x, 0)) for x in range(-d, d + 1)]
    top = [t.index_of((x, d)) for x in range(-d, d + 1)]

    def rim_pairs(rng, k):
        return list(zip(rng.sample(bottom, k), rng.sample(top, k)))

    assert fuzz_certificate(t, 11, 250, rim_pairs) > 0


@pytest.mark.parametrize("kind, d, seed, trials", [("full-grid", 2, 12, 100),
                                                   ("hex-half-grid", 3, 13, 250)])
def test_certificate_sound_on_every_rim_side(kind, d, seed, trials):
    # terminals anywhere on the rim: all four sides of the full grid, and
    # the brick wall, which is only a subgraph of the half-grid drawing
    t = truncate(make_world(kind), d)
    xs = {x for x, _ in t.coords}
    ys = {y for _, y in t.coords}
    rim = [v for v, (x, y) in enumerate(t.coords)
           if x in (min(xs), max(xs)) or y in (min(ys), max(ys))]

    def rim_pairs(rng, k):
        ends = rng.sample(rim, 2 * k)
        return list(zip(ends[::2], ends[1::2]))

    assert fuzz_certificate(t, seed, trials, rim_pairs) > 0


def test_crossing_pairs_on_grid_windows():
    # interleaved rim terminals can never be joined by disjoint paths;
    # the certificate says so at every depth, the DP alone at d = 4
    hg = make_world("half-grid")
    for d in (4, 6, 9):
        t = truncate(hg, d)

        def term(i, j):
            return (t.index_of((i, 0)), t.index_of((j, d)))

        crossing = [term(0, 3), term(1, 2)]
        nested = [term(0, 2), term(1, 3)]
        assert _rim_chords_cross(t, crossing)
        assert not _rim_chords_cross(t, nested)
        if d == 4:
            adj = [list(a) for a in t.graph.adjacency()]
            assert not disjoint_paths_exist(adj, crossing)
            assert disjoint_paths_exist(adj, nested)
