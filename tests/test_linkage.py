"""Linkage search and the independent walk checker."""

import os
import random
from collections import Counter
import subprocess
import sys
from pathlib import Path

import pytest

import pebblekit
from pebblekit import linkage
from pebblekit.cli import main
from pebblekit.errors import (LinkageCheckError, NoLinkageError,
                              ResourceCapError, ValidationError)
from pebblekit.graphs import Graph
from pebblekit.linkage import (Linkage, check_linkage, find_linkage,
                               realize_transition)
from pebblekit.pebbles import legal_moves
from pebblekit.rays import ray_graph
from pebblekit.worlds import (RaySpec, canonical_rays, chebyshev_ball, make_world,
                              truncate)

from linkage_probe import probe, tally
from oracles import cheapest_cost, float_cheapest_path, linkable_by_definition


@pytest.fixture(scope="module")
def half_setup():
    hg = make_world("half-grid")
    return hg, truncate(hg, 8), canonical_rays(hg, 6)


def test_identity_linkage_is_pure_ride(half_setup):
    hg, t, cols = half_setup
    lk = find_linkage(t, cols[:2], cols[:2], set(), {0: 0, 1: 1})
    assert lk.sigma == {0: 0, 1: 1}
    assert lk.paths == {0: (), 1: ()}
    walks = check_linkage(t, cols[:2], cols[:2], lk)
    assert len(walks) == 2


def test_free_sigma_is_injective(half_setup):
    hg, t, cols = half_setup
    lk = find_linkage(t, cols[:3], cols[3:6], set())
    assert sorted(lk.sigma) == [0, 1, 2]
    assert len(set(lk.sigma.values())) == 3
    check_linkage(t, cols[:3], cols[3:6], lk)


def test_reversal_infeasible_at_every_depth(half_setup, monkeypatch):
    # the rim certificate refutes a grid reversal before any routing
    hg, _, cols = half_setup

    def no_routing(*args):
        raise AssertionError("a crossing pairing reached the router")

    monkeypatch.setattr(linkage, "_route", no_routing)
    for depth in (6, 9, 12):
        t = truncate(hg, depth)
        with pytest.raises(NoLinkageError) as err:
            find_linkage(t, cols[:3], cols[3:6], set(), {0: 2, 1: 1, 2: 0})
        assert err.value.depth == depth


def test_linkage_after_ball(half_setup):
    hg, t, cols = half_setup
    ball = set(chebyshev_ball(t, 3))
    lk = find_linkage(t, cols[:2], cols[2:4], ball, {0: 0, 1: 1})
    walks = check_linkage(t, cols[:2], cols[2:4], lk)
    # connectors and tails stay out of the ball
    for i, p in lk.paths.items():
        assert not (set(p[1:]) & ball)
    assert lk.after == frozenset(ball)


def test_validations(half_setup):
    hg, t, cols = half_setup
    with pytest.raises(ValidationError):
        find_linkage(t, cols[:3], cols[:2], set())     # |R| > |S|
    with pytest.raises(ValidationError):
        find_linkage(t, cols[:2], cols[:2], set(), {0: 0, 1: 0})
    with pytest.raises(ValidationError):
        find_linkage(t, cols[:2], cols[:2], set(), {0: 5, 1: 0})
    with pytest.raises(ValidationError):
        find_linkage(t, cols[:2], cols[:2], {-3}, {0: 0, 1: 1})
    # a family that names one ray twice is refused like one whose rays cross
    crossing = RaySpec(hg, ((-1, 1), (0, 1)), ((0, 1),), 9)   # joins column 0
    for src, tgt in (([cols[0], cols[0]], cols[1:3]),
                     (cols[:2], [cols[2], cols[2]]),
                     ([cols[0], crossing], cols[2:4])):
        with pytest.raises(ValidationError, match="intersect"):
            find_linkage(t, src, tgt)


def test_find_linkage_refuses_malformed_families_and_pairings(half_setup):
    hg, t, cols = half_setup
    with pytest.raises(ValidationError, match="source family is empty"):
        find_linkage(t, [], cols[:2])
    with pytest.raises(ValidationError, match="every source position"):
        find_linkage(t, cols[:2], cols[:3], set(), {0: 1})
    # 1.0 == 1, but a float can index neither a ray family nor the window
    for sigma in ({0: 1.0, 1: 0}, {0.0: 0, 1: 1}):
        with pytest.raises(ValidationError, match="sigma entries must be integers"):
            find_linkage(t, cols[:2], cols[:2], set(), sigma)
    with pytest.raises(ValidationError, match="X vertices must be integers"):
        find_linkage(t, cols[:2], cols[:2], {1.0}, {0: 0, 1: 1})
    # a target ray that starts halfway up the full grid's up column
    fg = make_world("full-grid")
    up = canonical_rays(fg, 1)
    late = RaySpec(fg, ((0, 2),), ((0, 1),), 7)
    with pytest.raises(ValidationError, match="overlap without being identical"):
        find_linkage(truncate(fg, 4), up, [late])


def test_rays_of_another_world_are_refused(half_setup):
    hg, t, cols = half_setup
    fg = make_world("full-grid")
    foreign = canonical_rays(fg, 2)
    with pytest.raises(ValidationError, match="full-grid.*half-grid"):
        find_linkage(t, foreign, foreign)
    lk = find_linkage(t, cols[:2], cols[:2], set(), {0: 0, 1: 1})
    with pytest.raises(ValidationError, match="full-grid.*half-grid"):
        check_linkage(t, foreign, foreign, lk)


def test_checker_rejects_corrupted_linkages(half_setup):
    hg, t, cols = half_setup
    src, tgt = cols[:2], cols[2:4]
    lk = find_linkage(t, src, tgt, set(), {0: 0, 1: 1})
    # non-injective sigma
    bad = Linkage(sigma={0: 0, 1: 0}, paths=lk.paths, after=lk.after)
    with pytest.raises(LinkageCheckError):
        check_linkage(t, src, tgt, bad)
    # a connector that teleports
    p0 = list(lk.paths[0])
    broken = dict(lk.paths)
    broken[0] = tuple(p0[:1] + p0[2:]) if len(p0) > 2 else (p0[0], p0[0])
    bad2 = Linkage(sigma=lk.sigma, paths=broken, after=lk.after)
    with pytest.raises(LinkageCheckError):
        check_linkage(t, src, tgt, bad2)
    # claiming an empty connector across distinct rays
    bad3 = Linkage(sigma=lk.sigma, paths={0: (), 1: lk.paths[1]}, after=lk.after)
    with pytest.raises(LinkageCheckError):
        check_linkage(t, src, tgt, bad3)


@pytest.mark.parametrize("rule, message", [
    ("walk missing from sigma", "walk 2 missing from sigma"),
    ("connector starts off its source ray", "walk 0: connector must start on its source ray"),
    ("connector ends off its target ray", "walk 2: connector must end on its target ray"),
    ("repeated vertex", "walk 0 repeats a vertex"),
    ("X beyond the prefix", "walk 0 uses X vertex .* beyond its prefix"),
    ("shared vertex", "walks 0 and 1 share vertex"),
    ("sigma not iterable", "sigma key list 5 is not iterable"),
    ("connector not iterable", "connector vertex list 5 is not iterable"),
    ("X not iterable", "X vertex list 5 is not iterable"),
])
def test_checker_refuses_each_broken_rule(half_setup, rule, message):
    hg, t, cols = half_setup
    src, tgt = cols[:3], cols[3:6]
    lk = find_linkage(t, src, tgt, set(), {0: 0, 1: 1, 2: 2})
    sigma, paths, X = dict(lk.sigma), dict(lk.paths), lk.after
    if rule == "walk missing from sigma":
        del sigma[2]
    elif rule == "connector starts off its source ray":
        paths[0] = (t.index_of((-1, 0)),) + paths[0]
    elif rule == "connector ends off its target ray":
        paths[2] = paths[2] + (t.index_of((6, 0)),)
    elif rule == "repeated vertex":
        paths[0] = paths[0][:1] + paths[0]
    elif rule == "X beyond the prefix":
        X = frozenset({paths[0][-1]})       # on target ray 3, on no source ray
    elif rule == "sigma not iterable":
        sigma = 5
    elif rule == "connector not iterable":
        paths[0] = 5
    elif rule == "X not iterable":
        X = 5
    else:
        # up column 1 and along the rim through (3, 8), where walk 0 leaves
        paths[1] = tuple(t.index_of(c) for c in [(1, y) for y in range(9)]
                         + [(2, 8), (3, 8), (4, 8)])
    with pytest.raises(LinkageCheckError, match=message):
        check_linkage(t, src, tgt, Linkage(sigma, paths, X))


# a sigma value of -1 must not wrap round to the last target ray, nor a
# connector vertex -1 read as the window's last coordinate; 1.0 == 1, but
# a float cannot index a ray family or the window
@pytest.mark.parametrize("field, value", [
    ("sigma", -1), ("sigma", 2), ("sigma", 1.0),
    ("connector", 10**6), ("connector", -1), ("connector", 21.0)])
def test_checker_refuses_out_of_range_values(half_setup, field, value):
    hg, t, cols = half_setup
    src, tgt = cols[:2], cols[2:4]
    lk = find_linkage(t, src, tgt, set(), {0: 0, 1: 1})
    sigma, paths = dict(lk.sigma), dict(lk.paths)
    if field == "sigma":
        sigma[1] = value
        message = "out of range"
    else:
        paths[0] = paths[0][:1] + (value,) + paths[0][1:]
        message = "outside the window"
    if isinstance(value, float):
        name = "sigma value" if field == "sigma" else "connector vertex"
        message = f"{name} {value} is not an integer"
    with pytest.raises(LinkageCheckError, match=message):
        check_linkage(t, src, tgt, Linkage(sigma, paths, lk.after))


# a key 0.0 stands for 0 in a dict lookup, and would print as "0.0"
@pytest.mark.parametrize("field, key", [
    pytest.param("sigma", 5, id="sigma"), pytest.param("paths", 9, id="paths"),
    ("sigma", 0.0), ("paths", 0.0)])
def test_checker_refuses_keys_that_are_not_source_positions(half_setup, field, key):
    hg, t, cols = half_setup
    src, tgt = cols[:2], cols[2:4]
    lk = find_linkage(t, src, tgt, set(), {0: 0, 1: 1})
    sigma, paths = dict(lk.sigma), dict(lk.paths)
    if key == 0:
        # renames key 0; a sigma key 0.0 comes with a paths key 0.0
        if field == "sigma":
            sigma[key] = sigma.pop(0)
        paths[key] = paths.pop(0)
    elif field == "sigma":
        sigma[key] = 7
    else:
        paths[key] = paths[0]
    with pytest.raises(LinkageCheckError, match=f"{field} key {key}"):
        check_linkage(t, src, tgt, Linkage(sigma, paths, lk.after))


# X = {-1} must not be read as the window's last coordinate, nor X = {1.0}
# pass as vertex 1
@pytest.mark.parametrize("vertex", [-1, 10**6, 1.0])
def test_checker_refuses_x_outside_the_window(half_setup, vertex):
    hg, t, cols = half_setup
    src, tgt = cols[:2], cols[2:4]
    lk = find_linkage(t, src, tgt, set(), {0: 0, 1: 1})
    message = ("X vertex 1.0 is not an integer" if isinstance(vertex, float)
               else "outside the window")
    with pytest.raises(LinkageCheckError, match=message):
        check_linkage(t, src, tgt, Linkage(lk.sigma, lk.paths, frozenset({vertex})))


def test_find_linkage_traces_each_ray_once_for_search_and_check(monkeypatch):
    hg = make_world("half-grid")
    cols = canonical_rays(hg, 6)
    rg = ray_graph(hg, cols, d0=2)     # walks its rays before the count starts
    t = truncate(hg, 8)                # a fresh window: no ray walked on it yet
    walked = Counter()
    trace = RaySpec.coords_in_window

    def counted(self, depth):
        walked[self] += 1
        return trace(self, depth)

    monkeypatch.setattr(RaySpec, "coords_in_window", counted)
    src, tgt = cols[:3], cols[3:6]
    lk = find_linkage(t, src, tgt, set(), {0: 0, 1: 1, 2: 2})
    # the search and its own check_linkage walk each ray once between them
    assert walked == Counter(src + tgt)
    walked.clear()
    # every later verb on this window reads the positions walked above
    check_linkage(t, src, tgt, lk)
    find_linkage(t, src, tgt, set(), {0: 0, 1: 1, 2: 2})
    realize_transition(t, cols, [(0, 1), (0, 2)], rg=rg)
    assert not walked


def test_checker_rejects_overlapping_walks(half_setup):
    hg, t, cols = half_setup
    src = cols[:2]
    tgt = cols[2:4]
    lk = find_linkage(t, src, tgt, set(), {0: 0, 1: 1})
    # force both walks onto target ray 0
    bad = Linkage(sigma={0: 0, 1: 0}, paths=lk.paths, after=lk.after)
    with pytest.raises(LinkageCheckError):
        check_linkage(t, src, tgt, bad)


def test_checker_x_avoidance(half_setup):
    hg, t, cols = half_setup
    lk = find_linkage(t, cols[:2], cols[2:4], set(), {0: 0, 1: 1})
    # declare X on the connector path after the fact: must be rejected
    mid = lk.paths[0][1]
    bad = Linkage(sigma=lk.sigma, paths=lk.paths, after=frozenset({mid}))
    with pytest.raises(LinkageCheckError):
        check_linkage(t, cols[:2], cols[2:4], bad)


def test_linkage_json(half_setup):
    hg, t, cols = half_setup
    lk = find_linkage(t, cols[:2], cols[2:4], set(), {0: 0, 1: 1})
    doc = lk.to_json_dict(t)
    assert set(doc) == {"sigma", "paths", "after"}
    assert doc["sigma"] == {"0": 0, "1": 1}
    for path in doc["paths"].values():
        for c in path:
            assert isinstance(c, list) and len(c) == 2


def test_order_preservation_three_columns():
    # of all six bijections between columns {0,1,2} and {3,4,5}, only the
    # order-preserving one is realizable; checked exhaustively at two depths
    import itertools as it
    hg = make_world("half-grid")
    cols = canonical_rays(hg, 6)
    for depth in (6, 12):
        t = truncate(hg, depth)
        for perm in it.permutations(range(3)):
            sigma = {i: perm[i] for i in range(3)}
            monotone = perm == (0, 1, 2)
            if monotone:
                lk = find_linkage(t, cols[:3], cols[3:6], set(), sigma)
                check_linkage(t, cols[:3], cols[3:6], lk)
            else:
                with pytest.raises(NoLinkageError):
                    find_linkage(t, cols[:3], cols[3:6], set(), sigma)


def test_dp_decides_what_the_router_leaves(half_setup, monkeypatch):
    # without the router, a feasible pairing is beyond the DP's state cap,
    # so the answer is a refusal; the reversal is still refuted exactly
    hg, t, cols = half_setup
    monkeypatch.setattr(linkage, "_route", lambda *args: None)
    with pytest.raises(ResourceCapError):
        find_linkage(t, cols[:2], cols[2:4], set(), {0: 0, 1: 1})
    with pytest.raises(NoLinkageError):
        find_linkage(truncate(hg, 6), cols[:3], cols[3:6], set(),
                     {0: 2, 1: 1, 2: 0})


def test_sigma_free_search_refuses_past_its_pairing_budget(half_setup, monkeypatch,
                                                           capsys):
    # onto columns 5, 4, 3 the one order-preserving pairing is the last of
    # six; a budget of five refuses before it, with exit 3 on the command line
    hg, t, cols = half_setup
    assert find_linkage(t, cols[:3], cols[:2:-1]).sigma == {0: 2, 1: 1, 2: 0}
    monkeypatch.setattr(linkage, "PAIRING_BUDGET", 5)
    with pytest.raises(ResourceCapError, match="after 5 of 6 pairings"):
        find_linkage(t, cols[:3], cols[:2:-1])
    assert main(["linkage", "--world", "half-grid", "--depth", "8", "--rays",
                 "canonical:6", "--source", "0,1,2", "--target", "5,4,3"]) == 3
    assert "after 5 of 6 pairings" in capsys.readouterr().err


def test_dp_refutes_what_the_certificate_cannot_see():
    # a product window has no rim certificate: the DP alone refutes the
    # reversal of P3 x Z's three rays
    w = make_world("product-Z", base=Graph.from_edges(3, [(0, 1), (1, 2)]))
    rays = canonical_rays(w, 3)
    with pytest.raises(NoLinkageError):
        find_linkage(truncate(w, 5), rays, rays, set(), {0: 2, 1: 1, 2: 0})


def test_import_leaves_numpy_and_scipy_out():
    src = str(Path(pebblekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, pebblekit; "
         "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "[]"


def test_dp_refutes_interior_terminals():
    # after a ball of radius 1 the switch points lie inside the window,
    # where the rim certificate sees nothing; the DP refutes each pairing
    # within its state cap (the last two capped in a column-by-column sweep)
    for kind, depth, source, target, sigma in [
            ("full-grid", 3, (0, 1, 2), (0, 1, 2, 3), (0, 2, 1)),
            ("full-grid", 4, (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 3, 2)),
            ("half-grid", 8, (0, 1, 2), (3, 4, 5), (2, 1, 0))]:
        w = make_world(kind)
        t = truncate(w, depth)
        rays = canonical_rays(w, 6)
        with pytest.raises(NoLinkageError):
            find_linkage(t, [rays[i] for i in source], [rays[j] for j in target],
                         set(chebyshev_ball(t, 1)), dict(enumerate(sigma)))


def test_refusal_says_why(half_setup, monkeypatch):
    # the DP proves this pairing feasible, but the router finds no witness
    fg = make_world("full-grid")
    t = truncate(fg, 3)
    rays = canonical_rays(fg, 4)
    with pytest.raises(ResourceCapError, match="feasible by the exact DP"):
        find_linkage(t, [rays[i] for i in (2, 0, 1, 3)],
                     [rays[j] for j in (0, 1, 3, 2)], set(),
                     {0: 2, 1: 0, 2: 3, 3: 1})
    # without the router, this feasible pairing is beyond the DP's cap
    hg, th, cols = half_setup
    monkeypatch.setattr(linkage, "_route", lambda *args: None)
    with pytest.raises(ResourceCapError, match="undecided within"):
        find_linkage(th, cols[:2], cols[2:4], set(), {0: 0, 1: 1})


def test_switch_point_lies_after_x():
    fg = make_world("full-grid")
    t = truncate(fg, 8)
    rays = canonical_rays(fg, 4)[:2]
    ball = frozenset(chebyshev_ball(t, 2))
    lk = find_linkage(t, rays, rays, ball, {0: 1, 1: 0})
    for p in lk.paths.values():
        assert p and not set(p) & ball
    # switching on the ray's last X vertex instead is rejected
    src = rays[0].positions_in(t)
    last_x = max(p for p, v in enumerate(src) if v in ball)
    early = dict(lk.paths)
    early[0] = (src[last_x],) + lk.paths[0]
    with pytest.raises(LinkageCheckError, match="switch point"):
        check_linkage(t, rays, rays, Linkage(lk.sigma, early, ball))


@pytest.mark.parametrize("seed", range(8))
def test_router_paths_are_cheapest(seed):
    # A* under the hop bound finds a path as cheap as Dijkstra's, on random
    # graphs with random congestion and avoided vertices
    rng = random.Random(seed)
    n = 40
    g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                             if rng.random() < 0.08])
    adj = g.adjacency()
    for _ in range(25):
        s, e = rng.sample(range(n), 2)
        avoid = {v for v in range(n) if v not in (s, e) and rng.random() < 0.15}
        history = [rng.randrange(4) for _ in range(n)]
        sharers = [rng.randrange(3) for _ in range(n)]
        present = rng.choice((0.5, 1.0, 4.0, 32.0))
        h = linkage._hop_bound(adj, s, e, avoid)
        best = cheapest_cost(adj, s, e, avoid, history, sharers, present)
        if h is None:
            assert best is None
            continue
        # consistent, and zero at the end: a lower bound on every cost
        assert h[e] == 0
        assert all(h[u] <= h[w] + 1 for u in range(n) for w in adj[u]
                   if u not in avoid and w not in avoid)
        path = linkage._cheapest_path(adj, s, e, avoid, history, sharers,
                                      int(2 * present), h)
        assert path[0] == s and path[-1] == e
        assert all(v in adj[u] for u, v in zip(path, path[1:]))
        assert not set(path) & avoid
        assert sum((1 + history[v]) * (1 + present * sharers[v])
                   for v in path[1:]) == best


@pytest.mark.parametrize("seed", range(6))
def test_router_paths_follow_the_float_tie_order(seed):
    # the integer A* returns the very path of the float-tuple A*, not just
    # an equally cheap one: the pinned linkage witnesses rest on this tie
    # order.  Weights run to 2^29, where heap keys pass 64 bits.
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randrange(8, 60)
        p = rng.choice((0.06, 0.12, 0.3))
        adj = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                   if rng.random() < p]).adjacency()
        s, e = rng.sample(range(n), 2)
        avoid = {v for v in range(n) if v not in (s, e) and rng.random() < 0.1}
        h = linkage._hop_bound(adj, s, e, avoid)
        if h is None:
            continue
        # mostly uncontested vertices, so that equally cheap paths abound
        history = [rng.choice((0, 0, rng.randrange(linkage.ROUTE_ROUNDS + 1)))
                   for _ in range(n)]
        sharers = [rng.choice((0, 0, rng.randrange(4))) for _ in range(n)]
        weight = 1 << rng.randrange(30)
        assert (linkage._cheapest_path(adj, s, e, avoid, history, sharers, weight, h)
                == float_cheapest_path(adj, s, e, avoid, history, sharers,
                                       weight / 2, h))


def test_router_refuses_a_disconnected_pair_before_routing(monkeypatch):
    def no_search(*args):
        raise AssertionError("a disconnected pair reached the path search")

    monkeypatch.setattr(linkage, "_cheapest_path", no_search)
    # 0-1-2 and 3-4 are two components
    adj = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]).adjacency()
    assert linkage._route(adj, [(0, 2), (3, 1)], set()) is False
    # an end cut off by another pair's ends or by blocked vertices
    assert linkage._route(adj, [(0, 2), (1, 1)], set()) is False
    assert linkage._route(adj, [(0, 2)], {1}) is False


@pytest.mark.parametrize("perm", [(3, 1, 0, 2), (0, 2, 3, 1), (2, 3, 1, 0)])
def test_cut_off_pair_refutes_without_the_dp(monkeypatch, perm):
    # after the radius-2 ball at depth 4, some terminal pair of each of
    # these pairings is cut off from its other end, so the router refutes
    # the pairing before any routing; the DP alone caps on all three
    def no_dp(*args):
        raise AssertionError("a cut-off pair reached the DP")

    monkeypatch.setattr(linkage, "disjoint_paths_exist", no_dp)
    fg = make_world("full-grid")
    t = truncate(fg, 4)
    rays = canonical_rays(fg, 4)
    with pytest.raises(NoLinkageError):
        find_linkage(t, rays, rays, chebyshev_ball(t, 2), dict(enumerate(perm)))


def test_every_pairing_is_routed_before_the_dp(monkeypatch):
    # the identity's routing runs out of rounds; the swap, tried next,
    # routes, so the DP never runs on the identity
    route = linkage._route
    calls = 0

    def identity_misses(*args):
        nonlocal calls
        calls += 1
        return None if calls == 1 else route(*args)

    def no_dp(*args):
        raise AssertionError("the DP ran before every pairing was routed")

    monkeypatch.setattr(linkage, "_route", identity_misses)
    monkeypatch.setattr(linkage, "disjoint_paths_exist", no_dp)
    fg = make_world("full-grid")
    rays = canonical_rays(fg, 2)
    lk = find_linkage(truncate(fg, 8), rays, rays)
    assert lk.sigma == {0: 1, 1: 0}


def test_fixed_sigma_probe_outcomes():
    # the probe's 180 seeded pairings of the full grid's four canonical
    # rays after a ball of radius 0-2, at depth 3, as the CI probe asserts
    got = tally(probe(3))
    assert [got[k] for k in ("found", "no", "cap")] == [16, 164, 0]


# criterion-8 cases of the full grid at depth 8, each with its induced
# pairing and its ``_cheapest_path`` call count: the swaps need 2, 5 and 8
# negotiation rounds, and the cyclic shifts route their long connectors
# round the ball in one round; tests/golden/linkage-full-*.json pin the
# witnesses themselves
PINNED_WITNESSES = [
    ("full swap m=2", 2, None, {0: 1, 1: 0}, 4),
    ("full swap m=2 ball2", 2, 2, {0: 1, 1: 0}, 10),
    ("full swap 0,2 of 3", 3, None, {0: 2, 1: 1, 2: 0}, 24),
    ("full cyclic m=3 ball2", 3, 2, {0: 1, 1: 2, 2: 0}, 3),
    ("full cyclic m=3 ball4", 3, 4, {0: 1, 1: 2, 2: 0}, 3),
]


@pytest.mark.parametrize("name, m, radius, sigma, calls", PINNED_WITNESSES,
                         ids=[case[0] for case in PINNED_WITNESSES])
def test_router_witnesses_are_pinned(monkeypatch, name, m, radius, sigma, calls):
    # a faster search must route the same witnesses in the same rounds
    fg = make_world("full-grid")
    t = truncate(fg, 8)
    rays = canonical_rays(fg, 4)[:m]
    x = set(chebyshev_ball(t, radius)) if radius is not None else set()
    search = linkage._cheapest_path
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return search(*args)

    monkeypatch.setattr(linkage, "_cheapest_path", counted)
    lk = find_linkage(t, rays, rays, x, sigma)
    assert lk.sigma == sigma
    assert count == calls


# (kind, world options, window depth, canonical rays): windows where the
# definition oracle is cheap; hex-half-grid's third zigzag ray starts at
# height 5, outside the depth-3 window
DEFINITION_WORLDS = [
    ("full-grid", {}, 2, 4),
    ("half-grid", {}, 3, 4),
    ("hex-half-grid", {}, 3, 2),
    ("product-Z", {"base": Graph.from_edges(3, [(0, 1), (1, 2)])}, 3, 3),
    ("product-N", {"base": Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])}, 3, 4),
    ("dominated-ray", {"k": 3}, 3, 4),
]


def checked_against_definition(t, source, target, X, sigma, answer) -> bool:
    """Check ``answer`` (a ``find_linkage``-style call) against the pairings
    the definition allows: a found sigma is among them, and NoLinkageError
    comes exactly when there are none.  False when the oracle spent its
    budget and nothing was checked."""
    linkable = linkable_by_definition(t, source, target, X, sigma)
    if linkable is None:
        return False
    try:
        lk = answer()
    except NoLinkageError:
        assert not linkable, (source, target, sorted(X), sigma)
    else:
        check_linkage(t, source, target, lk)
        assert tuple(lk.sigma[i] for i in range(len(source))) in linkable
    return True


@pytest.mark.parametrize("kind, options, depth, m", DEFINITION_WORLDS,
                         ids=[case[0] for case in DEFINITION_WORLDS])
def test_linkage_answers_match_the_definition(kind, options, depth, m):
    # seeded queries: shared and disjoint families (|R| < |S| included), X
    # a ball (up to the whole window, so rays end in X and only pure rides
    # remain), scattered vertices or empty, sigma fixed and free; then
    # realize_transition on the window's ray graph.  Half-grid rays start
    # on the bottom rim and end on the top one.
    w = make_world(kind, **options)
    t = truncate(w, depth)
    rays = canonical_rays(w, m)
    rng = random.Random(41)
    skipped = 0

    def draw_x():
        c = rng.random()
        if c < 0.4:
            return set(chebyshev_ball(t, rng.randint(0, depth)))
        if c < 0.8:
            return set(rng.sample(range(t.graph.n), rng.randint(1, 4)))
        return set()

    for _ in range(80):
        nR = rng.randint(1, min(3, m))
        if 2 * nR > m or rng.random() < 0.5:
            source, target = rng.sample(rays, nR), rays
        else:
            pick = rng.sample(rays, m)
            source, target = pick[:nR], pick[nR:]
        X = draw_x()
        sigma = (dict(enumerate(rng.sample(range(len(target)), nR)))
                 if rng.random() < 0.5 else None)
        skipped += not checked_against_definition(
            t, source, target, X, sigma, lambda: find_linkage(t, source, target, X, sigma))
    rg = ray_graph(w, rays, d0=depth)
    g = rg._position_graph
    for _ in range(20):
        state = tuple(rng.sample(range(m), rng.randint(1, m)))
        moves = [state]
        for _ in range(rng.randint(0, 3)):
            nxt = legal_moves(g, moves[-1])
            if nxt:
                moves.append(rng.choice(nxt))
        X = draw_x()
        source = [rays[s] for s in moves[0]]
        sigma = dict(enumerate(moves[-1]))
        skipped += not checked_against_definition(
            t, source, rays, X, sigma, lambda: realize_transition(t, rays, moves, X, rg=rg))
    assert skipped <= 3, skipped
