"""Ray graphs via the annulus rule, linearity, tails."""

import random
from dataclasses import fields

import pytest

from pebblekit.errors import ValidationError
from pebblekit.graphs import Graph
from pebblekit.rays import (ANNULI, RING_WIDTH, RayGraph, _reaches, _steps,
                            is_linear_family, ray_graph)
from pebblekit.worlds import (DEFAULT_WINDOW_CAP, RaySpec, _window_box,
                              canonical_rays, make_world, world_norm)

from conftest import cycle_graph, path_graph, star_graph
from oracles import (contains_subgraph, coordinate_ray_graph, frontier_reaches,
                     vertexwise_steps)


def test_half_grid_columns_form_a_path():
    hg = make_world("half-grid")
    rg = ray_graph(hg, canonical_rays(hg, 3), d0=10)
    assert rg.stabilized
    assert rg.edges == frozenset({(0, 1), (1, 2)})
    assert is_linear_family(rg)


def test_star_product_ray_graph_is_star():
    st = star_graph(3)
    pn = make_world("product-N", base=st)
    rg = ray_graph(pn, canonical_rays(pn, 4), d0=8)
    assert rg.stabilized
    assert rg.edges == frozenset({(0, 1), (0, 2), (0, 3)})
    assert contains_subgraph(rg, set(st.sorted_edges()))
    assert not is_linear_family(rg)


def test_ray_graph_searches_only_rays_in_the_shells(monkeypatch):
    import pebblekit.rays as rays_mod
    calls = 0
    search = rays_mod._reaches

    def counted(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(rays_mod, "_reaches", counted)
    hg = make_world("half-grid")
    rg = ray_graph(hg, canonical_rays(hg, 2000), d0=2)
    # columns 0-4 meet the first shell at d0 = 2 and columns 0-5 at d0 = 3:
    # at most C(5, 2) + C(6, 2) pairs, searched in each of the 3 shells
    assert calls <= 3 * (10 + 15)
    # no column beyond 9 reaches the deepest shell
    assert rg.edges == ray_graph(hg, canonical_rays(hg, 10), d0=2).edges


def _count_neighbour_reads(monkeypatch) -> list[int]:
    import pebblekit.rays as rays_mod
    calls = [0]
    neighbors = rays_mod.world_neighbors

    def counted(w, c):
        calls[0] += 1
        return neighbors(w, c)

    monkeypatch.setattr(rays_mod, "world_neighbors", counted)
    return calls


def test_ray_graph_reads_two_levels_of_neighbours(monkeypatch):
    calls = _count_neighbour_reads(monkeypatch)
    fg = make_world("full-grid")
    rg = ray_graph(fg, canonical_rays(fg, 4), d0=14)
    # two columns on two levels of the depth-21 window's 43-wide
    # rectangle, where one read per shell vertex would be 43^2 - 29^2 = 1008
    assert calls[0] == 4
    assert rg.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


@pytest.mark.parametrize("w, reads", [
    (make_world("full-grid"), 4), (make_world("half-grid"), 4),
    (make_world("hex-half-grid"), 4),
    (make_world("product-Z", base=cycle_graph(5)), 2 * 5),
    (make_world("product-N", base=path_graph(40)), 2 * 40),
    (make_world("dominated-ray", k=3), 2 * 4)], ids=lambda v: getattr(v, "kind", v))
def test_steps_read_one_period_of_columns_on_two_levels(monkeypatch, w, reads):
    # two columns on the integer line, the whole row otherwise, whatever
    # the window's size
    calls = _count_neighbour_reads(monkeypatch)
    for d0 in (1, 14):
        calls[0] = 0
        box, keep = _shell(w, d0)
        _steps(w, box, keep)
        assert calls[0] == reads


def test_ray_graph_on_a_wide_row_reads_two_levels(monkeypatch):
    calls = _count_neighbour_reads(monkeypatch)
    pz = make_world("product-Z", base=path_graph(2000))
    rg = ray_graph(pz, canonical_rays(pz, 4), d0=1)
    # the shell has 2000 * 14 vertices; two levels of the row suffice
    assert calls[0] <= 2 * 2000
    assert rg.edges == frozenset({(0, 1), (1, 2), (2, 3)})


def _shell(w, d0):
    """The deepest window's rectangle and its shell mask beyond ``d0``,
    read vertex by vertex off the world norm."""
    box = _window_box(w, d0 + 1 + ANNULI * RING_WIDTH, DEFAULT_WINDOW_CAP)
    x0, x1, y0, y1 = box
    width = x1 - x0 + 1
    keep = sum(1 << (y - y0) * width + x - x0
               for y in range(y0, y1 + 1) for x in range(x0, x1 + 1)
               if world_norm(w, (x, y)) > d0)
    return box, keep


@pytest.mark.parametrize("d0", [1, 2, 3, 5, 8, 11, 14])
def test_steps_match_vertexwise_oracle(d0):
    worlds = [make_world("full-grid"), make_world("half-grid"),
              make_world("hex-half-grid"),
              make_world("product-Z", base=Graph.from_edges(
                  4, [(0, 1), (1, 2), (2, 3), (0, 2)])),
              make_world("product-N", base=cycle_graph(5)),
              make_world("product-N", base=path_graph(40)),
              *(make_world("dominated-ray", k=k) for k in range(1, 5))]
    for w in worlds:
        box, keep = _shell(w, d0)
        assert _steps(w, box, keep) == vertexwise_steps(w, box, keep), w


def _coordinate_search_worlds():
    """One world of each kind, with the number of canonical rays it
    supplies to the coordinate-search comparison."""
    return [(make_world("full-grid"), 9), (make_world("half-grid"), 7),
            (make_world("hex-half-grid"), 4),
            (make_world("product-Z", base=Graph.from_edges(
                4, [(0, 1), (1, 2), (2, 3), (0, 2)])), 4),
            (make_world("product-N", base=cycle_graph(5)), 5),
            (make_world("dominated-ray", k=3), 4)]


@pytest.mark.parametrize("d0", [1, 2, 3, 5, 8, 11])
def test_ray_graph_matches_coordinate_search(d0):
    # the bitmask kernel against a breadth-first search over the shells'
    # coordinates, on shuffled canonical families of every supplied size
    for w, supply in _coordinate_search_worlds():
        for m in range(1, supply + 1):
            family = canonical_rays(w, m)
            random.Random(m).shuffle(family)
            assert ray_graph(w, family, d0) == coordinate_ray_graph(w, family, d0), \
                (w.kind, m)
    # a column that starts in the outermost shell cuts rays 0 and 1 apart
    # there, unless a step off the rectangle's edge wraps round to the
    # opposite edge
    fg = make_world("full-grid")
    family = canonical_rays(fg, 4) + [RaySpec(fg, ((2, d0 + 5),), ((0, 1),), 9)]
    assert ray_graph(fg, family, d0) == coordinate_ray_graph(fg, family, d0)


@pytest.mark.parametrize("d0", [1, 4, 14, 40, 120])
def test_reaches_matches_frontier_flood(d0):
    # the run fill against a one-step flood, on the step masks of each world
    # kind, with dense (3/4), half and sparse (1/4) random allowed sets
    # and one to three src and dst vertices in the shell
    rng = random.Random(d0)
    for w, _ in _coordinate_search_worlds():
        box, keep = _shell(w, d0)
        step = _steps(w, box, keep)
        x0, x1, y0, y1 = box
        n = (x1 - x0 + 1) * (y1 - y0 + 1)
        shell = [b for b, bit in enumerate(reversed(bin(keep))) if bit == "1"]
        for _ in range(8):
            a, b = rng.getrandbits(n), rng.getrandbits(n)
            for allowed in (a | b, a, a & b):
                src, dst = (sum(1 << v for v in rng.sample(shell, rng.randint(1, 3)))
                            for _ in range(2))
                assert _reaches(step, src, dst, allowed) \
                    == frontier_reaches(step, src, dst, allowed), (w.kind, d0)


@pytest.mark.parametrize("d0", [40, 120])
def test_ray_graph_matches_coordinate_search_in_deep_windows(d0):
    fg, hg = make_world("full-grid"), make_world("half-grid")
    for w, m in ((fg, 4), (fg, 6), (hg, 5)):
        family = canonical_rays(w, m)
        assert ray_graph(w, family, d0) == coordinate_ray_graph(w, family, d0), \
            (w.kind, m)


def test_ray_graph_traces_each_ray_once(monkeypatch):
    hg = make_world("half-grid")
    rays = canonical_rays(hg, 5)
    calls = 0
    trace = RaySpec.coords_in_window

    def counted(self, depth):
        nonlocal calls
        calls += 1
        return trace(self, depth)

    monkeypatch.setattr(RaySpec, "coords_in_window", counted)
    ray_graph(hg, rays, d0=6)
    assert calls == len(rays)


def test_dominated_ray_spine_degree():
    for k in (3, 4):
        dr = make_world("dominated-ray", k=k)
        rays = canonical_rays(dr, k + 1)
        rg = ray_graph(dr, rays, d0=8)
        assert rg.stabilized
        spine = k                       # handles come first, spine last
        assert rg.degree(spine) == k
        assert rg.edges == frozenset((min(j, spine), max(j, spine))
                                     for j in range(k))


def test_one_ended_families_connected_two_ended_disconnected():
    # all canonical families point to a single end: connected ray graphs
    hg = make_world("half-grid")
    fg = make_world("full-grid")
    for w, m in ((hg, 4), (fg, 5)):
        rg = ray_graph(w, canonical_rays(w, m), d0=9)
        seen = {rg.indices[0]}
        stack = [rg.indices[0]]
        adj = {i: [] for i in rg.indices}
        for a, b in rg.edges:
            adj[a].append(b)
            adj[b].append(a)
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert len(seen) == m
    # the double ray has two ends; opposite tails never connect
    dz = make_world("product-Z", base=Graph.from_edges(1, []))
    up = RaySpec(dz, ((0, 0),), ((0, 1),), 0)
    down = RaySpec(dz, ((0, -1),), ((0, -1),), 1)
    rg = ray_graph(dz, [up, down], d0=6)
    assert rg.stabilized and rg.edges == frozenset()


def test_sub_window_ray_graph_is_subgraph():
    # the same column family computed inside the half grid (a subgraph of
    # the full grid) has a ray graph contained in the full-grid one
    # restricted to those rays; the lower half plane opens a 0-2 detour
    hg = make_world("half-grid")
    fg = make_world("full-grid")
    cols_h = canonical_rays(hg, 3)
    cols_f = [RaySpec(fg, r.prefix, r.steps, r.index) for r in cols_h]
    rg_h = ray_graph(hg, cols_h, d0=8)
    rg_f = ray_graph(fg, cols_f, d0=8)
    assert rg_h.stabilized and rg_f.stabilized
    assert rg_h.edges < rg_f.edges
    assert (0, 2) in rg_f.edges           # the detour under the axis exists
    assert (0, 2) not in rg_h.edges
    # with an extra foreign ray in the family the inclusion still holds
    extra = RaySpec(fg, ((0, -2),), ((1, 0),), 3)
    rg_fx = ray_graph(fg, cols_f + [extra], d0=8)
    assert rg_fx.stabilized
    assert rg_h.edges <= {e for e in rg_fx.edges if 3 not in e}


def test_is_linear_family_shapes():
    path = RayGraph((0, 1, 2), frozenset({(0, 1), (1, 2)}), True, (5, 10))
    tri = RayGraph((0, 1, 2), frozenset({(0, 1), (1, 2), (0, 2)}), True, (5, 10))
    cyc4 = RayGraph((0, 1, 2, 3),
                    frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}), True, (5, 10))
    single = RayGraph((0,), frozenset(), True, (5, 10))
    # three edges on four rays, but a triangle beside an isolated ray
    tri_plus = RayGraph((0, 1, 2, 3),
                        frozenset({(0, 1), (1, 2), (0, 2)}), True, (5, 10))
    claw = RayGraph((0, 1, 2, 3),
                    frozenset({(0, 1), (0, 2), (0, 3)}), True, (5, 10))
    assert is_linear_family(path)
    assert not is_linear_family(tri)
    assert not is_linear_family(cyc4)
    assert not is_linear_family(tri_plus)
    assert not is_linear_family(claw)
    assert is_linear_family(single)
    unstable = RayGraph((0, 1), frozenset(), False, (5, 10))
    with pytest.raises(ValidationError):
        is_linear_family(unstable)


def test_ray_graph_validations():
    hg = make_world("half-grid")
    rays = canonical_rays(hg, 2)
    with pytest.raises(ValidationError, match="d0"):
        ray_graph(hg, rays, d0=0)
    with pytest.raises(ValidationError):
        ray_graph(hg, [rays[0], rays[0]], d0=10)


def test_ray_graph_refuses_rays_of_another_world():
    hg, fg = make_world("half-grid"), make_world("full-grid")
    # ray 2 of the full grid points down, out of the half grid
    with pytest.raises(ValidationError, match="full-grid.*half-grid"):
        ray_graph(hg, canonical_rays(fg, 4), d0=6)
    # worlds compare by value: an equal world's rays are its own
    assert ray_graph(make_world("half-grid"), canonical_rays(hg, 2), d0=6).edges \
        == frozenset({(0, 1)})


def test_position_graph_is_built_once_and_leaves_the_value_alone():
    hg = make_world("half-grid")
    rg = ray_graph(hg, canonical_rays(hg, 4), d0=4)
    fresh = ray_graph(hg, canonical_rays(hg, 4), d0=4)
    doc, h = rg.to_json_dict(), hash(rg)
    g = rg._position_graph
    assert rg._position_graph is g
    assert g == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    # the cached graph is no field: equality, hashing and JSON are unchanged
    assert rg == fresh and hash(rg) == h == hash(fresh)
    assert rg.to_json_dict() == doc == fresh.to_json_dict()
    assert [f.name for f in fields(RayGraph)] == ["indices", "edges", "stabilized",
                                                  "depth_range"]
    assert is_linear_family(rg)
