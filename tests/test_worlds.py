"""Infinite worlds, truncation windows, canonical ray families."""

import itertools
import tracemalloc

import pytest

from pebblekit.dot import truncation_to_dot
from pebblekit.errors import ValidationError, WindowCapExceeded
from pebblekit.graphs import PARSE_MAX_N, Graph, is_connected
from pebblekit.rays import ray_graph
from pebblekit.worlds import (WORLD_KINDS, RaySpec, Truncation, canonical_rays,
                              chebyshev_ball, make_world, truncate,
                              world_from_json_dict, world_neighbors, world_norm)

from conftest import cycle_graph, path_graph, star_graph


def triangle():
    return cycle_graph(3)


def test_make_world_validation():
    with pytest.raises(ValidationError):
        make_world("mystery-grid")
    with pytest.raises(ValidationError):
        make_world("product-Z")                      # base missing
    with pytest.raises(ValidationError):
        make_world("product-N", base=Graph.from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValidationError):
        make_world("dominated-ray", k=0)
    assert make_world("dominated-ray", k=3).k == 3


@pytest.mark.parametrize("kind", WORLD_KINDS)
def test_a_world_refuses_options_its_kind_does_not_read(kind):
    # only the product worlds read a base and only the dominated ray a k;
    # a world built with either ignored would not equal the world it is
    tri = {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}
    base = triangle() if kind.startswith("product") else None
    k = 3 if kind == "dominated-ray" else None
    doc = {"kind": kind, "k": k, "base": tri if base else None}
    assert make_world(kind, base=base, k=k) == world_from_json_dict(doc)
    if base is None:
        with pytest.raises(ValidationError, match=f"{kind} takes no base graph"):
            make_world(kind, base=triangle(), k=k)
        with pytest.raises(ValidationError, match=f"{kind} takes no base graph"):
            world_from_json_dict({**doc, "base": tri})
    if k is None:
        with pytest.raises(ValidationError, match=f"{kind} takes no k"):
            make_world(kind, base=base, k=5)
        with pytest.raises(ValidationError, match=f"{kind} takes no k"):
            world_from_json_dict({**doc, "k": 5})


def test_a_world_descriptor_refuses_keys_no_code_reads():
    # a misspelt key would be dropped, and the answer would be about the
    # world without it; "depth" is read by the command line
    doc = {"kind": "half-grid", "depth": 4}
    assert world_from_json_dict(doc) == make_world("half-grid")
    with pytest.raises(ValidationError, match="keys 'bogus', 'depht' are not read"):
        world_from_json_dict({"kind": "half-grid", "depht": 4, "bogus": 1})


def test_dominated_ray_k_is_bounded_like_a_parsed_graph():
    # the star K_{1,k} is built with the world, before any window cap
    assert make_world("dominated-ray", k=PARSE_MAX_N - 1).row.n == PARSE_MAX_N
    for k in (PARSE_MAX_N, 10 ** 18):
        with pytest.raises(ValidationError, match="dominated-ray requires"):
            make_world("dominated-ray", k=k)
        with pytest.raises(ValidationError, match="dominated-ray requires"):
            world_from_json_dict({"kind": "dominated-ray", "k": k})


def interior(t):
    """Window vertices whose world neighbours all lie in the window."""
    return [v for v, c in enumerate(t.coords)
            if all(t.index_of(nb) is not None for nb in world_neighbors(t.world, c))]


def test_full_grid_window_counts():
    t = truncate(make_world("full-grid"), 2)
    assert t.graph.n == 25
    assert len(t.graph.edges) == 40
    inner = interior(t)
    assert len(inner) == 9
    assert all(t.graph.degree(v) == 4 for v in inner)


def test_half_grid_window_counts():
    t = truncate(make_world("half-grid"), 2)
    assert t.graph.n == 15


def test_hex_interior_cubic():
    t = truncate(make_world("hex-half-grid"), 5)
    degs = {t.graph.degree(v) for v in interior(t)
            if t.coords[v][1] > 0}           # above the bottom row
    assert degs == {3}


def test_dominated_ray_comb_window():
    # spine strand plus k handle strands, a rung per level
    t = truncate(make_world("dominated-ray", k=2), 3)
    assert t.graph.n == 12
    adj = t.graph.adjacency()
    spine = [t.index_of((0, lv)) for lv in range(4)]
    for lv in range(4):
        for strand in (1, 2):
            assert spine[lv] in adj[t.index_of((strand, lv))]
    assert spine[1] in adj[spine[0]]
    assert t.index_of((2, 0)) not in adj[t.index_of((1, 0))]


def test_product_window():
    t = truncate(make_world("product-Z", base=triangle()), 2)
    assert t.graph.n == 15
    assert is_connected(t.graph)


def test_truncation_monotone():
    for w in (make_world("full-grid"), make_world("half-grid"),
              make_world("hex-half-grid"),
              make_world("product-N", base=star_graph(3)),
              make_world("dominated-ray", k=3)):
        small, big = truncate(w, 2), truncate(w, 3)
        for (u, v) in small.graph.sorted_edges():
            bu, bv = big.index_of(small.coords[u]), big.index_of(small.coords[v])
            assert bv in big.graph.adjacency()[bu]
        # induced: no extra edges among the embedded vertices
        embed = {big.index_of(c) for c in small.coords}
        small_edge_count = len(small.graph.edges)
        big_induced = sum(1 for (u, v) in big.graph.sorted_edges()
                          if u in embed and v in embed)
        assert big_induced == small_edge_count


def test_world_neighbors_refuses_outside_coordinates():
    # a negative x must not wrap round to the row's last vertices
    product = make_world("product-Z", base=triangle())
    for c in ((-1, 0), (3, 0)):
        with pytest.raises(ValidationError, match="not a vertex"):
            world_neighbors(product, c)
    with pytest.raises(ValidationError, match="not a vertex"):
        world_neighbors(make_world("half-grid"), (0, -1))
    assert world_neighbors(product, (2, -1)) == [(0, -1), (1, -1), (2, -2), (2, 0)]


@pytest.mark.parametrize("w", [
    make_world("full-grid"), make_world("half-grid"), make_world("hex-half-grid"),
    make_world("product-Z", base=triangle()), make_world("product-N", base=star_graph(3)),
    make_world("dominated-ray", k=3)], ids=lambda w: w.kind)
def test_neighbour_offsets_repeat_every_second_level(w):
    # rays._steps builds a window's step masks from two levels on this
    def offsets(x, y):
        return [(nx - x, ny - y) for nx, ny in world_neighbors(w, (x, y))]

    xs = range(-6, 7) if w.row is None else range(w.row.n)
    levels = range(1, 7) if w.half else range(-6, 7)
    for x in xs:
        for y in levels:
            assert offsets(x, y) == offsets(x, y + 2), (x, y)
        if w.half:   # the bottom level only lacks the rung down
            assert offsets(x, 0) == [o for o in offsets(x, 2) if o != (0, -1)], x


@pytest.mark.parametrize("w", [
    make_world("full-grid"), make_world("half-grid"), make_world("hex-half-grid")],
    ids=lambda w: w.kind)
def test_neighbour_offsets_repeat_every_second_column_on_the_line(w):
    # rays._steps reads two columns of the integer line on this
    def offsets(x, y):
        return [(nx - x, ny - y) for nx, ny in world_neighbors(w, (x, y))]

    levels = range(0, 7) if w.half else range(-6, 7)
    for x in range(-6, 7):
        for y in levels:
            assert offsets(x, y) == offsets(x + 2, y), (x, y)


def test_window_cap():
    fg = make_world("full-grid")
    with pytest.raises(WindowCapExceeded):
        truncate(fg, 50, cap=100)
    # an oversized window is refused before any coordinate is built
    tracemalloc.start()
    try:
        with pytest.raises(WindowCapExceeded):
            truncate(fg, 600)
        with pytest.raises(WindowCapExceeded):
            ray_graph(fg, canonical_rays(fg, 4), d0=600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


def test_canonical_rays_disjoint_everywhere():
    worlds = [(make_world("half-grid"), 5), (make_world("full-grid"), 6),
              (make_world("hex-half-grid"), 3),
              (make_world("product-Z", base=triangle()), 3),
              (make_world("dominated-ray", k=3), 4)]
    for w, m in worlds:
        rays = canonical_rays(w, m)
        assert [r.index for r in rays] == list(range(m))
        sets = [frozenset(r.coords_in_window(12)) for r in rays]
        for a, b in itertools.combinations(range(m), 2):
            assert not (sets[a] & sets[b]), (w.kind, a, b)


def test_canonical_supply_errors():
    with pytest.raises(ValidationError):
        canonical_rays(make_world("product-Z", base=triangle()), 4)
    with pytest.raises(ValidationError):
        canonical_rays(make_world("dominated-ray", k=2), 4)
    with pytest.raises(ValidationError):
        canonical_rays(make_world("half-grid"), 0)


def test_rayspec_validation():
    hg = make_world("half-grid")
    with pytest.raises(ValidationError):
        RaySpec(hg, ((0, 0),), ((0, -1),), 0)        # dives out of the world
    with pytest.raises(ValidationError):
        RaySpec(hg, ((0, 0), (5, 5)), ((0, 1),), 0)  # jump
    with pytest.raises(ValidationError):
        RaySpec(hg, ((0, 0),), ((0, 1), (0, -1)), 0)  # zero net displacement


@pytest.mark.parametrize("kind,prefix,steps,message", [
    ("half-grid", (), ((0, 1),), "at least one coordinate"),
    ("half-grid", ((0, 0),), (), "at least one periodic step"),
    ("half-grid", ((0, -1),), ((0, 1),), "outside the world"),
    ("half-grid", ((0, 0),), ((0, 1), (0, -1)), "nonzero net displacement"),
    ("half-grid", ((0, 5),), ((0, -1),), "leaves the world"),
    ("half-grid", ((0, 0), (5, 5)), ((0, 1),), "not adjacent"),
    ("half-grid", ((0, 0),), ((1, 0), (-1, 0), (0, 1)), "injective"),
    ("full-grid", ((3, 0),), ((-1, 0), (0, 1)), "non-decreasing"),
], ids=["empty prefix", "no step", "prefix outside", "zero net",
        "leaves the world", "not adjacent", "not injective", "norm decreasing"])
def test_rayspec_refusal_messages(kind, prefix, steps, message):
    with pytest.raises(ValidationError, match=message):
        RaySpec(make_world(kind), prefix, steps, 0)


def test_rayspec_refuses_a_period_that_walks_out_of_the_world():
    # both rays pass the probe of their first cycles, then leave the world
    hg = make_world("half-grid")
    with pytest.raises(ValidationError, match="leaves the world"):
        RaySpec(hg, ((10, 5),), ((1, 0), (1, 0), (0, -1)), 1)   # drifts down
    strip = make_world("product-N", base=path_graph(12))
    with pytest.raises(ValidationError, match="leaves the world"):
        RaySpec(strip, ((0, 0),), ((1, 0), (0, 1)), 0)            # drifts sideways


@pytest.mark.parametrize("k", range(1, 5))
def test_dominated_ray_is_the_star_times_n(k):
    dominated = make_world("dominated-ray", k=k)
    product = make_world("product-N", base=star_graph(k))
    for depth in range(1, 6):
        a, b = truncate(dominated, depth), truncate(product, depth)
        assert a.coords == b.coords
        assert a.graph.edges == b.graph.edges


def test_rayspec_coords_and_shift():
    fg = make_world("full-grid")
    r = RaySpec(fg, ((0, 1), (1, 1)), ((1, 0),), 0)
    assert r.coords_in_window(3) == [(0, 1), (1, 1), (2, 1), (3, 1)]


def ray_coord(r, pos):
    """Position ``pos`` of ray r in closed form: the prefix, or the end of
    the prefix moved by whole step cycles and then a partial one."""
    if pos < len(r.prefix):
        return r.prefix[pos]
    x, y = r.prefix[-1]
    q, rem = divmod(pos - len(r.prefix) + 1, len(r.steps))
    for dx, dy in r.steps:
        x += q * dx
        y += q * dy
    for dx, dy in r.steps[:rem]:
        x += dx
        y += dy
    return (x, y)


def test_coords_in_window_walks_like_coord():
    # one walk through prefix and step cycle gives what the closed form
    # gives per position, up to the first coordinate beyond the depth
    worlds = [(make_world("full-grid"), 8), (make_world("half-grid"), 3),
              (make_world("hex-half-grid"), 4),
              (make_world("product-Z", base=triangle()), 3),
              (make_world("product-N", base=star_graph(3)), 4),
              (make_world("dominated-ray", k=3), 4)]
    fg = make_world("full-grid")
    extra = [RaySpec(fg, ((0, 1), (1, 1), (1, 2)), ((1, 0), (0, 1)), 9)]
    rays = extra + [r for w, m in worlds for r in canonical_rays(w, m)]
    for r in rays:
        for depth in (0, 1, 2, 5, 9, 14):
            expected = list(itertools.takewhile(
                lambda c: world_norm(r.world, c) <= depth,
                (ray_coord(r, i) for i in itertools.count())))
            assert r.coords_in_window(depth) == expected, (r, depth)


def test_ray_positions_contiguous():
    hg = make_world("half-grid")
    t = truncate(hg, 4)
    col = canonical_rays(hg, 3)[2]
    pos = col.positions_in(t)
    assert [t.coords[v] for v in pos] == [(2, y) for y in range(5)]


def test_world_and_ray_json_round_trip():
    import json
    doc = '{"kind": "product-N", "base": {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}}'
    w = make_world("product-N", base=star_graph(3))
    assert world_from_json_dict(json.loads(doc)) == w


def test_chebyshev_ball():
    t = truncate(make_world("full-grid"), 4)
    ball = chebyshev_ball(t, 1)
    assert {t.coords[v] for v in ball} == {(x, y) for x in (-1, 0, 1)
                                           for y in (-1, 0, 1)}


def test_positions_in_refuses_a_window_of_another_world():
    hg, fg = make_world("half-grid"), make_world("full-grid")
    t = truncate(hg, 8)
    with pytest.raises(ValidationError, match="full-grid.*half-grid"):
        canonical_rays(fg, 1)[0].positions_in(t)
    # worlds compare by value: an equal world's window is the ray's own
    assert canonical_rays(make_world("half-grid"), 1)[0].positions_in(t) \
        == canonical_rays(hg, 1)[0].positions_in(t)


def test_positions_in_memo_answers_like_a_fresh_walk():
    # every world kind, its canonical family, several depths
    worlds = [(make_world("full-grid"), 4), (make_world("half-grid"), 3),
              (make_world("hex-half-grid"), 3),
              (make_world("product-Z", base=triangle()), 3),
              (make_world("product-N", base=star_graph(3)), 4),
              (make_world("dominated-ray", k=3), 4)]
    for w, m in worlds:
        for depth in (1, 3, 6):
            t = truncate(w, depth)
            for r in canonical_rays(w, m):
                oracle = [t.index_of(c) for c in r.coords_in_window(t.depth)]
                first = r.positions_in(t)
                assert first == oracle, (w.kind, depth, r.index)
                # the caller owns its list: changing it leaves the memo alone
                first.append(-1)
                first[:1] = []
                assert r.positions_in(t) == oracle, (w.kind, depth, r.index)
            assert t == truncate(w, depth)


def test_positions_in_memo_never_stores_a_refusal():
    hg = make_world("half-grid")
    t = truncate(hg, 5)
    col = canonical_rays(hg, 1)[0]
    assert col.positions_in(t) == [t.index_of((0, y)) for y in range(6)]
    # the same prefix, steps and index in the full grid: another ray
    alien = RaySpec(make_world("full-grid"), col.prefix, col.steps, col.index)
    for _ in range(2):
        with pytest.raises(ValidationError, match="full-grid.*half-grid"):
            alien.positions_in(t)
    assert col.positions_in(t) == [t.index_of((0, y)) for y in range(6)]
    # a window that lacks one of the ray's coordinates refuses on every call
    gap = t.index_of((0, 2))
    holed = Truncation(hg, 5, t.graph, t.coords[:gap] + ((-9, -9),) + t.coords[gap + 1:])
    for _ in range(2):
        with pytest.raises(ValidationError, match=r"\(0, 2\) missing from window"):
            col.positions_in(holed)


def test_dot_export_refuses_rays_of_another_world():
    hg, fg = make_world("half-grid"), make_world("full-grid")
    with pytest.raises(ValidationError, match="full-grid"):
        truncation_to_dot(truncate(hg, 4), canonical_rays(fg, 2))
