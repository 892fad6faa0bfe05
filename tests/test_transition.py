"""Realizing pebble move sequences on the ray graph as linkages."""

from collections import deque

import pytest

from pebblekit import linkage
from pebblekit.errors import ValidationError
from pebblekit.linkage import check_linkage, realize_transition
from pebblekit.rays import RayGraph, ray_graph
from pebblekit.worlds import (RaySpec, canonical_rays, chebyshev_ball, make_world,
                              truncate)


@pytest.fixture(scope="module")
def grid_setup():
    fg = make_world("full-grid")
    t = truncate(fg, 8)
    rays = canonical_rays(fg, 3)
    rg = ray_graph(fg, rays, d0=8)
    return fg, t, rays, rg


def test_ray_graph_is_triangle(grid_setup):
    _, _, _, rg = grid_setup
    assert rg.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_empty_move_sequence_is_identity(grid_setup):
    _, t, rays, rg = grid_setup
    lk = realize_transition(t, rays, [(0, 1)], set(), rg=rg)
    assert lk.sigma == {0: 0, 1: 1}
    assert lk.paths == {0: (), 1: ()}
    check_linkage(t, [rays[0], rays[1]], rays, lk)


def test_transition_after_ball(grid_setup):
    _, t, rays, rg = grid_setup
    ball = set(chebyshev_ball(t, 3))
    moves = [(0, 1), (2, 1)]
    lk = realize_transition(t, rays, moves, ball, rg=rg)
    walks = check_linkage(t, [rays[0], rays[1]], rays, lk)
    assert lk.after == frozenset(ball)
    # connectors stay outside the ball
    for p in lk.paths.values():
        assert not (set(p) & ball)


def test_greedy_failure_falls_back_to_exact_search():
    # the per-move routing runs out of room in this small window, yet a
    # linkage inducing the same pairing exists
    fg = make_world("full-grid")
    t = truncate(fg, 3)
    rays = canonical_rays(fg, 3)
    moves = [(0, 1), (0, 2), (1, 2), (0, 2), (0, 1)]
    lk = realize_transition(t, rays, moves, set(), rg=ray_graph(fg, rays, d0=4))
    assert lk.sigma == {0: 0, 1: 1}
    check_linkage(t, [rays[0], rays[1]], rays, lk)


def test_greedy_bfs_miss_falls_back_to_exact_search(monkeypatch):
    # every move has switch points and landings left, but the last move's
    # BFS round the radius-1 ball finds no landing beyond the used region
    fg = make_world("full-grid")
    t = truncate(fg, 3)
    rays = canonical_rays(fg, 3)
    moves = [(0, 1), (2, 1), (2, 0), (2, 1)]
    queues = []

    def recorded(items):
        queues.append(deque(items))
        return queues[-1]

    monkeypatch.setattr(linkage, "deque", recorded)
    lk = realize_transition(t, rays, moves, set(chebyshev_ball(t, 1)),
                            rg=ray_graph(fg, rays, d0=4))
    # one BFS per move, so no move stopped at an empty source or landing
    # set, and the last one ran dry
    assert len(queues) == len(moves) - 1 and not queues[-1]
    assert lk.sigma == {0: 2, 1: 1}
    check_linkage(t, [rays[0], rays[1]], rays, lk)


def test_greedy_composition_needs_no_exact_search(grid_setup, monkeypatch):
    # the greedy router must realize these itself: were it to give up, the
    # exact engine would answer instead and the tests above would still pass
    import pebblekit.linkage as linkage_mod

    def no_fallback(*args, **kwargs):
        pytest.fail("realize_transition fell back to find_linkage")

    monkeypatch.setattr(linkage_mod, "find_linkage", no_fallback)
    _, t, rays, rg = grid_setup
    ball = set(chebyshev_ball(t, 3))
    cases = [([(0, 1)], set()),
             ([(0, 1), (2, 1)], set()),
             ([(0, 1), (2, 1), (2, 0)], set()),
             ([(0, 1), (2, 1), (2, 0), (1, 0)], set()),
             # there and back: rides ray 2 from the landing to the switch
             ([(0, 1), (2, 1), (0, 1)], set()),
             ([(0, 1), (2, 1)], ball)]
    for moves, x in cases:
        lk = realize_transition(t, rays, moves, x, rg=rg)
        assert lk.sigma == dict(enumerate(moves[-1]))
        check_linkage(t, [rays[s] for s in moves[0]], rays, lk)


def test_move_validation(grid_setup):
    _, t, rays, rg = grid_setup
    with pytest.raises(ValidationError):
        realize_transition(t, rays, [], set(), rg=rg)
    with pytest.raises(ValidationError):
        realize_transition(t, rays, [(0, 0)], set(), rg=rg)
    with pytest.raises(ValidationError):
        realize_transition(t, rays, [(0, 1), (1, 0)], set(), rg=rg)  # two change
    # moving onto an occupied ray
    with pytest.raises(ValidationError):
        realize_transition(t, rays, [(0, 1), (1, 1)], set(), rg=rg)
    # rays that meet, or one ray named twice; ray_graph refuses both
    # families, so their ray graphs are built by hand
    crossing = RaySpec(t.world, ((-1, 1), (0, 1)), ((0, 1),), 9)   # joins ray 0
    for fam in ([rays[0], rays[0]], [rays[0], crossing]):
        fam_rg = RayGraph(tuple(r.index for r in fam), frozenset(), True, (8, 15))
        with pytest.raises(ValidationError, match="intersect"):
            realize_transition(t, fam, [(0,)], set(), rg=fam_rg)


def test_rays_of_another_world_are_refused(grid_setup):
    _, _, rays, rg = grid_setup
    t = truncate(make_world("half-grid"), 8)
    with pytest.raises(ValidationError, match="full-grid.*half-grid"):
        realize_transition(t, rays, [(0, 1)], set(), rg=rg)


X_REFUSALS = [(-1, "outside the window"), (10**6, "outside the window"),
              (1.0, "must be integers")]


@pytest.mark.parametrize("x, message", X_REFUSALS, ids=[str(x) for x, _ in X_REFUSALS])
def test_x_outside_the_window_is_refused(grid_setup, x, message):
    # as in find_linkage: -1 is not the window's last vertex, a vertex past
    # the window is refused, not left to fail deep in the routing, and 1.0
    # is not a vertex, though it equals one
    fg, _, rays, rg = grid_setup
    t = truncate(fg, 6)
    with pytest.raises(ValidationError, match=message):
        realize_transition(t, rays, [(0, 1), (2, 1)], {x}, rg=rg)


def test_half_grid_move_respects_ray_graph():
    hg = make_world("half-grid")
    t = truncate(hg, 8)
    cols = canonical_rays(hg, 3)
    rg = ray_graph(hg, cols, d0=8)
    # 0 and 2 are not adjacent in the path ray graph
    with pytest.raises(ValidationError):
        realize_transition(t, cols, [(0, 1), (2, 1)], set(), rg=rg)
    lk = realize_transition(t, cols, [(0, 2), (1, 2)], set(), rg=rg)
    check_linkage(t, [cols[0], cols[2]], cols, lk)


def test_moves_are_read_on_ray_positions():
    # rays with indices 2, 3, 4 sit at positions 0, 1, 2: the ray graph's
    # edges name indices, the moves name positions
    hg = make_world("half-grid")
    t = truncate(hg, 6)
    cols = canonical_rays(hg, 5)[2:]
    rg = ray_graph(hg, cols, d0=6)
    lk = realize_transition(t, cols, [(0,), (1,)], set(), rg=rg)
    assert lk.sigma == {0: 1}
    check_linkage(t, [cols[0]], cols, lk)
    with pytest.raises(ValidationError):
        realize_transition(t, cols, [(0,), (2,)], set(), rg=rg)
    # a ray graph of other rays is refused, not read over these
    other = ray_graph(hg, canonical_rays(hg, 3), d0=6)
    with pytest.raises(ValidationError):
        realize_transition(t, cols, [(0,), (1,)], set(), rg=other)
