"""Ray graphs, ray disjointness and end-linearity.

The ray graph of a disjoint ray family has an edge between two rays when
infinitely many disjoint paths connect them while avoiding every other ray
in the family.  At desk scale "infinitely many" is witnessed by the
annulus rule: one connecting path inside each of ``ANNULI`` disjoint
consecutive window shells of ``RING_WIDTH`` levels beyond a start depth,
plus a stability re-check with the start depth shifted by one.  Disjoint
shells give vertex-disjoint witnesses by construction; eventual
periodicity of the worlds makes the edge set eventually constant.  The
answer is a certified finite observation, never a proof about the
infinite world.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import ValidationError
from .graphs import Graph, is_connected
from .worlds import (DEFAULT_WINDOW_CAP, Coord, RaySpec, World, _window_coords,
                     world_neighbors, world_norm)

ANNULI = 3
RING_WIDTH = 2


@dataclass(frozen=True)
class RayGraph:
    indices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    stabilized: bool
    depth_range: tuple[int, int]

    def degree(self, i: int) -> int:
        return sum(1 for e in self.edges if i in e)

    def to_json_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "edges": [list(e) for e in sorted(self.edges)],
            "stabilized": self.stabilized,
            "depth_range": list(self.depth_range),
        }


def check_disjoint_rays(rays: list[RaySpec], traces: list[list], depth: int) -> None:
    """Raise unless the rays' traces within ``depth`` are pairwise disjoint.

    ``traces[p]`` is ray p's trace, as coordinates or as window vertices.
    Traces are owned by list position, so one ray named twice is refused.
    """
    owner: dict = {}
    for p, trace in enumerate(traces):
        for c in trace:
            first = owner.setdefault(c, p)
            if first != p:
                raise ValidationError(
                    f"rays {rays[first].index} and {rays[p].index} (list positions "
                    f"{first} and {p}) intersect within depth {depth}")


def _shell_has_path(w: World, shell: set[Coord], src: set[Coord],
                    dst: set[Coord], forbid: set[Coord]) -> bool:
    """Is there a path inside ``shell`` from src to dst avoiding forbid?"""
    allowed = shell - forbid
    src = src & allowed
    dst = dst & allowed
    if not src or not dst:
        return False
    if src & dst:
        return True
    seen = set(src)
    queue = deque(seen)
    while queue:
        c = queue.popleft()
        for nb in world_neighbors(w, c):
            if nb in dst:
                return True
            if nb in allowed and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return False


def _edge_set_at(w: World, rings: list[list[Coord]], traces: list[set[Coord]],
                 d0: int) -> frozenset[tuple[int, int]]:
    """Annulus-rule edges over list positions; ``rings[n]`` holds the
    window coordinates of norm n."""
    alive: set[tuple[int, int]] = set()
    for t in range(1, ANNULI + 1):
        lo = d0 + (t - 1) * RING_WIDTH
        shell = set().union(*rings[lo + 1:lo + RING_WIDTH + 1])
        shell_traces = [tr & shell for tr in traces]
        if t == 1:
            # a ray that misses the first shell has no path in it
            alive = set(itertools.combinations(
                [i for i, tr in enumerate(shell_traces) if tr], 2))
        # the rays are disjoint here, so the other rays are the union less two
        on_rays = set().union(*shell_traces)
        for (i, j) in list(alive):
            others = on_rays - shell_traces[i] - shell_traces[j]
            if not _shell_has_path(w, shell, shell_traces[i], shell_traces[j], others):
                alive.discard((i, j))
    return frozenset(alive)


def ray_graph(w: World, rays: list[RaySpec], d0: int,
              window_cap: int = DEFAULT_WINDOW_CAP) -> RayGraph:
    """Derived graph on ray indices via the annulus rule.

    Edge (i, j) is present iff every one of the ``ANNULI`` consecutive
    shells of ``RING_WIDTH`` levels beyond ``d0`` contains a connecting
    path between the two rays that avoids every other ray in the family.
    ``stabilized`` records whether recomputing with d0 + 1 gives the same
    edge set.  ``depth_range`` is (d0, deepest window norm read); that
    window must fit in ``window_cap`` vertices.
    """
    if d0 < 1:
        raise ValidationError("d0 must be >= 1")
    if len({r.index for r in rays}) != len(rays):
        raise ValidationError("ray indices must be distinct")
    # one scan of the deepest shell's window, grouped by norm, serves every shell
    deepest = d0 + 1 + ANNULI * RING_WIDTH
    coords = _window_coords(w, deepest, window_cap)   # refuses an oversized window
    rings: list[list[Coord]] = [[] for _ in range(deepest + 1)]
    for c in coords:
        rings[world_norm(w, c)].append(c)
    # one trace per ray, deep enough for the disjointness check and both edge sets
    depth = deepest + RING_WIDTH
    traces = [r.coords_in_window(depth) for r in rays]
    check_disjoint_rays(rays, traces, depth)
    trace_sets = [set(tr) for tr in traces]
    idx = [r.index for r in rays]
    e0 = _edge_set_at(w, rings, trace_sets, d0)
    e1 = _edge_set_at(w, rings, trace_sets, d0 + 1)
    edges = frozenset((idx[a], idx[b]) for a, b in e0)
    return RayGraph(tuple(idx), edges, stabilized=(e0 == e1),
                    depth_range=(d0, deepest))


def _position_graph(rg: RayGraph) -> Graph:
    """The ray graph as a ``Graph`` over ray positions (indices into
    ``rg.indices``)."""
    pos = {i: p for p, i in enumerate(rg.indices)}
    return Graph.from_edges(len(rg.indices), ((pos[a], pos[b]) for a, b in rg.edges))


def is_linear_family(rg: RayGraph) -> bool:
    """True iff the (stabilized) ray graph is a path on its indices."""
    if not rg.stabilized:
        raise ValidationError("ray graph did not stabilize; deepen d0")
    g = _position_graph(rg)
    # connected with m-1 edges and no degree above 2: a path
    return (len(g.edges) == g.n - 1 and is_connected(g)
            and all(g.degree(v) <= 2 for v in range(g.n)))
