"""Ray graphs, ray disjointness and end-linearity.

The ray graph of a disjoint ray family has an edge between two rays when
infinitely many disjoint paths connect them while avoiding every other ray
in the family.  At desk scale "infinitely many" is witnessed by the
annulus rule: one connecting path inside each of several disjoint
consecutive window shells beyond a start depth, plus a stability re-check
with the start depth shifted by one.  Disjoint shells give vertex-disjoint
witnesses by construction; eventual periodicity of the worlds makes the
edge set eventually constant.  The answer is a certified finite
observation, never a proof about the infinite world.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import ValidationError
from .graphs import Graph, is_connected
from .worlds import (DEFAULT_WINDOW_CAP, Coord, RaySpec, World, _window_box,
                     _window_coords, world_neighbors, world_norm)

DEFAULT_ANNULI = 3
DEFAULT_RING_WIDTH = 2


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


def check_disjoint_rays(rays: list[RaySpec], depth: int) -> None:
    """Raise unless the rays are pairwise vertex-disjoint within ``depth``.

    Coordinates are owned by list position, so a family that names one ray
    twice is refused too.
    """
    owner: dict[Coord, int] = {}
    for p, r in enumerate(rays):
        for c in r.coords_in_window(depth):
            first = owner.setdefault(c, p)
            if first != p:
                raise ValidationError(
                    f"rays {rays[first].index} and {r.index} (list positions "
                    f"{first} and {p}) intersect within depth {depth}")


def _ring_coords(w: World, lo: int, hi: int,
                 cap: int = DEFAULT_WINDOW_CAP) -> set[Coord]:
    """All world coordinates with lo < norm <= hi."""
    return {c for c in _window_coords(w, hi, cap) if world_norm(w, c) > lo}


def _shell_has_path(w: World, shell: set[Coord], src: set[Coord],
                    dst: set[Coord], forbid: set[Coord]) -> bool:
    """Is there a path inside ``shell`` from src to dst avoiding forbid?"""
    if not src or not dst:
        return False
    allowed = shell - forbid
    src = src & allowed
    dst = dst & allowed
    if not src:
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


def _edge_set_at(w: World, rays: list[RaySpec], d0: int, annuli: int,
                 ring_width: int, window_cap: int) -> frozenset[tuple[int, int]]:
    hi_max = d0 + annuli * ring_width
    traces = [set(r.coords_in_window(hi_max)) for r in rays]
    alive: set[tuple[int, int]] = set()
    for t in range(1, annuli + 1):
        lo = d0 + (t - 1) * ring_width
        hi = d0 + t * ring_width
        shell = _ring_coords(w, lo, hi, cap=window_cap)
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
              annuli: int = DEFAULT_ANNULI,
              ring_width: int = DEFAULT_RING_WIDTH,
              window_cap: int = DEFAULT_WINDOW_CAP) -> RayGraph:
    """Derived graph on ray indices via the annulus rule.

    Edge (i, j) is present iff every one of the ``annuli`` consecutive
    shells beyond ``d0`` contains a connecting path between the two rays
    that avoids every other ray in the family.  ``stabilized`` records
    whether recomputing with d0 + 1 gives the same edge set.
    """
    if annuli < 3:
        raise ValidationError("annuli must be >= 3")
    if d0 < 1:
        raise ValidationError("d0 must be >= 1")
    if ring_width < 1:
        raise ValidationError("ring_width must be >= 1")
    if len({r.index for r in rays}) != len(rays):
        raise ValidationError("ray indices must be distinct")
    # the deepest shell bounds every window read below; refuse it up front
    _window_box(w, d0 + 1 + annuli * ring_width, window_cap)
    check_disjoint_rays(rays, d0 + (annuli + 1) * ring_width + 1)
    idx = [r.index for r in rays]
    by_pos = {i: r.index for i, r in enumerate(rays)}
    e0 = _edge_set_at(w, rays, d0, annuli, ring_width, window_cap)
    e1 = _edge_set_at(w, rays, d0 + 1, annuli, ring_width, window_cap)
    edges = frozenset((by_pos[a], by_pos[b]) for a, b in e0)
    return RayGraph(tuple(idx), edges, stabilized=(e0 == e1),
                    depth_range=(d0, d0 + 1 + annuli * ring_width))


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
