"""Ray graphs, end-linearity, and tails.

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
from .worlds import (DEFAULT_WINDOW_CAP, Coord, RaySpec, Truncation, World,
                     _window_box, _window_coords, world_neighbors,
                     world_norm)

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
    """Raise unless the rays are pairwise vertex-disjoint within ``depth``."""
    owner: dict[Coord, RaySpec] = {}
    for r in rays:
        for c in r.coords_in_window(depth):
            first = owner.setdefault(c, r)
            if first is not r:
                raise ValidationError(
                    f"rays {first.index} and {r.index} intersect within depth {depth}")


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


def is_linear_family(rg: RayGraph) -> bool:
    """True iff the (stabilized) ray graph is a path on its indices."""
    if not rg.stabilized:
        raise ValidationError("ray graph did not stabilize; deepen d0")
    m = len(rg.indices)
    if m == 0:
        return False
    if m == 1:
        return not rg.edges
    if len(rg.edges) != m - 1:
        return False
    deg = {i: 0 for i in rg.indices}
    for a, b in rg.edges:
        deg[a] += 1
        deg[b] += 1
    if any(d > 2 for d in deg.values()) or sum(1 for d in deg.values() if d == 1) != 2:
        return False
    # connected with m-1 edges and max degree 2: a path
    adj: dict[int, list[int]] = {i: [] for i in rg.indices}
    for a, b in rg.edges:
        adj[a].append(b)
        adj[b].append(a)
    start = rg.indices[0]
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v2 in adj[u]:
            if v2 not in seen:
                seen.add(v2)
                stack.append(v2)
    return len(seen) == m


def tail_after(r: RaySpec, x_vertices: set[int], t: Truncation) -> RaySpec:
    """The tail of the ray starting just after its last meeting with X.

    X is given as window vertex indices of ``t``; the tail of a ray after
    a finite set is its unique infinite part beyond the last intersection.
    Returns ``r`` unchanged when they do not meet.
    """
    xcoords = set()
    for v in x_vertices:
        if not (0 <= v < len(t.coords)):
            raise ValidationError(f"window vertex {v} out of range")
        xcoords.add(t.coords[v])
    if not xcoords:
        return r
    max_norm = max(world_norm(r.world, c) for c in xcoords)
    last_hit = -1
    pos = 0
    while pos < len(r.prefix) or world_norm(r.world, r.coord(pos)) <= max_norm:
        if r.coord(pos) in xcoords:
            last_hit = pos
        pos += 1
    if last_hit < 0:
        return r
    return r.shifted(last_hit + 1)
