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
infinite world.  ``ray_graph`` decides the rule on bitmasks of the
deepest window: shells and rays are masks, and step masks repeat the
neighbour rule of one period of columns on two levels over the window.
Each pair's search takes one frontier step, then fills whole runs: a run
along the row in one addition, and a run in any other direction by
doubling the shift.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError
from .graphs import Graph, is_connected
from .worlds import (DEFAULT_WINDOW_CAP, RaySpec, World, _window_box,
                     world_neighbors)

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

    @cached_property
    def _position_graph(self) -> Graph:
        """The ray graph as a ``Graph`` over ray positions (indices into
        ``indices``), built once per ray graph."""
        pos = {i: p for p, i in enumerate(self.indices)}
        return Graph.from_edges(len(self.indices), ((pos[a], pos[b]) for a, b in self.edges))

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


def _reaches(step: dict[int, int], src: int, dst: int, allowed: int) -> bool:
    """Is there a path inside ``allowed`` from a ``src`` bit to a ``dst``
    bit?  ``step[s]`` holds the vertices whose neighbour lies s bits away.

    One frontier step comes first, with no set-up: product floods and
    other short ones end there.  After it every shift fills whole runs.
    ``pro[s][0]`` holds the allowed vertices that a step by s enters.  The
    step by +1 fills every run in one addition: with ``a = pro[1][0] |
    reached``, the carry of ``a + reached`` runs from the lowest reached
    bit of each run of ``a`` to the run's top and clears it, so
    ``a & ~(a + reached)`` holds that stretch.  Every other shift fills by
    doubling (Kogge & Stone 1973): ``pro[s][i]`` holds the vertices that
    2^i steps by s in a row enter through allowed vertices, built only
    once level i - 1 has grown ``reached``.  The passes over the shifts
    repeat until ``dst`` is hit or a pass adds nothing, so the reachable
    set is the one a frontier flood finds.
    """
    reached = src & allowed
    if reached & dst:
        return True
    grown = 0
    for s, movers in step.items():
        f = reached & movers
        if f:
            grown |= f << s if s > 0 else f >> -s
    grown &= allowed & ~reached
    if not grown:
        return False
    if grown & dst:
        return True
    reached |= grown
    pro = {s: [allowed & (m << s if s > 0 else m >> -s)] for s, m in step.items()}
    while True:
        before = reached
        for s, levels in pro.items():
            if s == 1:
                a = levels[0] | reached
                reached |= a & ~(a + reached)
                continue
            i, t = 0, s
            while True:
                filled = reached | (reached << t if t > 0 else reached >> -t) & levels[i]
                if filled == reached:
                    break
                reached = filled
                i += 1
                if i == len(levels):
                    p = levels[-1]
                    levels.append(p & (p << t if t > 0 else p >> -t))
                t += t
        if reached & dst:
            return True
        if reached == before:
            return False


def _mask(bits: list[int]) -> int:
    """The integer with exactly ``bits`` set, in time linear in its size."""
    buf = bytearray(max(bits, default=-1) // 8 + 1)
    for b in bits:
        buf[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(buf, "little")


def _steps(w: World, box: tuple[int, int, int, int], keep: int) -> dict[int, int]:
    """``step[s]`` holds the ``keep`` vertices of the rectangle ``box``
    whose neighbour lies s bits away.  Neighbour offsets depend only on
    the parity of y and on x mod 2 on the integer line, on x on a finite
    row (see ``worlds``).  So one period of columns on two interior levels
    gives each shift a pattern, repeated along the row by a column repunit
    and over the levels by a level-pair repunit.  A neighbour outside the
    rectangle would alias another vertex, so each shift keeps only the
    vertices whose neighbour lies inside: a row neighbour past [x0, x1], a
    rung up from the top level and one down from the bottom are dropped."""
    x0, x1, y0, y1 = box
    width = x1 - x0 + 1
    period = 2 if w.row is None else width
    # movers[dy, dx][(y - y0) % 2]: the period's columns that step by (dx, dy)
    movers: dict[tuple[int, int], list[int]] = defaultdict(lambda: [0, 0])
    for y in (y0 + 1, y0 + 2):
        for x in range(x0, x0 + period):
            for nx, ny in world_neighbors(w, (x, y)):
                movers[ny - y, nx - x][(y - y0) % 2] |= 1 << x - x0
    row = (1 << width) - 1
    cols = ((1 << period * -(-width // period)) - 1) // ((1 << period) - 1)
    levels = ((1 << width * (y1 - y0 + 1)) - 1) // row
    pairs = ((1 << 2 * width * ((y1 - y0) // 2 + 1)) - 1) // ((1 << 2 * width) - 1)
    step = {}
    for (dy, dx), (even, odd) in movers.items():
        pattern = (even * cols & row | (odd * cols & row) << width) * pairs
        inside = ((row >> abs(dx) << max(-dx, 0))
                  * (levels >> abs(dy) * width << max(-dy, 0) * width))
        if m := pattern & keep & inside:
            step[dy * width + dx] = m
    return step


def _edge_set_at(step: dict[int, int], boxes: list[int], traces: list[int],
                 d0: int) -> frozenset[tuple[int, int]]:
    """Annulus-rule edges over list positions; ``boxes[n]`` is the mask of
    the window at depth n and ``traces[p]`` the mask of ray p."""
    alive: set[tuple[int, int]] = set()
    for t in range(1, ANNULI + 1):
        lo = d0 + (t - 1) * RING_WIDTH
        shell = boxes[lo + RING_WIDTH] & ~boxes[lo]
        shell_traces = [tr & shell for tr in traces]
        if t == 1:
            # a ray that misses the first shell has no path in it
            alive = set(itertools.combinations(
                [i for i, tr in enumerate(shell_traces) if tr], 2))
        # the rays are disjoint here: their union is the sum of their masks
        on_rays = sum(shell_traces)
        for (i, j) in list(alive):
            others = on_rays & ~(shell_traces[i] | shell_traces[j])
            if not _reaches(step, shell_traces[i], shell_traces[j], shell & ~others):
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

    Vertex (x, y) is bit (y - y0) * width + (x - x0) of the deepest
    window's rectangle; a window is its rectangle, so a shell is the
    difference of two window masks.  Rays must belong to ``w``.
    """
    if d0 < 1:
        raise ValidationError("d0 must be >= 1")
    for r in rays:
        if r.world != w:
            raise ValidationError(
                f"ray {r.index} belongs to a {r.world.kind} world, not this {w.kind} world")
    if len({r.index for r in rays}) != len(rays):
        raise ValidationError("ray indices must be distinct")
    deepest = d0 + 1 + ANNULI * RING_WIDTH
    x0, x1, y0, y1 = _window_box(w, deepest, window_cap)   # refuses an oversized window
    width = x1 - x0 + 1
    boxes = [0] * (deepest + 1)
    for n in range(d0, deepest + 1):
        bx0, bx1, by0, by1 = _window_box(w, n, window_cap)
        # one level's run of bits, repeated on every level of the box
        row = ((1 << (bx1 - bx0 + 1)) - 1) << (bx0 - x0)
        rows = ((1 << (width * (by1 - by0 + 1))) - 1) // ((1 << width) - 1)
        boxes[n] = row * rows << (by0 - y0) * width
    step = _steps(w, (x0, x1, y0, y1), boxes[deepest] & ~boxes[d0])
    # one trace per ray, deep enough for the disjointness check and both edge sets
    depth = deepest + RING_WIDTH
    traces = [r.coords_in_window(depth) for r in rays]
    check_disjoint_rays(rays, traces, depth)
    masks = [_mask([(y - y0) * width + x - x0 for x, y in tr
                    if x0 <= x <= x1 and y0 <= y <= y1]) for tr in traces]
    idx = [r.index for r in rays]
    e0 = _edge_set_at(step, boxes, masks, d0)
    e1 = _edge_set_at(step, boxes, masks, d0 + 1)
    edges = frozenset((idx[a], idx[b]) for a, b in e0)
    return RayGraph(tuple(idx), edges, stabilized=(e0 == e1),
                    depth_range=(d0, deepest))


def is_linear_family(rg: RayGraph) -> bool:
    """True iff the (stabilized) ray graph is a path on its indices."""
    if not rg.stabilized:
        raise ValidationError("ray graph did not stabilize; deepen d0")
    g = rg._position_graph
    # connected with m-1 edges and no degree above 2: a path
    return (len(g.edges) == g.n - 1 and is_connected(g)
            and all(g.degree(v) <= 2 for v in range(g.n)))
