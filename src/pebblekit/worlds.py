"""Finitely presented infinite graphs and their finite windows.

Every world is a *row* times *levels*, with pair coordinates (x, y): x is a
position in the row, y a level.  Each level is a copy of the row, and a
rung joins (x, y) to (x, y + 1).  The row is the integer line or a finite
connected graph; the levels run over Z or over N (y >= 0).

* ``full-grid``    -- the line times Z: vertex set Z x Z.
* ``half-grid``    -- the line times N: Z x N.
* ``hex-half-grid``-- the cubic brick wall: the half grid with every second
  rung removed (the rung at (x, y)-(x, y+1) survives iff x + y is even),
  so every interior vertex has degree 3.
* ``product-Z`` / ``product-N`` -- a base graph times Z / N.
* ``dominated-ray`` -- the k-fold dominated ray in its comb presentation,
  the star K_{1,k} times N: spine strand 0 carries the ray, strands 1..k
  are the dominating vertices expanded into handles, with a rung from
  every handle vertex to the spine vertex on its level.  The expansion is
  what makes k+1 disjoint rays (spine plus one per handle) exist at all;
  with literal dominating vertices the world admits a single ray.

The neighbour offsets of (x, y) depend only on x and on y mod 2, except
that the bottom level of a half world has no rung down; on the integer
line they depend on x only through x mod 2 (the brick wall's rungs).
``rays`` builds a window's step masks from one period of columns (two on
the line, the whole row otherwise) on two levels on this, so every world
must keep it.

A truncation is the induced subgraph on all coordinates within ``depth``
under the world's window norm.  Windows are monotone: the depth-d window
is an induced subgraph of the depth-(d+1) window under coordinate
identity.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .errors import ValidationError, WindowCapExceeded
from .graphs import PARSE_MAX_N, Graph, _is_int, is_connected, parse_graph

Coord = tuple[int, int]

WORLD_KINDS = ("full-grid", "half-grid", "hex-half-grid",
               "product-Z", "product-N", "dominated-ray")

DEFAULT_WINDOW_CAP = 250_000

# the keys a world descriptor may hold: the command line reads its depth
_DESCRIPTOR_KEYS = ("kind", "base", "k", "depth")


@dataclass(frozen=True)
class World:
    """A world named by ``kind``; ``row`` and ``half`` are its geometry.

    ``row`` is the finite graph each level copies, None for the integer
    line; ``half`` says the levels run over N rather than Z.
    """

    kind: str
    base: Graph | None = None
    k: int | None = None
    row: Graph | None = field(init=False, repr=False, compare=False)
    half: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in WORLD_KINDS:
            raise ValidationError(f"unknown world kind {self.kind!r}")
        product = self.kind in ("product-Z", "product-N")
        if self.base is not None and not product:
            raise ValidationError(f"{self.kind} takes no base graph")
        if self.k is not None and self.kind != "dominated-ray":
            raise ValidationError(f"{self.kind} takes no k")
        row = None
        if product:
            if self.base is None:
                raise ValidationError(f"{self.kind} requires a base graph")
            if self.base.n == 0 or not is_connected(self.base):
                raise ValidationError("product base must be non-empty and connected")
            row = self.base
        if self.kind == "dominated-ray":
            # the star K_{1,k}: spine 0, handles 1..k; at most as many
            # vertices as a parsed graph
            if self.k is None or not 1 <= self.k < PARSE_MAX_N:
                raise ValidationError(
                    f"dominated-ray requires 1 <= k <= {PARSE_MAX_N - 1}")
            row = Graph.from_edges(self.k + 1, [(0, j) for j in range(1, self.k + 1)])
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "half", self.kind not in ("full-grid", "product-Z"))


def make_world(kind: str, base: Graph | None = None, k: int | None = None) -> World:
    return World(kind, base, k)


def world_from_json_dict(doc: dict) -> World:
    if not isinstance(doc, dict):
        raise ValidationError("a world descriptor must be a JSON object")
    unread = sorted(map(repr, doc.keys() - _DESCRIPTOR_KEYS))
    if unread:
        raise ValidationError(
            f"world descriptor keys {', '.join(unread)} are not read "
            f"(use {', '.join(_DESCRIPTOR_KEYS)})")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise ValidationError(f"world kind must be a string, got {kind!r}")
    k = doc.get("k")
    if k is not None and not _is_int(k):
        raise ValidationError(f"world k must be an integer, got {k!r}")
    base = None
    if "base" in doc and doc["base"] is not None:
        base = parse_graph(json.dumps(doc["base"]), "json")
    return World(kind, base, k)


# ---------------------------------------------------------------------------
# Coordinate rules
# ---------------------------------------------------------------------------

def world_contains(w: World, c: Coord) -> bool:
    x, y = c
    return (w.row is None or 0 <= x < w.row.n) and (y >= 0 or not w.half)


def world_neighbors(w: World, c: Coord) -> list[Coord]:
    """The sorted neighbours of world vertex c: its row neighbours on its
    level and its rungs to the levels above and below.  Raises
    ValidationError when c is not a vertex of the world."""
    if not world_contains(w, c):
        raise ValidationError(f"{c} is not a vertex of the {w.kind} world")
    x, y = c
    if w.row is None:
        out = [(x - 1, y), (x + 1, y)]
    else:
        out = [(b, y) for b in w.row.adjacency()[x]]
    # the brick wall keeps the rung (x, y)-(x, y+1) only when x + y is even
    brick = w.kind == "hex-half-grid"
    if not brick or (x + y) % 2 == 0:
        out.append((x, y + 1))
    if (y > 0 or not w.half) and (not brick or (x + y) % 2 == 1):
        out.append((x, y - 1))
    return sorted(out)


def world_norm(w: World, c: Coord) -> int:
    """Window norm: the level distance, and Chebyshev on the integer line."""
    x, y = c
    return abs(y) if w.row is not None else max(abs(x), abs(y))


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Truncation:
    world: World
    depth: int
    graph: Graph
    coords: tuple[Coord, ...]

    def index_of(self, c: Coord) -> int | None:
        return self._index.get(c)

    @cached_property
    def _index(self) -> dict[Coord, int]:
        return {c: i for i, c in enumerate(self.coords)}

    @cached_property
    def _ray_positions(self) -> dict[RaySpec, tuple[int, ...]]:
        """``RaySpec.positions_in``'s memo: each ray's window vertices."""
        return {}


def _window_box(w: World, depth: int, cap: int) -> tuple[int, int, int, int]:
    """The window as a coordinate rectangle ``(x0, x1, y0, y1)``, inclusive.

    WindowCapExceeded when it holds more than ``cap`` vertices; the count
    comes from the rectangle alone, so an oversized window is refused
    before any coordinate is built.
    """
    x0, x1 = (-depth, depth) if w.row is None else (0, w.row.n - 1)
    y0 = 0 if w.half else -depth
    size = (x1 - x0 + 1) * (depth - y0 + 1)
    if size > cap:
        raise WindowCapExceeded(
            f"window at depth {depth} has {size} vertices, cap {cap}")
    return x0, x1, y0, depth


def _window_coords(w: World, depth: int, cap: int) -> list[Coord]:
    """The window's coordinates in lexicographic order."""
    x0, x1, y0, y1 = _window_box(w, depth, cap)
    return [(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)]


def truncate(w: World, depth: int, cap: int = DEFAULT_WINDOW_CAP) -> Truncation:
    """Finite window of all coordinates within ``depth``."""
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    coords = _window_coords(w, depth, cap)
    index = {c: i for i, c in enumerate(coords)}
    edges = []
    for i, c in enumerate(coords):
        for nb in world_neighbors(w, c):
            j = index.get(nb)
            if j is not None and i < j:
                edges.append((i, j))
    g = Graph.from_edges(len(coords), edges)
    return Truncation(w, depth, g, tuple(coords))


def chebyshev_ball(t: Truncation, radius: int) -> frozenset[int]:
    """Window vertex indices within ``radius`` of the origin in the world norm."""
    return frozenset(i for i, c in enumerate(t.coords)
                     if world_norm(t.world, c) <= radius)


# ---------------------------------------------------------------------------
# Rays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RaySpec:
    """An eventually periodic one-way infinite path.

    ``prefix`` lists the first coordinates; afterwards the ``steps`` delta
    cycle repeats forever.  Three requirements keep finite-window analysis
    sound: the window norm never decreases along the ray (so the in-window
    part is always a contiguous initial segment), the net displacement
    per cycle is nonzero (so the ray diverges), and it stays in the world
    (no sideways drift on a finite row, no descent on N levels).  The
    first two are checked on a probe of the first few cycles; with the
    third, the probe vouches for every later cycle.
    """

    world: World
    prefix: tuple[Coord, ...]
    steps: tuple[Coord, ...]
    index: int

    def __post_init__(self):
        if not self.prefix:
            raise ValidationError("ray prefix must contain at least one coordinate")
        if not self.steps:
            raise ValidationError("ray needs at least one periodic step")
        for c in self.prefix:
            if not world_contains(self.world, c):
                raise ValidationError(f"prefix coordinate {c} outside the world")
        net = (sum(dx for dx, _ in self.steps), sum(dy for _, dy in self.steps))
        if net == (0, 0):
            raise ValidationError("period cycle must have nonzero net displacement")
        if (self.world.row is not None and net[0]) or (self.world.half and net[1] < 0):
            raise ValidationError(f"period cycle's net displacement {net} leaves the world")
        probe = list(itertools.islice(
            self._walk(), len(self.prefix) + 4 * len(self.steps) + 1))
        for a, b in zip(probe, probe[1:]):
            if b not in world_neighbors(self.world, a):
                raise ValidationError(f"ray coordinates {a} and {b} not adjacent")
        if len(set(probe)) != len(probe):
            raise ValidationError("ray coordinates must be injective")
        norms = [world_norm(self.world, c) for c in probe]
        for a, b in zip(norms, norms[1:]):
            if b < a:
                raise ValidationError("window norm must be non-decreasing along the ray")

    def _walk(self) -> Iterator[Coord]:
        """The ray's coordinates: the prefix, then the step cycle forever."""
        yield from self.prefix
        x, y = self.prefix[-1]
        for dx, dy in itertools.cycle(self.steps):
            x += dx
            y += dy
            yield x, y

    def coords_in_window(self, w_depth: int) -> list[Coord]:
        """Coordinates of the contiguous initial segment inside the window:
        the ray's walk taken while its window norm stays within the depth."""
        return list(itertools.takewhile(
            lambda c: world_norm(self.world, c) <= w_depth, self._walk()))

    def positions_in(self, t: Truncation) -> list[int]:
        """Window vertex indices of the in-window initial segment; the
        window must be one of this ray's world.

        Memoized per window: the ray is walked once per window, keyed by
        the ray itself (its world included), and a refusal is never
        stored.  Each call returns a fresh list."""
        pos = t._ray_positions.get(self)
        if pos is None:
            if self.world != t.world:
                raise ValidationError(
                    f"ray {self.index} belongs to a {self.world.kind} world, "
                    f"not to this window of a {t.world.kind} world")
            out = []
            for c in self.coords_in_window(t.depth):
                i = t.index_of(c)
                if i is None:
                    raise ValidationError(f"ray coordinate {c} missing from window")
                out.append(i)
            pos = t._ray_positions[self] = tuple(out)
        return list(pos)


def _full_grid_ray(w: World, i: int) -> RaySpec:
    """Four directions cycling with parallel offsets; the families live in
    four pairwise disjoint closed cones, so any m of them are disjoint."""
    direction, j = i % 4, i // 4
    if direction == 0:    # up, column x = -j
        return RaySpec(w, ((-j, 1),), ((0, 1),), i)
    if direction == 1:    # right, row y = j
        return RaySpec(w, ((1, j),), ((1, 0),), i)
    if direction == 2:    # down, column x = j + 1
        return RaySpec(w, ((j + 1, -1),), ((0, -1),), i)
    return RaySpec(w, ((-1, -j),), ((-1, 0),), i)  # left, row y = -j


def _hex_zigzag_ray(w: World, i: int) -> RaySpec:
    """Zigzag between columns 2i and 2i+1, one row per two steps.

    Starts at height 2i+1 so the window norm is the row throughout and the
    rung parities line up.
    """
    x = 2 * i
    prefix = ((x, 2 * i + 1),)
    steps = ((1, 0), (0, 1), (-1, 0), (0, 1))
    return RaySpec(w, prefix, steps, i)


def canonical_rays(w: World, m: int) -> list[RaySpec]:
    """m pairwise disjoint eventually periodic rays converging to one end.

    The four directional families (with parallels) in the full grid;
    zigzag column pairs in the brick wall; elsewhere one vertical ray
    {x} x levels per row position: columns x = 0..m-1 in the half grid
    and the products, the handle rays followed by the spine in the
    dominated ray.  Raises when m exceeds the world's canonical supply.
    """
    if m < 1:
        raise ValidationError("m must be >= 1")
    if w.kind == "full-grid":
        return [_full_grid_ray(w, i) for i in range(m)]
    if w.kind == "hex-half-grid":
        return [_hex_zigzag_ray(w, i) for i in range(m)]
    dominated = w.kind == "dominated-ray"
    if w.row is not None and m > w.row.n:
        raise ValidationError(
            f"{w.kind if dominated else 'product'} world supplies at most "
            f"{w.row.n} canonical rays")
    xs = [*range(1, m), 0] if dominated else range(m)
    return [RaySpec(w, ((x, 0),), ((0, 1),), i) for i, x in enumerate(xs)]
