"""Linkages between ray families, and their realization from pebble moves.

A linkage re-routes a family of rays R into a family S: walk i rides its
own ray to a switch point, follows a finite connector path, then rides the
tail of the target ray out of the window.  The walks must be pairwise
disjoint, and a linkage "after X" confines X to the segments before
the switch points.

``find_linkage`` reduces a query once: X and the forced ray prefixes fix
each source ray's switch point and a blocked set.  A pairing sigma only
pairs ends, switch point i with the last window vertex of target ray
sigma(i), leaving vertex-disjoint paths between fixed terminals.  On
grid windows a pairing whose terminals interleave around the rim is
refuted at once by planarity.  Otherwise the paths are routed by
negotiated congestion, each walk along a cheapest path found by A* on
hop distances, and the routed linkage is returned once ``check_linkage``
accepts it; a pair cut off from its other end refutes the pairing before
any routing.  A pairing the router cannot route goes to the exact
frontier DP of ``disjoint_paths``: a refutation rules the pairing out,
and a pairing the DP proves feasible, or cannot decide within its state
cap, ends the search in ResourceCapError, a typed refusal rather than an
answer.  Infeasibility is always reported as depth-limited: a window
that admits no linkage says nothing about deeper windows.

``check_linkage`` re-walks a claimed linkage vertex by vertex and is
deliberately independent of the search: it reads the rays' window
positions, which ``RaySpec.positions_in`` computes once per window, never
the search's answer.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from operator import index

from .errors import (LinkageCheckError, NoLinkageError, ResourceCapError,
                     ValidationError)
from .disjoint_paths import DP_STATE_CAP, disjoint_paths_exist
from .pebbles import MoveSequence, validate_move_sequence
from .rays import RayGraph, check_disjoint_rays
from .worlds import RaySpec, Truncation

# rip-up-and-reroute rounds before the router gives a pairing to the DP
ROUTE_ROUNDS = 30

# pairings a sigma-free search examines before it refuses: at least 9!, so
# nine rays still answer; about 18 microseconds each on a rim refutation
PAIRING_BUDGET = 500_000


@dataclass
class Linkage:
    """Result of re-routing: ``sigma`` maps source list position to target
    list position; ``paths[i]`` holds the window vertices of walk i's
    connector from switch point to landing point inclusive, empty when the
    walk just rides its own ray; ``after`` is the avoided vertex set X."""

    sigma: dict[int, int]
    paths: dict[int, tuple[int, ...]]
    after: frozenset[int]

    def to_json_dict(self, t: Truncation) -> dict:
        return {
            "sigma": {str(i): j for i, j in sorted(self.sigma.items())},
            "paths": {str(i): [list(t.coords[v]) for v in p]
                      for i, p in sorted(self.paths.items())},
            "after": [list(t.coords[v]) for v in sorted(self.after)],
        }


def _ray_window_positions(t: Truncation, r: RaySpec) -> list[int]:
    pos = r.positions_in(t)
    if not pos:
        raise ValidationError(f"ray {r.index} does not enter the window")
    return pos


def _family_positions(t: Truncation, rays: list[RaySpec]) -> list[list[int]]:
    """Each ray's window vertices, refused unless the rays are disjoint."""
    pos = [_ray_window_positions(t, r) for r in rays]
    check_disjoint_rays(rays, pos, t.depth)
    return pos


def _window_set(t: Truncation, x_vertices) -> frozenset[int]:
    """X as a set of window vertices, refused unless each one is an integer
    in range."""
    try:
        # plain ints: 1.0 == 1, but a float cannot index the window's coords
        X = frozenset(map(index, x_vertices))
    except TypeError:
        raise ValidationError(f"X vertices must be integers, got {x_vertices!r}") from None
    for v in X:
        if not (0 <= v < t.graph.n):
            raise ValidationError(f"X vertex {v} outside the window")
    return X


def _validate_families(t: Truncation, source: list[RaySpec], target: list[RaySpec]):
    src_pos, tgt_pos = _family_positions(t, source), _family_positions(t, target)
    for i, rp in enumerate(src_pos):
        for j, sp in enumerate(tgt_pos):
            if rp != sp and set(rp) & set(sp):
                raise ValidationError(
                    f"source ray {i} and target ray {j} overlap without being identical; "
                    "families must be vertex-disjoint or share whole rays")
    return src_pos, tgt_pos


# ---------------------------------------------------------------------------
# Fixed pairings: reduce to disjoint paths, route, refute
# ---------------------------------------------------------------------------

def _rim_chords_cross(t: Truncation, terminals: list[tuple[int, int]]) -> bool:
    """True when two terminal pairs interleave around a grid window's rim.

    Grid windows (and the brick wall, a subgraph of the half-grid drawing)
    are drawn inside their rim rectangle.  Two disjoint paths whose four
    ends lie on that rectangle in interleaved cyclic order would have to
    cross (Seymour 1980, Thomassen 1980, on the outer face): infeasible.
    Worlds on a finite row get False: they prove nothing.
    """
    if t.world.row is not None:
        return False
    # window coordinates run lexicographically over the whole rectangle
    (x0, y0), (x1, y1) = t.coords[0], t.coords[-1]
    w, h = x1 - x0, y1 - y0

    def rim_pos(v: int) -> int | None:
        # bottom, right, top, left: counterclockwise around the rectangle
        x, y = t.coords[v]
        if y == y0:
            return x - x0
        if x == x1:
            return w + y - y0
        if y == y1:
            return w + h + x1 - x
        if x == x0:
            return 2 * w + h + y1 - y
        return None

    chords = []
    for s, e in terminals:
        ps, pe = rim_pos(s), rim_pos(e)
        if s != e and ps is not None and pe is not None:
            chords.append((min(ps, pe), max(ps, pe)))
    return any(a < c < b < f or c < a < f < b
               for (a, b), (c, f) in itertools.combinations(chords, 2))


def _reduce(src_pos: list[list[int]], X: frozenset[int]):
    """The part of a query that no pairing changes.

    A walk is its forced prefix (its source ray up to the last X hit)
    followed by any simple path from the next ray vertex, its earliest
    switch point, to the last in-window vertex of its target ray: once X
    and the forced prefixes are removed from the graph, the remaining
    freedom is exactly a family of vertex-disjoint paths between fixed
    terminals.  When X holds the ray's last window vertex, that vertex is
    the switch point and only a pure ride remains, a single-vertex path on
    it.  Returns ``(switch, blocked)``: each source ray's switch point, and
    X plus the forced prefixes minus the switch points.
    """
    switch: list[int] = []
    blocked: set[int] = set(X)
    for rp in src_pos:
        last_x = max((p for p, v in enumerate(rp) if v in X), default=-1)
        start = min(last_x + 1, len(rp) - 1)
        switch.append(rp[start])
        blocked.update(rp[:start])
    return switch, frozenset(blocked.difference(switch))


def _terminals(switch: list[int], tgt_pos: list[list[int]], X: frozenset[int],
               blocked: frozenset[int], sigma: dict[int, int]):
    """Switch point i paired with the last window vertex of target ray
    sigma[i]; None when a switch point in X is not a pure ride (rays are
    disjoint or identical, so a pure ride's ends coincide), two walks need
    the same endpoint, or X or a forced prefix claims an endpoint."""
    terminals = [(s, tgt_pos[sigma[i]][-1]) for i, s in enumerate(switch)]
    ends = [v for s, e in terminals for v in {s, e}]
    if (any(s in X and s != e for s, e in terminals)
            or len(set(ends)) < len(ends) or not blocked.isdisjoint(ends)):
        return None
    return terminals


def _route(adj, terminals: list[tuple[int, int]], blocked: frozenset[int]):
    """Vertex-disjoint paths joining each terminal pair, False, or None.

    Negotiated congestion as in PathFinder (McMurchie & Ebeling, FPGA
    1995).  Each round rips up every walk in turn and reroutes it along its
    cheapest path, where entering vertex v costs
    ``(1 + history[v]) * (2 + weight * sharers[v])`` and ``sharers[v]``
    counts the other walks on v: twice PathFinder's cost with present
    factor ``weight / 2``, so costs stay integers.  A round that ends with
    shared vertices raises their history and doubles ``weight`` (1, 2, 4,
    ...), so walks learn to go round the contested vertices.  Cheapest
    paths are found by A* on hop distances to the pair's end, computed
    once per pair.  Returns the paths, one per pair, vertex-disjoint and
    off ``blocked``; or False, a refutation found before any routing: some
    pair has no path avoiding ``blocked`` and the other pairs' ends, which
    its path may not touch; or None when the budget of ROUTE_ROUNDS ran
    out, which proves nothing.
    """
    ends = {v for pair in terminals for v in pair}
    avoid = [blocked | (ends - {s, e}) for s, e in terminals]
    bounds = [_hop_bound(adj, s, e, av) for (s, e), av in zip(terminals, avoid)]
    if None in bounds:
        return False
    history = [0] * len(adj)
    sharers = [0] * len(adj)
    paths: list[list[int]] = [[] for _ in terminals]
    weight = 1
    for _ in range(ROUTE_ROUNDS):
        for i, (s, e) in enumerate(terminals):
            for v in paths[i]:
                sharers[v] -= 1
            paths[i] = _cheapest_path(adj, s, e, avoid[i], history, sharers,
                                      weight, bounds[i])
            for v in paths[i]:
                sharers[v] += 1
        shared = {v for p in paths for v in p if sharers[v] > 1}
        if not shared:
            return paths
        for v in shared:
            history[v] += 1
        weight *= 2
    return None


def _hop_bound(adj, s: int, e: int, avoid: set[int]) -> list[int] | None:
    """Hop distances to e over the graph minus ``avoid``, or None when s
    cannot reach e.  The search stops once the layer of s, at distance D,
    is complete, and every vertex beyond it gets D + 1: entering a vertex
    costs at least 1, so this bound on the router's cost is consistent."""
    dist = {e: 0}
    layer = [e]
    while s not in dist:
        if not layer:
            return None
        nxt = []
        for u in layer:
            for w in adj[u]:
                if w not in dist and w not in avoid:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        layer = nxt
    h = [dist[s] + 1] * len(adj)
    for v, d in dist.items():
        h[v] = d
    return h


def _cheapest_path(adj, s: int, e: int, avoid: set[int], history: list[int],
                   sharers: list[int], weight: int, h: list[int]) -> list[int]:
    """A* from s to e under the router's vertex costs, doubled: entering v
    costs ``(1 + history[v]) * (2 + weight * sharers[v])``, and a hop of
    the bound ``h`` counts 2.  ``h`` comes from ``_hop_bound``, which has
    shown e reachable; it is consistent, so no vertex is expanded twice
    and the path is a cheapest one.  Distances and parents are lists
    indexed by window vertex.

    Each heap entry is one int, ``(f << DB | d) << VB | w``, which orders
    like the tuple (f, d, w).  VB bits hold any vertex.  DB bits hold any
    d, the cost of at most n entered vertices: ``_route`` raises a
    history once a round, so ``history[v] <= ROUTE_ROUNDS``, and fewer
    than n walks share v, so the round's ``weight`` bounds a vertex cost."""
    n = len(adj)
    vb = n.bit_length()
    db = (n * (1 + ROUTE_ROUNDS) * (2 + weight * n)).bit_length()
    vmask, dmask = (1 << vb) - 1, (1 << db) - 1
    dist = [1 << db] * n
    parent = [-1] * n
    dist[s] = 0
    heap = [(2 * h[s] << db) << vb | s]
    while True:
        key = heapq.heappop(heap)
        u = key & vmask
        if u == e:
            path = [u]
            while u != s:
                u = parent[u]
                path.append(u)
            return path[::-1]
        d = key >> vb & dmask
        if d > dist[u]:
            continue
        for w in adj[u]:
            if w in avoid:
                continue
            nd = d + (1 + history[w]) * (2 + weight * sharers[w])
            if nd < dist[w]:
                dist[w] = nd
                parent[w] = u
                heapq.heappush(heap, ((nd + 2 * h[w]) << db | nd) << vb | w)


def _connector(path: list[int], tgt: list[int]) -> tuple[int, ...]:
    """Cut a routed path where it starts to ride its target ray to the rim.

    The path ends on ``tgt[-1]``; the connector keeps everything up to the
    first vertex of that ride.  A path that lies wholly on the target ray
    starts on it, so the walk stays on its own ray: a pure ride, with an
    empty connector.
    """
    land, b = len(path) - 1, len(tgt) - 1
    while land > 0 and b > 0 and path[land - 1] == tgt[b - 1]:
        land -= 1
        b -= 1
    return () if land == 0 else tuple(path[:land + 1])


# ---------------------------------------------------------------------------
# Search over pairings
# ---------------------------------------------------------------------------

def find_linkage(t: Truncation, source: list[RaySpec], target: list[RaySpec],
                 x_vertices: set[int] = frozenset(),
                 sigma: dict[int, int] | None = None) -> Linkage:
    """Find a linkage after X inside the window.

    With ``sigma`` supplied the returned linkage induces exactly that
    injection; with ``sigma`` omitted every injection is tried in
    ``itertools.permutations`` order, identity first.  The query is reduced
    once, to a switch point per source ray and a blocked set; a pairing only
    pairs ends, which leaves disjoint paths between fixed terminals.  A
    pairing whose terminals interleave around the rim of a grid window is
    refuted by the planarity certificate; otherwise it is routed (A* per
    walk, under negotiated congestion), and a routed witness passes
    ``check_linkage`` before it is returned, while a pair the router finds
    cut off refutes the pairing.  Every pairing is routed or refuted
    before the frontier DP runs: only when none routed does the DP decide
    the pairings on which routing ran out of rounds.
    NoLinkageError means every pairing was refuted, exactly for this
    window and reported as depth-limited, never as a statement about the
    infinite world.
    ResourceCapError means some pairing was neither routed nor refuted;
    its message says whether the DP proved such a pairing feasible (the
    router found no witness in ROUTE_ROUNDS) or ran past its state cap.
    A sigma-free search that examines PAIRING_BUDGET pairings without an
    answer also raises it, with the count in its message.
    """
    nR, nS = len(source), len(target)
    if nR == 0:
        raise ValidationError("source family is empty")
    if nR > nS:
        raise ValidationError(f"need |source| <= |target|, got {nR} > {nS}")
    X = _window_set(t, x_vertices)
    if sigma is not None:
        try:
            # plain ints: 1.0 == 1, but a float cannot index a ray family
            sigma = {index(i): index(j) for i, j in sigma.items()}
        except TypeError:
            raise ValidationError(f"sigma entries must be integers, got {sigma!r}") from None
        if sorted(sigma) != list(range(nR)):
            raise ValidationError("sigma must map every source position")
        if len(set(sigma.values())) != nR:
            raise ValidationError("sigma must be injective")
        for j in sigma.values():
            if not (0 <= j < nS):
                raise ValidationError(f"sigma target {j} out of range")
    src_pos, tgt_pos = _validate_families(t, source, target)
    adj = t.graph.adjacency()
    switch, blocked = _reduce(src_pos, X)
    sigmas = ([sigma] if sigma is not None else
              (dict(enumerate(p)) for p in itertools.permutations(range(nS), nR)))
    missed: list[list[tuple[int, int]]] = []    # routing ran out of rounds
    for examined, sg in enumerate(sigmas):
        if examined == PAIRING_BUDGET:
            raise ResourceCapError(
                f"linkage at window depth {t.depth} undecided after {examined} "
                f"of {math.perm(nS, nR)} pairings, the budget PAIRING_BUDGET")
        terminals = _terminals(switch, tgt_pos, X, blocked, sg)
        if terminals is None or _rim_chords_cross(t, terminals):
            continue
        paths = _route(adj, terminals, blocked)
        if paths is None:
            missed.append(terminals)
        elif paths is not False:
            lk = Linkage(sigma=sg, after=X,
                         paths={i: _connector(p, tgt_pos[sg[i]])
                                for i, p in enumerate(paths)})
            check_linkage(t, source, target, lk)
            return lk
    unresolved: set[str] = set()
    for terminals in missed:
        try:
            feasible = disjoint_paths_exist(adj, terminals, blocked)
        except ResourceCapError:
            unresolved.add(f"a pairing is undecided within {DP_STATE_CAP} DP states")
            continue
        if feasible:
            unresolved.add("a pairing is feasible by the exact DP, but the "
                           f"router found no witness in {ROUTE_ROUNDS} rounds")
    if unresolved:
        raise ResourceCapError(
            f"linkage at window depth {t.depth} neither routed nor refuted: "
            + "; ".join(sorted(unresolved)))
    raise NoLinkageError(
        f"no linkage at window depth {t.depth} (search exhausted)", t.depth)


# ---------------------------------------------------------------------------
# Independent checker
# ---------------------------------------------------------------------------

def _ints(values, what: str) -> list[int]:
    """``values`` as plain ints, as find_linkage takes them: 1.0 == 1, but
    a float cannot index a ray family or the window's coords."""
    try:
        return list(map(index, values))
    except TypeError:
        try:
            bad = next((v for v in values if not hasattr(v, "__index__")), values)
        except TypeError:
            raise LinkageCheckError(f"{what} list {values!r} is not iterable") from None
        raise LinkageCheckError(f"{what} {bad!r} is not an integer") from None


def check_linkage(t: Truncation, source: list[RaySpec], target: list[RaySpec],
                  linkage: Linkage) -> list[list[int]]:
    """Verify a linkage literally and return its walks (window vertex lists).

    Raises LinkageCheckError on any violation.  Checks: sigma's keys and
    values, paths' keys and X and connector vertices are integers; sigma
    and paths are keyed by source positions, and sigma is an injection
    into the target positions; X and every connector vertex lie in the
    window; every walk is a path in the window (adjacent consecutive
    vertices, no repeats); walks are pairwise vertex-disjoint; every walk
    leaves the window along its target ray; X meets each source ray only
    before the switch point and meets no other walk vertex.
    """
    sigma = dict(zip(_ints(linkage.sigma, "sigma key"),
                     _ints(linkage.sigma.values(), "sigma value")))
    paths = dict(zip(_ints(linkage.paths, "paths key"),
                     [_ints(p, "connector vertex") for p in linkage.paths.values()]))
    X = frozenset(_ints(linkage.after, "X vertex"))
    src_pos = [_ray_window_positions(t, r) for r in source]
    tgt_pos = [_ray_window_positions(t, r) for r in target]
    for name, keys in (("sigma", sigma), ("paths", paths)):
        for i in keys:
            if i not in range(len(source)):
                raise LinkageCheckError(f"{name} key {i!r} is not a source position")
    if len(set(sigma.values())) != len(sigma):
        raise LinkageCheckError("sigma is not injective")
    for v in X:
        if not 0 <= v < t.graph.n:
            raise LinkageCheckError(f"X vertex {v} outside the window")
    # walk i rides its source ray to the switch point src_pos[i][switch[i]],
    # follows its connector, then rides its target ray beyond the landing
    walks: list[list[int]] = []
    switch: list[int] = []
    for i in range(len(source)):
        if i not in sigma:
            raise LinkageCheckError(f"walk {i} missing from sigma")
        j = sigma[i]
        if not 0 <= j < len(target):
            raise LinkageCheckError(f"walk {i}: sigma target {j} out of range")
        path = paths.get(i, [])
        if not path:
            if src_pos[i] != tgt_pos[j]:
                raise LinkageCheckError(
                    f"walk {i} has an empty connector but rides a different ray")
            walks.append(list(src_pos[i]))
            switch.append(len(src_pos[i]) - 1)
            continue
        for v in path:
            if not 0 <= v < t.graph.n:
                raise LinkageCheckError(f"walk {i}: connector vertex {v} outside the window")
        if path[0] not in src_pos[i]:
            raise LinkageCheckError(f"walk {i}: connector must start on its source ray")
        if path[-1] not in tgt_pos[j]:
            raise LinkageCheckError(f"walk {i}: connector must end on its target ray")
        a = src_pos[i].index(path[0])
        b = tgt_pos[j].index(path[-1])
        # ends at tgt_pos[j][-1], as a pure ride does: no walk can miss the rim
        walks.append(src_pos[i][:a] + path + tgt_pos[j][b + 1:])
        switch.append(a)
    adj = t.graph.adjacency()
    for i, walk in enumerate(walks):
        if len(set(walk)) != len(walk):
            raise LinkageCheckError(f"walk {i} repeats a vertex")
        for u, v in zip(walk, walk[1:]):
            if v not in adj[u]:
                raise LinkageCheckError(
                    f"walk {i}: {t.coords[u]} and {t.coords[v]} not adjacent")
        a = switch[i]
        if paths.get(i) and src_pos[i][a] in X:
            raise LinkageCheckError(f"walk {i}: its switch point lies in X")
        # X on the source ray must sit inside the prefix up to the switch point
        if any(v in X for v in src_pos[i][a + 1:]):
            raise LinkageCheckError(
                f"walk {i}: X meets its source ray beyond the switch point")
        # the walk has no repeats, so its first a + 1 vertices are that prefix
        for v in walk[a + 1:]:
            if v in X:
                raise LinkageCheckError(
                    f"walk {i} uses X vertex {t.coords[v]} beyond its prefix")
    for a_i, b_i in itertools.combinations(range(len(walks)), 2):
        inter = set(walks[a_i]) & set(walks[b_i])
        if inter:
            v = min(inter)
            raise LinkageCheckError(
                f"walks {a_i} and {b_i} share vertex {t.coords[v]}")
    return walks


# ---------------------------------------------------------------------------
# Realizing a pebble move sequence as a linkage
# ---------------------------------------------------------------------------

def realize_transition(t: Truncation, rays: list[RaySpec], moves: MoveSequence,
                       x_vertices: set[int] = frozenset(), *,
                       rg: RayGraph) -> Linkage:
    """Compose one single-switch linkage per pebble move.

    ``moves`` is a sequence of game states on ray positions (indices into
    ``rays``), checked by ``validate_move_sequence`` on the caller's ray
    graph ``rg`` read over those positions: each move sends one pebble from
    its ray to an unoccupied ray adjacent in ``rg``.  ``rg`` must be the ray
    graph of ``rays`` (the same ray indices in the same order), else
    ValidationError; its start depth and window cap are the caller's
    choice.  Every move consumes one connecting path strictly beyond the
    region used so far, so the composite walks stay disjoint.  The returned
    linkage maps source position i (the i-th entry of the initial state) to
    the i-th entry of the final state, and passes ``check_linkage``.  When
    this greedy composition runs out of room, ``find_linkage`` decides the
    induced pairing instead, so a NoLinkageError is exact for the window,
    as there.
    """
    if rg.indices != tuple(r.index for r in rays):
        raise ValidationError(
            f"ray graph is over rays {list(rg.indices)}, "
            f"not {[r.index for r in rays]}")
    validate_move_sequence(rg._position_graph, moves)

    X = _window_set(t, x_vertices)
    ray_pos = _family_positions(t, rays)
    source = [rays[s] for s in moves[0]]
    sigma = dict(enumerate(moves[-1]))
    paths = _greedy_paths(t, ray_pos, moves, X)
    if paths is None:
        # the greedy routing proves nothing when it fails; the exact engine
        # finds a linkage with the same induced pairing or refutes it
        return find_linkage(t, source, rays, X, sigma)
    lk = Linkage(sigma=sigma, paths=paths, after=X)
    check_linkage(t, source, rays, lk)
    return lk


def _greedy_paths(t: Truncation, ray_pos: list[list[int]], moves: MoveSequence,
                  X: frozenset[int]) -> dict[int, tuple[int, ...]] | None:
    """One connector per move, each by BFS strictly beyond the region used
    so far, composed per slot into the path from its first switch vertex
    to its final landing that rides each intermediate ray in between.
    None when some move finds no room."""
    m, k = len(ray_pos), len(moves[0])
    last_x = [max((p for p, v in enumerate(pos) if v in X), default=-1)
              for pos in ray_pos]
    # connectors run off the rays and X, and off what earlier moves used
    off_limits = X.union(*ray_pos)
    adj = t.graph.adjacency()

    cur_pos = [-1] * k                   # last committed position on own ray
    used_bound = [-1] * m                # highest committed position per ray
    committed: set[int] = set()
    paths: list[list[int]] = [[] for _ in range(k)]

    for s1, s2 in zip(moves, moves[1:]):
        l = next(i for i in range(k) if s1[i] != s2[i])
        a, b = s1[l], s2[l]
        src_from = max(cur_pos[l], last_x[a] + 1)
        dst_from = max(used_bound[b], last_x[b]) + 1
        srcs = {ray_pos[a][p]: p for p in range(src_from, len(ray_pos[a]))
                if ray_pos[a][p] not in committed or p == cur_pos[l]}
        dsts = {ray_pos[b][p]: p for p in range(dst_from, len(ray_pos[b]))}
        if not srcs or not dsts:
            return None
        # BFS from all allowed switch points to the nearest allowed landing
        parent: dict[int, int | None] = {v: None for v in sorted(srcs)}
        queue = deque(sorted(srcs))
        hit = None
        while queue and hit is None:
            u = queue.popleft()
            for w in adj[u]:
                if w in parent:
                    continue
                if w in dsts:
                    parent[w] = u
                    hit = w
                    break
                if w not in off_limits and w not in committed:
                    parent[w] = u
                    queue.append(w)
        if hit is None:
            return None
        conn: list[int] = []
        node: int | None = hit
        while node is not None:
            conn.append(node)
            node = parent[node]
        conn.reverse()        # switch vertex ... landing vertex
        a_pos = srcs[conn[0]]
        b_pos = dsts[conn[-1]]
        ride = ray_pos[a][max(cur_pos[l], 0):a_pos + 1]
        committed.update(ride)
        committed.update(conn)
        # a slot's first move starts at its switch vertex; a later one rides
        # from the previous landing up to the switch vertex, which the
        # connector repeats as conn[0]
        first = cur_pos[l] + 1 if paths[l] else a_pos
        paths[l] += ray_pos[a][first:a_pos + 1] + conn[1:]
        used_bound[a] = max(used_bound[a], a_pos)
        used_bound[b] = max(used_bound[b], b_pos)
        cur_pos[l] = b_pos
    return {i: tuple(p) for i, p in enumerate(paths)}
