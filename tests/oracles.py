"""Reference oracles for the test suite.

Each one computes its answer by brute force or straight from the
definition, on a different path from the library routine it checks.
"""

import heapq
import itertools
from collections import defaultdict, deque

from pebblekit.errors import StateCapExceeded
from pebblekit.graphs import (Graph, graph_from_masks, mask_adjacency,
                              mask_connected, vertex_pairs)
from pebblekit.pebbles import DEFAULT_STATE_CAP, _config_group
from pebblekit.permgroups import PermGroup
from pebblekit.rays import ANNULI, RING_WIDTH, RayGraph
from pebblekit.structure import _find_witness
from pebblekit.worlds import (DEFAULT_WINDOW_CAP, _window_coords,
                              world_neighbors, world_norm)


def labelled_class(g: Graph, start: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The reachability class of ``start`` by definition: breadth-first
    search over labelled states, one pebble slid onto a free neighbour
    per move."""
    adj = g.adjacency()
    seen = {tuple(start)}
    queue = deque(seen)
    while queue:
        s = queue.popleft()
        for i, v in enumerate(s):
            for w in adj[v]:
                if w not in s:
                    t = s[:i] + (w,) + s[i + 1:]
                    if t not in seen:
                        seen.add(t)
                        queue.append(t)
    return seen


def labelled_distance(g: Graph, start: tuple[int, ...], goal: tuple[int, ...],
                      cap: int = DEFAULT_STATE_CAP) -> int | None:
    """The fewest moves from ``start`` to ``goal`` by breadth-first search
    over labelled states, or None if ``goal`` is unreachable.  Stops as
    soon as ``goal`` is generated; raises StateCapExceeded before holding
    more than ``cap`` states."""
    start, goal = tuple(start), tuple(goal)
    if start == goal:
        return 0
    adj = g.adjacency()
    dist = {start: 0}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for i, v in enumerate(s):
            for w in adj[v]:
                if w in s:
                    continue
                t = s[:i] + (w,) + s[i + 1:]
                if t in dist:
                    continue
                if len(dist) >= cap:
                    raise StateCapExceeded(
                        f"state search exceeded cap of {cap} states")
                dist[t] = dist[s] + 1
                if t == goal:
                    return dist[t]
                queue.append(t)
    return None


def harvest_group(g: Graph, start: tuple[int, ...]) -> PermGroup:
    """The pebble-permutation group of ``start`` by definition: every
    reachable labelled state over the vertex set of ``start`` is one
    achieved permutation."""
    slot_of = {v: i for i, v in enumerate(start)}
    base = frozenset(start)
    return PermGroup(len(start), (tuple(slot_of[x] for x in s)
                                  for s in labelled_class(g, start)
                                  if frozenset(s) == base))


def labelled_sweep(n: int) -> tuple[int, int, int]:
    """(checked, non-win, failures) of the structure sweep over every
    connected labelled graph on n vertices, one edge bitmask at a time,
    with the same downward scan in k as the class sweep."""
    pairs = vertex_pairs(n)
    checked = non_win = failures = 0
    for mask in range(1 << len(pairs)):
        adj = mask_adjacency(n, mask, pairs)
        if not mask_connected(n, adj):
            continue
        for k in range(n - 2, 0, -1):
            # a win: the group at the base state is S_k
            if _config_group(adj, n, tuple(range(k)))[1].is_symmetric():
                checked += k
                break
            checked += 1
            non_win += 1
            failures += _find_witness(graph_from_masks(adj), k) is None
    return checked, non_win, failures


def component_count(g: Graph) -> int:
    adj = g.adjacency()
    seen: set[int] = set()
    count = 0
    for s in range(g.n):
        if s in seen:
            continue
        count += 1
        seen.add(s)
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def bare_paths_by_definition(g: Graph) -> list[tuple[int, ...]]:
    """Every simple path of g whose interior vertices have degree 2 and
    that neither end can extend, each stored as the lesser of its vertex
    sequence and the reverse, sorted.  An end extends onto a neighbour off
    the path when it would become an interior vertex of degree 2, or when
    the path is that one vertex."""
    adj = g.adjacency()

    def extends(path: list[int], end: int) -> bool:
        return ((len(path) == 1 or len(adj[end]) == 2)
                and any(w not in path for w in adj[end]))

    found = set()
    stack = [[v] for v in range(g.n)]
    while stack:
        path = stack.pop()
        if not extends(path, path[0]) and not extends(path, path[-1]):
            found.add(min(tuple(path), tuple(path[::-1])))
        if len(path) == 1 or len(adj[path[-1]]) == 2:
            stack.extend(path + [w] for w in adj[path[-1]] if w not in path)
    return sorted(found)


def contains_subgraph(rg, g_edges) -> bool:
    """Does the ray graph contain the given edge set under index identity?"""
    norm = {(min(a, b), max(a, b)) for a, b in rg.edges}
    return all((min(a, b), max(a, b)) in norm for a, b in g_edges)


def _shell_has_path(w, shell, src, dst, forbid) -> bool:
    """Is there a path inside ``shell`` from src to dst avoiding forbid?
    Breadth-first search over coordinates."""
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


def _edge_set_at(w, rings, traces, d0) -> frozenset[tuple[int, int]]:
    """Annulus-rule edges over list positions; ``rings[n]`` holds the
    window coordinates of norm n."""
    alive: set[tuple[int, int]] = set()
    for t in range(1, ANNULI + 1):
        lo = d0 + (t - 1) * RING_WIDTH
        shell = set().union(*rings[lo + 1:lo + RING_WIDTH + 1])
        shell_traces = [tr & shell for tr in traces]
        if t == 1:
            alive = set(itertools.combinations(
                [i for i, tr in enumerate(shell_traces) if tr], 2))
        on_rays = set().union(*shell_traces)
        for (i, j) in list(alive):
            others = on_rays - shell_traces[i] - shell_traces[j]
            if not _shell_has_path(w, shell, shell_traces[i], shell_traces[j], others):
                alive.discard((i, j))
    return frozenset(alive)


def coordinate_ray_graph(w, rays, d0: int) -> RayGraph:
    """The annulus-rule ray graph by breadth-first search over the
    coordinates of each shell, grouped by norm, for every pair of rays."""
    deepest = d0 + 1 + ANNULI * RING_WIDTH
    rings: list[list] = [[] for _ in range(deepest + 1)]
    for c in _window_coords(w, deepest, DEFAULT_WINDOW_CAP):
        rings[world_norm(w, c)].append(c)
    traces = [set(r.coords_in_window(deepest + RING_WIDTH)) for r in rays]
    idx = [r.index for r in rays]
    e0 = _edge_set_at(w, rings, traces, d0)
    e1 = _edge_set_at(w, rings, traces, d0 + 1)
    return RayGraph(tuple(idx), frozenset((idx[a], idx[b]) for a, b in e0),
                    stabilized=(e0 == e1), depth_range=(d0, deepest))


def frontier_reaches(step: dict[int, int], src: int, dst: int, allowed: int) -> bool:
    """``rays._reaches`` by a plain frontier flood: each iteration moves
    the frontier one step by every shift, where ``step[s]`` holds the
    vertices whose neighbour lies s bits away."""
    frontier = src & allowed
    unseen = allowed ^ frontier
    while frontier:
        if frontier & dst:
            return True
        grown = 0
        for s, movers in step.items():
            f = frontier & movers
            if f:
                grown |= f << s if s > 0 else f >> -s
        frontier = grown & unseen
        unseen ^= frontier
    return False


def vertexwise_steps(w, box, keep: int) -> dict[int, int]:
    """``rays._steps`` by one ``world_neighbors`` call per ``keep`` vertex
    of the rectangle ``box``: ``step[s]`` holds the vertices whose
    neighbour inside the rectangle lies s bits away."""
    x0, x1, y0, y1 = box
    width = x1 - x0 + 1
    movers: dict[int, int] = defaultdict(int)
    for y in range(y0, y1 + 1):
        for x in range(x0, x1 + 1):
            b = (y - y0) * width + x - x0
            if not keep >> b & 1:
                continue
            for nx, ny in world_neighbors(w, (x, y)):
                if x0 <= nx <= x1 and y0 <= ny <= y1:
                    movers[(ny - y) * width + nx - x] |= 1 << b
    return dict(movers)


def cheapest_cost(adj, s: int, e: int, avoid: set[int], history: list[int],
                  sharers: list[int], present: float) -> float | None:
    """The cheapest cost from s to e under the router's vertex costs, by
    Dijkstra's algorithm, or None when e is unreachable."""
    dist = {s: 0.0}
    heap = [(0.0, s)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == e:
            return d
        if d > dist[u]:
            continue
        for w in adj[u]:
            if w in avoid:
                continue
            nd = d + (1 + history[w]) * (1 + present * sharers[w])
            if nd < dist.get(w, float("inf")):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return None


def float_cheapest_path(adj, s: int, e: int, avoid: set[int], history: list[int],
                        sharers: list[int], present: float, h: list[int]) -> list[int]:
    """The router's A* on float tuple heap entries (f, d, vertex), where
    entering v costs ``(1 + history[v]) * (1 + present * sharers[v])``;
    ``h`` is ``linkage._hop_bound``'s hop bound, so e is reachable.  Its
    ties fall to the lesser d, then the lesser vertex, which fixes the
    path returned among equally cheap ones."""
    dist = [float("inf")] * len(adj)
    parent = [-1] * len(adj)
    dist[s] = 0.0
    heap = [(h[s], 0.0, s)]
    while True:
        _, d, u = heapq.heappop(heap)
        if u == e:
            path = [u]
            while u != s:
                u = parent[u]
                path.append(u)
            return path[::-1]
        if d > dist[u]:
            continue
        for w in adj[u]:
            if w in avoid:
                continue
            nd = d + (1 + history[w]) * (1 + present * sharers[w])
            if nd < dist[w]:
                dist[w] = nd
                parent[w] = u
                heapq.heappush(heap, (nd + h[w], nd, w))


class _OverBudget(Exception):
    pass


def _linkage_walks(adj, src: list[int], tgt: list[int], X: frozenset[int],
                   spend) -> list[int]:
    """Every walk from ray ``src`` to ray ``tgt`` that ``check_linkage``
    accepts, as the inclusion-minimal vertex bitmasks: ``src[:a] + path +
    tgt[b + 1:]`` for a connector ``path`` from ``src[a]`` to ``tgt[b]``,
    simple as a whole, with X only in ``src[:a]``; and the pure ride when
    the rays coincide.  A family may swap any walk for a walk of the same
    pair on a subset of its vertices, so the minimal ones suffice; and a
    connector with a chord has a shortcut on fewer vertices, so only
    induced connectors are grown."""
    near = [sum(1 << w for w in nbrs) for nbrs in adj]
    masks = {sum(1 << v for v in src)} if src == tgt else set()
    for a, s in enumerate(src):
        if s in X or X.intersection(src[a + 1:]):
            continue
        prefix = sum(1 << v for v in src[:a])
        # depth-first over induced paths from s, recording each landing;
        # ``inner`` is the connector so far without its last vertex u
        stack = [(s, prefix | 1 << s, 0)]
        while stack:
            spend()
            u, seen, inner = stack.pop()
            if u in tgt:
                tail = tgt[tgt.index(u) + 1:]
                if not X.intersection(tail) and not any(seen >> v & 1 for v in tail):
                    masks.add(seen | sum(1 << v for v in tail))
            for w in adj[u]:
                if not seen >> w & 1 and w not in X and not near[w] & inner:
                    stack.append((w, seen | 1 << w, inner | 1 << u))
    minimal: list[int] = []
    for m in sorted(masks, key=int.bit_count):
        if all(k & m != k for k in minimal):
            minimal.append(m)
    return minimal


def linkable_by_definition(t, source, target, X=frozenset(), sigma=None,
                           budget: int = 100_000):
    """The pairings that some linkage after X realizes in window ``t``, by
    definition: every walk ``check_linkage`` accepts is enumerated per
    (source i, target j) as a vertex set, then the search backtracks over
    pairwise disjoint choices, one walk per source.  With ``sigma`` only
    that pairing is tried.  Returns a set of tuples, entry i the target of
    source i, or None once ``budget`` steps are spent."""
    steps = 0

    def spend():
        nonlocal steps
        steps += 1
        if steps > budget:
            raise _OverBudget

    adj = t.graph.adjacency()
    X = frozenset(X)
    src = [r.positions_in(t) for r in source]
    tgt = [r.positions_in(t) for r in target]
    pairings = ([tuple(sigma[i] for i in range(len(src)))] if sigma is not None
                else list(itertools.permutations(range(len(tgt)), len(src))))
    try:
        walks = {}
        for p in pairings:
            for i, j in enumerate(p):
                if (i, j) not in walks:
                    walks[i, j] = _linkage_walks(adj, src[i], tgt[j], X, spend)

        def extend(p, i, used):
            spend()
            if i == len(p):
                return True
            return any(not w & used and extend(p, i + 1, used | w)
                       for w in walks[i, p[i]])

        return {p for p in pairings if extend(p, 0, 0)}
    except _OverBudget:
        return None
