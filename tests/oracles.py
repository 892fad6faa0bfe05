"""Reference oracles for the test suite.

Each one computes its answer by brute force or straight from the
definition, on a different path from the library routine it checks.
"""

from collections import deque

from pebblekit.errors import StateCapExceeded
from pebblekit.graphs import (Graph, graph_from_mask, mask_adjacency,
                              mask_connected, vertex_pairs)
from pebblekit.pebbles import DEFAULT_STATE_CAP, _config_group
from pebblekit.permgroups import PermGroup
from pebblekit.structure import _find_witness


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
    group = PermGroup(len(start))
    for s in labelled_class(g, start):
        if frozenset(s) == base:
            group.add(tuple(slot_of[x] for x in s))
    return group


def labelled_sweep(n: int) -> tuple[int, int, int]:
    """(checked, non-win, failures) of the structure sweep over every
    connected labelled graph on n vertices, one edge bitmask at a time,
    with the same downward scan in k as the class sweep."""
    pairs = vertex_pairs(n)
    full = (1 << n) - 1
    checked = non_win = failures = 0
    for mask in range(1 << len(pairs)):
        adj = mask_adjacency(n, mask, pairs)
        if not mask_connected(n, adj):
            continue
        for k in range(n - 2, 0, -1):
            # a win: the group is certified S_k on a component of every vertex
            if _config_group(adj, n, tuple(range(k)))[0] == full:
                checked += k
                break
            checked += 1
            non_win += 1
            failures += _find_witness(graph_from_mask(n, mask), k) is None
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


def contains_subgraph(rg, g_edges) -> bool:
    """Does the ray graph contain the given edge set under index identity?"""
    norm = {(min(a, b), max(a, b)) for a, b in rg.edges}
    return all((min(a, b), max(a, b)) in norm for a, b in g_edges)
