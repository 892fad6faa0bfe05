"""Reference oracles for the test suite.

Each one computes its answer by brute force or straight from the
definition, on a different path from the library routine it checks.
"""

from collections import deque

from pebblekit.graphs import Graph
from pebblekit.permgroups import PermGroup


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
