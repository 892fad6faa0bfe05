"""Reference oracles for the test suite.

Each one computes its answer by brute force or straight from the
definition, on a different path from the library routine it checks.
"""

import itertools

from pebblekit.graphs import Graph
from pebblekit.pebbles import reachable_states
from pebblekit.permgroups import PermGroup


def harvest_group(g: Graph, start: tuple[int, ...]) -> PermGroup:
    """The pebble-permutation group of ``start`` by definition: every
    reachable labelled state over the vertex set of ``start`` is one
    achieved permutation."""
    slot_of = {v: i for i, v in enumerate(start)}
    base = frozenset(start)
    group = PermGroup(len(start))
    for s in reachable_states(g, start):
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


def min_vertex_separator_size(g: Graph, a_set, b_set, forbidden=()) -> int:
    """Smallest vertex set whose removal leaves no A-B path in g - forbidden.

    Brute force over subsets, ascending size.
    """
    A = frozenset(a_set)
    B = frozenset(b_set)
    F = frozenset(forbidden)
    candidates = [v for v in range(g.n) if v not in F]
    adj = g.adjacency()

    def separated(removed: frozenset[int]) -> bool:
        blocked = F | removed
        seen = set(a for a in A if a not in blocked)
        stack = list(seen)
        while stack:
            u = stack.pop()
            if u in B:
                return False
            for w in adj[u]:
                if w not in seen and w not in blocked:
                    seen.add(w)
                    stack.append(w)
        return not (seen & B)

    for size in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if separated(frozenset(combo)):
                return size
    return len(candidates)
