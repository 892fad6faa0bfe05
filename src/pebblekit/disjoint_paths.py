"""Exact decision for vertex-disjoint paths with fixed terminal pairs.

Frontier dynamic programming along a vertex order of its own, with
mate-array states as in frontier-based search (Yoshinaka et al., "Finding
all solutions and instances of Numberlink and Slitherlink by ZDDs",
Algorithms 2012; Kawahara et al., IEICE 2017).  A state records, for
every open end of a path fragment among the processed vertices, what
lies at the fragment's other end: walk i alone when the fragment is
anchored at a terminal of walk i, and otherwise the partner open end
itself.  Which of walk i's two terminals an anchored end came from is
not recorded: the two anchored ends of one walk complete it whenever
they meet, and paths are undirected.  A fragment with no terminal
carries no walk label, so states that differ only in which walk will
later claim a floating fragment coincide.  Blocked vertices and those of
single-vertex walks are never swept; of the live rest, the next vertex
leaves the fewest open ones (swept, with an unswept live neighbour), ties
to the least (Inoue & Minato, Hokkaido Univ. TCS tech. report, 2016).
``linkage`` uses it to refute what its rim-crossing certificate cannot
see.  The answer is exact: True iff a family of pairwise vertex-disjoint
paths, one per terminal pair, exists.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .errors import ResourceCapError, ValidationError

# the label of an open end v names the far end of v's fragment:
#   ~i < 0        the fragment is anchored at a terminal of walk i
#   u >= 0        the fragment floats; u (a vertex) is its other open end,
#                 and u == v for a lone vertex, which takes two more edges

DP_STATE_CAP = 6_000


def disjoint_paths_exist(adjacency: Sequence[Iterable[int]],
                         terminals: Sequence[tuple[int, int]],
                         blocked: Iterable[int] = ()) -> bool:
    """Decide whether pairwise vertex-disjoint s_i-t_i paths exist.

    The vertices are 0..len(adjacency)-1.  ``blocked`` vertices cannot be
    used by any path.  A path may consist of a single vertex when
    s_i == t_i.  Each step of the sweep keeps at most DP_STATE_CAP states;
    past that budget the call raises ResourceCapError rather than answer.
    """
    blocked_set = set(blocked)
    term_of: dict[int, int] = {}
    for i, (s, t) in enumerate(terminals):
        if s in blocked_set or t in blocked_set:
            raise ValidationError(f"terminal of walk {i} is blocked")
        if s == t:
            # a single-vertex path: claim the vertex, nothing to route
            blocked_set.add(s)
            continue
        for v in (s, t):
            if v in term_of:
                raise ValidationError(f"terminal vertex {v} used twice")
            term_of[v] = ~i
    live = set(range(len(adjacency))) - blocked_set
    if not live.issuperset(term_of):
        return False    # a single-vertex walk claimed another walk's terminal

    pos = _sweep_order(adjacency, live)
    retire_after = {v: max((pos[w] for w in adjacency[v] if w in pos), default=pos[v])
                    for v in pos}

    # a state: the sorted (open end, label) pairs
    states: set[tuple] = {()}
    for step, v in enumerate(pos):
        term = term_of.get(v)
        earlier = [w for w in adjacency[v] if pos.get(w, step) < step]
        new_states: set[tuple] = set()
        for state in states:
            labels = dict(state)
            # leave v unused (never allowed for terminals)
            if term is None:
                _retire_and_add(new_states, labels, step, retire_after)
            # use v, joined to 0, 1 or (off a terminal) 2 open neighbours
            ends = [w for w in earlier if w in labels]
            choices: list[tuple[int, ...]] = [()]
            choices.extend((w,) for w in ends)
            if term is None:
                choices.extend((w1, w2) for a, w1 in enumerate(ends)
                               for w2 in ends[a + 1:])
            for chosen in choices:
                joined = _join(labels, v, chosen, term)
                if joined is not None:
                    _retire_and_add(new_states, joined, step, retire_after)
            if len(new_states) > DP_STATE_CAP:
                raise ResourceCapError(
                    f"disjoint-path state space exceeded {DP_STATE_CAP}")
        states = new_states
        if not states:
            return False
    # every terminal is used, and only anchored ends of one walk may meet,
    # so a state with no open end has completed every walk
    return () in states


def _sweep_order(adjacency: Sequence[Iterable[int]], live: set[int]) -> dict[int, int]:
    """Each live vertex's step in min-frontier order.  Sweeping v closes the
    open vertices whose one unswept live neighbour is v, and opens v if it
    has one: cost ``(left[v] > 0) - closes[v]``, kept on a lazy heap."""
    nbrs = [[w for w in a if w in live] if v in live else [] for v, a in enumerate(adjacency)]
    left = [len(a) for a in nbrs]       # unswept live neighbours
    closes = [0] * len(nbrs)
    heap = sorted((int(left[v] > 0), v) for v in live)     # a sorted list is a heap
    pos: dict[int, int] = {}
    while heap:
        cost, v = heapq.heappop(heap)
        if v in pos or cost != (left[v] > 0) - closes[v]:
            continue
        pos[v] = len(pos)
        for w in nbrs[v]:
            left[w] -= 1
        touched = nbrs[v][:]
        # v and its open neighbours may now wait on one unswept neighbour
        for u in [v, *(w for w in nbrs[v] if w in pos)]:
            if left[u] == 1:
                touched.append(next(x for x in nbrs[u] if x not in pos))
                closes[touched[-1]] += 1
        for x in touched:
            if x not in pos:
                heapq.heappush(heap, ((left[x] > 0) - closes[x], x))
    return pos


def _join(labels: dict[int, int], v: int, chosen: tuple[int, ...],
          term: int | None) -> dict[int, int] | None:
    """Labels after v joins the open ends ``chosen``; None when invalid."""
    if len(chosen) == 2 and labels[chosen[0]] == chosen[1]:
        return None  # both ends of one fragment: a cycle
    labels = dict(labels)
    # the merged fragment's two far ends: v's own anchor, the far end
    # behind each chosen open end, and v itself for each edge it still takes
    far = [term] if term is not None else []
    far.extend(labels.pop(w) for w in chosen)
    far.extend([v] * (2 - len(far)))
    a, b = far
    if a < 0 and b < 0:
        # two anchored ends meet: valid only as the two ends of one walk,
        # which is then complete
        return labels if a == b else None
    for x, y in ((a, b), (b, a)):     # an open end names the other far end
        if x >= 0:
            labels[x] = y
    return labels


def _retire_and_add(new_states: set, labels: dict[int, int], step: int,
                    retire_after: dict[int, int]) -> None:
    # a vertex whose live neighbours are all swept can never take another
    # edge; an open end stranded there kills the state
    for u in labels:
        if retire_after[u] <= step:
            return
    new_states.add(tuple(sorted(labels.items())))
