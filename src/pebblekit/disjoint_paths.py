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
The order is produced step by step as the DP reads it, and each step
names the vertices it leaves with no unswept live neighbour: such a
vertex can take no further edge, so a state with an open end there dies.
``linkage`` uses it to refute what its rim-crossing certificate cannot
see.  The answer is exact: True iff a family of pairwise vertex-disjoint
paths, one per terminal pair, exists.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Sequence

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
    s_i == t_i.  Each terminal vertex belongs to one walk, a single-vertex
    walk's included, and no terminal may be blocked: every terminal is
    checked against both rules before any vertex is claimed, and a breach
    raises ValidationError.  Each step of the sweep keeps at most
    DP_STATE_CAP states; past that budget the call raises ResourceCapError
    rather than answer.
    """
    blocked_set = set(blocked)
    term_of: dict[int, int] = {}
    for i, (s, t) in enumerate(terminals):
        if s in blocked_set or t in blocked_set:
            raise ValidationError(f"terminal of walk {i} is blocked")
        for v in (s, t):
            if term_of.setdefault(v, ~i) != ~i:
                raise ValidationError(f"terminal vertex {v} used twice")
    # a single-vertex walk claims its vertex, with nothing to route
    live = set(range(len(adjacency))).difference(
        blocked_set, (s for s, t in terminals if s == t))

    # a state: the sorted (open end, label) pairs
    states: set[tuple] = {()}
    for v, earlier, gone in _sweep_order(adjacency, live):
        term = term_of.get(v)
        new_states: set[tuple] = set()
        for state in states:
            labels = dict(state)
            # leave v unused (never allowed for terminals)
            if term is None and labels.keys().isdisjoint(gone):
                new_states.add(state)
            # use v, joined to 0, 1 or (off a terminal) 2 open neighbours
            ends = [w for w in earlier if w in labels]
            choices: list[tuple[int, ...]] = [()]
            choices.extend((w,) for w in ends)
            if term is None:
                choices.extend((w1, w2) for a, w1 in enumerate(ends)
                               for w2 in ends[a + 1:])
            for chosen in choices:
                joined = _join(labels, v, chosen, term)
                if joined is not None and joined.keys().isdisjoint(gone):
                    new_states.add(tuple(sorted(joined.items())))
            if len(new_states) > DP_STATE_CAP:
                raise ResourceCapError(
                    f"disjoint-path state space exceeded {DP_STATE_CAP}")
        states = new_states
        if not states:
            return False
    # every terminal is used, and only anchored ends of one walk may meet,
    # so a state with no open end has completed every walk
    return () in states


def _sweep_order(adjacency: Sequence[Iterable[int]],
                 live: set[int]) -> Iterator[tuple[int, list[int], list[int]]]:
    """Yield ``(v, earlier, gone)`` for each live vertex v in min-frontier
    order: ``earlier`` holds v's live neighbours swept before it, and
    ``gone`` the vertices that v's step leaves with no unswept live
    neighbour, v itself included when it has none.  Sweeping v closes the
    open vertices whose one unswept live neighbour is v, and opens v if it
    has one: cost ``(left[v] > 0) - closes[v]``, kept on a lazy heap."""
    nbrs = [[w for w in a if w in live] if v in live else [] for v, a in enumerate(adjacency)]
    left = [len(a) for a in nbrs]       # unswept live neighbours
    closes = [0] * len(nbrs)
    heap = sorted((int(left[v] > 0), v) for v in live)     # a sorted list is a heap
    swept: set[int] = set()
    while heap:
        cost, v = heapq.heappop(heap)
        if v in swept or cost != (left[v] > 0) - closes[v]:
            continue
        earlier = [w for w in nbrs[v] if w in swept]
        swept.add(v)
        for w in nbrs[v]:
            left[w] -= 1
        touched = nbrs[v][:]
        # v and its open neighbours may now wait on one unswept neighbour
        for u in [v, *earlier]:
            if left[u] == 1:
                touched.append(next(x for x in nbrs[u] if x not in swept))
                closes[touched[-1]] += 1
        for x in touched:
            if x not in swept:
                heapq.heappush(heap, ((left[x] > 0) - closes[x], x))
        yield v, earlier, [u for u in (v, *earlier) if not left[u]]


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
