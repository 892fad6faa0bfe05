"""Finite simple undirected graphs.

Vertices are the integers 0..n-1; display labels never affect semantics.
This module carries the substrate everything else leans on: parsing,
connectivity, bridges, maximal bare paths, the bitmask adjacency and
connectivity kernel, exhaustive enumeration of small connected
labelled graphs, and their generation up to isomorphism.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import GraphParseError, ValidationError

Edge = tuple[int, int]
BarePath = tuple[int, ...]

ENUMERATION_MAX_N = 8
# most vertices a parsed graph may declare: a JSON document names n with a
# few digits, and every use of the graph allocates per vertex
PARSE_MAX_N = 100_000


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored as unordered pairs (u, v) with u < v.  No self-loops,
    no parallel edges; every endpoint must be < n.
    """

    n: int
    edges: frozenset[Edge]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValidationError(f"vertex count must be >= 0, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValidationError(f"edge ({u}, {v}) out of range for n={self.n}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValidationError("labels must cover every vertex")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   labels: tuple[str, ...] | None = None) -> "Graph":
        return cls(n, frozenset(_norm_edge(u, v) for u, v in edges), labels)

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour tuples, index per vertex; built once per graph."""
        return self._adjacency

    @cached_property
    def _adjacency_masks(self) -> tuple[int, ...]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def _pebble_groups(self) -> dict:
        """Validated start state -> (configurations reached, component
        bitmask when the group is S_k or else None, PermGroup), filled by
        ``pebbles._graph_group``; a graph never changes, so neither does
        an entry."""
        return {}

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.sorted_edges()})"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_graph(text: str, fmt: str = "edge-list") -> Graph:
    """Parse a graph from text.

    ``edge-list``: one "u v" pair per line, whitespace-separated, '#' starts
    a comment.  Vertex indices are assigned in order of first appearance.

    ``json``: an object with integer "n" (at most PARSE_MAX_N) and an
    array "edges" of 2-arrays, plus an optional "labels" object mapping
    vertex index to string.
    """
    if fmt == "edge-list":
        return _parse_edge_list(text)
    if fmt == "json":
        return _parse_json(text)
    raise ValidationError(f"unknown graph format {fmt!r}")


def _parse_edge_list(text: str) -> Graph:
    order: dict[str, int] = {}
    edges: set[Edge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        a, b = tokens
        if a == b:
            raise GraphParseError(f"line {lineno}: self-loop on {a!r}")
        for tok in (a, b):
            if tok not in order:
                order[tok] = len(order)
        e = _norm_edge(order[a], order[b])
        if e in edges:
            raise GraphParseError(f"line {lineno}: duplicate edge {a} {b}")
        edges.add(e)
    labels = tuple(order)
    if all(lab == str(i) for i, lab in enumerate(labels)):
        return Graph(len(order), frozenset(edges))
    return Graph(len(order), frozenset(edges), labels)


def _is_int(x) -> bool:
    """An integer read from JSON; ``true`` and ``false`` are not integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphParseError("top level: expected an object")
    n = doc.get("n")
    if not _is_int(n) or not 0 <= n <= PARSE_MAX_N:
        raise GraphParseError(
            f"field 'n': expected an integer from 0 to {PARSE_MAX_N}")
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise GraphParseError("field 'edges': expected an array")
    edges: set[Edge] = set()
    for i, pair in enumerate(raw_edges):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(_is_int(x) for x in pair)):
            raise GraphParseError(f"edges[{i}]: expected a pair of integers")
        u, v = pair
        if u == v:
            raise GraphParseError(f"edges[{i}]: self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"edges[{i}]: endpoint out of range for n={n}")
        e = _norm_edge(u, v)
        if e in edges:
            raise GraphParseError(f"edges[{i}]: duplicate edge {u} {v}")
        edges.add(e)
    labels = None
    if "labels" in doc:
        raw_labels = doc["labels"]
        if not isinstance(raw_labels, dict):
            raise GraphParseError("field 'labels': expected an object")
        out = [str(i) for i in range(n)]
        for key, val in raw_labels.items():
            # a plain decimal index: ASCII digits, no sign, no leading zero
            if not (key.isascii() and key.isdigit()) or (key[0] == "0" and key != "0"):
                raise GraphParseError(f"labels key {key!r}: expected a decimal vertex index")
            # the length test keeps int() off arbitrarily long digit strings
            if len(key) > len(str(n)) or int(key) >= n:
                raise GraphParseError(f"labels key {key!r}: out of range for n={n}")
            if not isinstance(val, str):
                raise GraphParseError(f"labels[{key!r}]: expected a string, got {val!r}")
            out[int(key)] = val
        labels = tuple(out)
    return Graph(n, frozenset(edges), labels)


# ---------------------------------------------------------------------------
# Connectivity and bridges
# ---------------------------------------------------------------------------

def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Per vertex, the bitmask of its neighbours; built once per graph."""
    return g._adjacency_masks


def mask_adjacency(n: int, mask: int, pairs: list[tuple[int, int]]) -> tuple[int, ...]:
    """Neighbour bitmasks of the graph whose edges are the set bits of
    ``mask``, bit i standing for ``pairs[i]``."""
    adj = [0] * n
    m = mask
    while m:
        b = m & -m
        m ^= b
        u, v = pairs[b.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def _mask_component(adj: tuple[int, ...], seed: int, within: int = -1) -> int:
    """Bitmask of every vertex joined to a vertex of the bitmask ``seed``
    in the graph with neighbour bitmasks ``adj``, induced on the vertices
    of the bitmask ``within`` (all of them by default)."""
    seen = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= adj[b.bit_length() - 1]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def mask_connected(n: int, adj: tuple[int, ...]) -> bool:
    """True iff the n >= 1 vertices with neighbour bitmasks ``adj`` form
    one component."""
    return _mask_component(adj, 1) == (1 << n) - 1


def is_connected(g: Graph) -> bool:
    """True iff g has a single component (vacuously true for n=0)."""
    return g.n == 0 or mask_connected(g.n, adjacency_masks(g))


def bridges(g: Graph) -> frozenset[Edge]:
    """Edges whose removal increases the number of components.

    Iterative lowpoint computation; linear in the size of the graph.
    """
    adj = g.adjacency()
    disc = [-1] * g.n
    low = [0] * g.n
    out: set[Edge] = set()
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        # stack entries: (vertex, parent, neighbour iterator)
        stack = [(root, -1, iter(adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue  # the tree edge; a simple graph has no parallel to it
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, u, iter(adj[w])))
                    advanced = True
                    break
                low[u] = min(low[u], disc[w])
            if not advanced:
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[u])
                    if low[u] > disc[parent]:
                        out.add(_norm_edge(parent, u))
    return frozenset(out)


def is_cycle_graph(g: Graph) -> bool:
    """True iff g is a single cycle (connected, every degree exactly 2)."""
    if g.n < 3 or len(g.edges) != g.n:
        return False
    return all(g.degree(v) == 2 for v in range(g.n)) and is_connected(g)


# ---------------------------------------------------------------------------
# Enumeration of connected labelled graphs
# ---------------------------------------------------------------------------

def vertex_pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


# kept for perfbench/workloads/sweep.py, whose traced replay walks labelled graphs
def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected labelled graph on n vertices, exactly once.

    Labelled means graphs are distinguished by their edge sets, not up to
    isomorphism.  Capped at n <= 8; the stream has 2^C(n,2) candidates.
    """
    if not (1 <= n <= ENUMERATION_MAX_N):
        raise ValidationError(f"n must be between 1 and {ENUMERATION_MAX_N}, got {n}")
    pairs = vertex_pairs(n)
    for mask in range(1 << len(pairs)):
        adj = mask_adjacency(n, mask, pairs)
        if mask_connected(n, adj):
            yield graph_from_masks(adj)


def graph_from_masks(adj: tuple[int, ...]) -> Graph:
    """The graph with neighbour bitmasks ``adj``."""
    n = len(adj)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if adj[u] >> v & 1])


# ---------------------------------------------------------------------------
# Connected graphs up to isomorphism
# ---------------------------------------------------------------------------
#
# Canonical forms come from individualisation-refinement (McKay & Piperno,
# "Practical graph isomorphism, II", 2014): refine an ordered vertex
# partition until it is equitable, split a non-singleton cell by trying
# each of its vertices first, and take the largest relabelled graph over
# the discrete partitions reached.  Two leaves giving the same graph
# yield an automorphism; these prune the search, give |Aut G| and the
# vertex orbits, and generate Aut G.  The classes come from canonical
# augmentation (McKay, "Isomorph-free exhaustive generation", 1998): a
# new vertex joins one neighbourhood per orbit of Aut(parent), and a
# class is kept only when it lies in the orbit of a canonically chosen
# non-cut vertex, so every class arises once, from one parent class.
# The levels are not canonical: a class keeps the labelling its parent
# gave it, with |Aut G| and, when known, generators of Aut G.  A canonical
# form is built for a child whose deletion invariant ties with a vertex
# that is not a twin of the new one, and for a parent with automorphisms
# but no generators.  Any other child's new vertex has for its orbit the
# new vertex and its tied twins, and |Aut| follows by orbit-stabilizer.
# ``connected_graph_classes`` canonises its final level.

# 261,080 classes at n = 9, 11,716,571 at n = 10
CLASSES_MAX_N = 9


# the set bits of every mask on up to CLASSES_MAX_N vertices, ascending
_BITS = tuple(tuple(v for v in range(CLASSES_MAX_N) if m >> v & 1)
              for m in range(1 << CLASSES_MAX_N))


def _refine(adj: list[int], cells: list[int], splitters: list[int]) -> list[int]:
    """Refine the ordered partition ``cells`` (vertex bitmasks) until it is
    equitable: the vertices of a cell have equally many neighbours in each
    cell.  Every cell split by a splitter is replaced, in place, by its
    fragments in increasing order of that count, and the fragments are
    queued as splitters.  Nothing depends on the vertex labels, so
    relabelling the input relabels the output."""
    n = len(adj)
    q = 0
    while q < len(splitters) and len(cells) < n:
        w = splitters[q]
        q += 1
        out = []
        for c in cells:
            if c & (c - 1):
                parts: dict[int, int] = {}
                for v in _BITS[c]:
                    d = (adj[v] & w).bit_count()
                    parts[d] = parts.get(d, 0) | 1 << v
                if len(parts) > 1:
                    for d in sorted(parts):
                        out.append(parts[d])
                        splitters.append(parts[d])
                    continue
            out.append(c)
        cells = out
    return cells


def _canonical(adj: list[int]) -> tuple[tuple[int, ...], list[int], int, list[int],
                                        list[list[int]]]:
    """(canonical masks, canonical position of each vertex, |Aut G|, an
    orbit label per vertex: equal labels for vertices in one orbit of
    Aut G, automorphisms generating Aut G as vertex maps) of the graph
    with neighbour bitmasks ``adj``."""
    n = len(adj)
    parent = list(range(n))      # union-find over the automorphisms found
    gens: list[list[int]] = []

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    by_degree: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    first: list = []             # [graph, order, path] of the first leaf
    best: list = []              # and of the largest leaf graph so far
    aut = 1

    def leaf(cells: list[int], path: list[int]) -> int:
        """Record a leaf; return the depth the search resumes at."""
        nonlocal first, best
        order = [c.bit_length() - 1 for c in cells]
        img = [0] * n            # each vertex's bit in the relabelled graph
        for i, v in enumerate(order):
            img[v] = 1 << i
        g = tuple([sum(map(img.__getitem__, _BITS[adj[v]])) for v in order])
        if not first:
            first = best = [g, order, path]
            return len(path)
        for ref in (first, best):
            if g == ref[0]:
                # an automorphism maps ref's leaf to this one; the subtree
                # below the paths' fork is an image of one already searched
                for a, b in zip(ref[1], order):
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
                gens.append([b for _, b in sorted(zip(ref[1], order))])
                fork = 0
                while path[fork] == ref[2][fork]:
                    fork += 1
                return fork
        if g > best[0]:
            best = [g, order, path]
        return len(path)

    def search(cells: list[int], path: list[int], on_first: bool) -> int:
        nonlocal aut
        if len(cells) == n:
            return leaf(cells, path)
        t = next(i for i, c in enumerate(cells) if c & (c - 1))
        target = cells[t]
        tried: list[int] = []
        for v in _BITS[target]:
            if on_first and any(find(v) == find(u) for u in tried):
                continue         # an automorphism fixing the path maps v to a tried vertex
            b = 1 << v
            child = _refine(adj, cells[:t] + [b, target ^ b] + cells[t + 1:], [b])
            back = search(child, path + [v], on_first and not tried)
            if back < len(path):
                return back
            tried.append(v)
        if on_first:
            # every automorphism found so far fixes this path, and each
            # vertex of tried's orbit under them led to a first-leaf image
            root = find(tried[0])
            aut *= sum(find(u) == root for u in _BITS[target])
        return len(path)

    search(_refine(adj, cells, list(cells)), [], True)
    pos = [0] * n
    for i, v in enumerate(best[1]):
        pos[v] = i
    return best[0], pos, aut, [find(v) for v in range(n)], gens


def canonical_form(adj: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(canonical neighbour bitmasks, |Aut G|) of the graph with neighbour
    bitmasks ``adj``.  Isomorphic graphs, and only they, get the same
    canonical masks.  Capped at CLASSES_MAX_N vertices; the masks must
    be those of a simple graph."""
    n = len(adj)
    if n > CLASSES_MAX_N:
        raise ValidationError(f"at most {CLASSES_MAX_N} vertices, got {n}")
    for v, a in enumerate(adj):
        if not _is_int(a) or a < 0 or a >> n:
            raise ValidationError(f"vertex {v}: mask {a!r} is not a set of vertices below {n}")
        if a >> v & 1:
            raise ValidationError(f"vertex {v}: self-loop")
    for v, a in enumerate(adj):
        for u in _BITS[a]:
            if not adj[u] >> v & 1:
                raise ValidationError(f"vertex {v} lists {u}, which does not list {v}")
    canon, _, aut, _, _ = _canonical(list(adj))
    return canon, aut


def _is_cut_vertex(adj: tuple[int, ...], u: int, full: int) -> bool:
    rest = full & ~(1 << u)
    return _mask_component(adj, rest & -rest, rest) != rest


def augmentations(parent: tuple[int, ...], parent_aut: int,
                  gens: list[list[int]] | None = None) -> list[tuple]:
    """The connected classes on n+1 vertices whose canonical parent is the
    class of ``parent``, a representative on n vertices in any labelling
    with |Aut| = ``parent_aut``, as (masks, |Aut G|, vertex maps that
    generate Aut G or None): ``parent``'s masks with a new vertex n.

    The new vertex takes the least non-empty neighbourhood (the empty one
    for n = 0) of each orbit of Aut(parent), which ``gens`` generate; when
    they are None, a canonical form of the parent with automorphisms
    gives them.  A child is kept when n lies in the orbit of its canonical
    deletion vertex: among the non-cut vertices of least (degree, sum of
    neighbour degrees), the one with the largest canonical position.  A
    non-cut vertex of the parent stays one unless it alone is n's
    neighbourhood, so one of lesser degree than n rejects a whole orbit of
    neighbourhoods before a child is built.  The invariant rejects most
    other children before any canonical form is built, and keeps most of
    the rest without one: when every vertex tied with n on the least
    invariant is a twin of n (the two have the same neighbours apart from
    each other), swapping it with n is an automorphism, and an
    automorphism keeps the invariant, so n's orbit T is n with its ties,
    the deletion vertex lies in it and the child is kept.  Then the
    automorphisms fixing n are the stabilizer in Aut(parent) of n's
    neighbourhood, so |Aut(child)| is |T| times |Aut(parent)| over the size
    of that neighbourhood's orbit; when the orbit is one neighbourhood,
    Aut(parent) fixing n and the swaps generate Aut(child).  Any other
    tie builds a canonical form.  Removing a non-cut vertex leaves a
    connected graph, so every connected class has one parent class.  An
    isomorphism between two kept children can be made to fix n, so it
    joins their neighbourhoods' orbits: each class arises once.
    """
    n = len(parent)
    if n >= CLASSES_MAX_N:
        raise ValidationError(f"children have at most {CLASSES_MAX_N} vertices")
    if gens is None:
        gens = _canonical(list(parent))[4] if parent_aut > 1 else []
    full = (1 << (n + 1)) - 1
    # lo_out[c] / lo_in[c]: the parent's non-cut vertices whose degree in a
    # child where n has c neighbours is below c, when outside / inside them
    noncut = [u for u in range(n) if not _is_cut_vertex(parent, u, full >> 1)]
    lo_out = [sum(1 << u for u in noncut if parent[u].bit_count() < c) for c in range(n + 1)]
    lo_in = [0] + lo_out[:-1]
    covered = bytearray(1 << n)
    out = []
    for s in range(n > 0, 1 << n):
        c = s.bit_count()
        if covered[s] or lo_in[c] & s or lo_out[c] & ~s:
            continue             # a lesser s of its orbit came first, or a vertex beats n
        covered[s] = 1
        members = [s]
        for t in members:
            for gamma in gens:
                u = sum(1 << gamma[v] for v in _BITS[t])
                if not covered[u]:
                    covered[u] = 1
                    members.append(u)
        adj = tuple([a | 1 << n if s >> u & 1 else a for u, a in enumerate(parent)] + [s])
        deg = [a.bit_count() for a in adj]
        dv = deg[n]
        fv = -1
        ties = []
        for u in range(n):
            if deg[u] == dv:
                if fv < 0:
                    fv = sum(deg[w] for w in _BITS[s])
                fu = sum(deg[w] for w in _BITS[adj[u]])
                if fu > fv or _is_cut_vertex(adj, u, full):
                    continue
                if fu == fv:
                    ties.append(u)
                    continue
            elif deg[u] > dv or _is_cut_vertex(adj, u, full):
                continue
            break                # u is a better deletion vertex than n
        else:
            if all((adj[u] ^ s) & ~(1 << n | 1 << u) == 0 for u in ties):
                # every tie is a twin of n: swapping the two is an
                # automorphism, so the ties and n make up n's orbit
                aut = (len(ties) + 1) * (parent_aut // len(members))
                swaps = [[n if v == u else u if v == n else v for v in range(n + 1)]
                         for u in ties]
                out.append((adj, aut, [] if aut == 1 else
                            [g + [n] for g in gens] + swaps if len(members) == 1 else None))
                continue
            _, pos, aut, orbit, child_gens = _canonical(list(adj))
            if orbit[max(ties + [n], key=pos.__getitem__)] == orbit[n]:
                out.append((adj, aut, child_gens))
    return out


def connected_graph_classes(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Every connected graph on n vertices up to isomorphism, exactly once,
    as (canonical neighbour bitmasks, |Aut G|).  The class of G holds
    n!/|Aut G| labelled graphs.  Capped at n <= CLASSES_MAX_N."""
    if not (1 <= n <= CLASSES_MAX_N):
        raise ValidationError(f"n must be between 1 and {CLASSES_MAX_N}, got {n}")
    level = [((), 1, [])]
    for _ in range(n):
        level = [c for p, aut, gens in level for c in augmentations(p, aut, gens)]
    return [canonical_form(adj) for adj, _, _ in level]


# ---------------------------------------------------------------------------
# Bare paths
# ---------------------------------------------------------------------------

# kept for perfbench/workloads/game.py, which checks structure witnesses with it
def is_bare_path(g: Graph, seq: BarePath) -> bool:
    """Check the bare-path invariants: a path whose interior vertices all
    have degree exactly 2 in the host graph."""
    if len(seq) != len(set(seq)):
        return False
    if not all(0 <= v < g.n for v in seq):
        return False
    adj = g.adjacency()
    for a, b in zip(seq, seq[1:]):
        if b not in adj[a]:
            return False
    return all(g.degree(v) == 2 for v in seq[1:-1])


def maximal_bare_paths(g: Graph) -> list[BarePath]:
    """All maximal bare paths of g, lexicographically sorted, each stored
    as the lesser of its vertex sequence and the reverse.

    A bare path is maximal when neither endpoint can be extended: the
    endpoint has degree != 2, or its remaining neighbour already lies on
    the path.  An isolated vertex is one on its own.  Each edge (u, v)
    grows into one of them, at u's end first and then at v's.  On a
    component that is a cycle, every Hamiltonian path of it is maximal,
    and edge (u, v) gives the one without (u, v).
    """
    adj = g.adjacency()
    deg = [len(a) for a in adj]
    found: set[BarePath] = {(v,) for v in range(g.n) if not deg[v]}
    for u, v in g.sorted_edges():
        path = [v, u]
        members = {u, v}
        for _ in range(2):
            while deg[path[-1]] == 2:
                a, b = adj[path[-1]]
                nxt = a if b == path[-2] else b
                if nxt in members:
                    break
                path.append(nxt)
                members.add(nxt)
            path.reverse()
        # interior vertices have both neighbours on the path, so two ends
        # of degree 2 are neighbours: the path has closed a cycle
        if deg[path[0]] == deg[path[-1]] == 2:
            path = path[1:] + path[:1]
        seq = tuple(path)
        found.add(min(seq, seq[::-1]))
    return sorted(found)
