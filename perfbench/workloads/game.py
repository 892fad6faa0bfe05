"""``game``: a seeded mix of pebble-game queries on connected graphs.

Every round holds one instance per cell of ``CELLS`` (a graph family, a
vertex count n and a pebble count k), so every round has the same mix;
the seed and the round number pick the graphs and the goal states.  Each
instance is asked six queries, in this order: ``solve``,
``reachable_states``, ``pebble_permutation_group`` followed by transposition
membership, ``rb_colouring``, ``is_k_pebble_win`` and
``structure_witness``.

The answers are checked against the labelled reachability class of the
start state (the definitional BFS) and against graph oracles written
here, so no check trusts the routine it checks.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, deque
from math import comb, perm

from common import Op, single, unexpected

# (family, n, k) per instance of a round.  Theta and dense graphs are
# k-pebble-win here, so the large cells, which set the tail, have fixed
# state counts (n!/(n-k)! labelled states); trees and unicyclic graphs get
# the small cells, where their smaller classes vary with the seed.
CELLS = 2 * [
    ("tree", 7, 2), ("tree", 8, 3), ("tree", 9, 3), ("tree", 10, 4),
    ("unicyclic", 7, 3), ("unicyclic", 8, 4), ("unicyclic", 9, 3),
    ("unicyclic", 10, 3),
    ("theta", 7, 4), ("theta", 8, 5), ("theta", 9, 4), ("theta", 9, 5),
    ("theta", 10, 5),
    ("dense", 7, 5), ("dense", 8, 4), ("dense", 8, 5), ("dense", 9, 5),
    ("dense", 10, 4), ("dense", 10, 5),
] + [("dense", 10, 6)]

# one round has 6 * len(CELLS) = 234 queries, so p90
# leaves at least ten samples beyond its rank
TAIL_PCT = 90

GOAL_WALK = 400        # random legal moves from the start to the goal


# ---------------------------------------------------------------------------
# Input generation (seeded; never calls the library)
# ---------------------------------------------------------------------------

def _relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    p = list(range(n))
    rng.shuffle(p)
    return sorted({(min(p[u], p[v]), max(p[u], p[v])) for u, v in edges})


def _tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform labelled tree from a Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(n) if degree[x] == 1)
    edges.append((u, w))
    return edges


def _unicyclic(rng: random.Random, n: int) -> list[tuple[int, int]]:
    edges = _tree(rng, n)
    present = {(min(e), max(e)) for e in edges}
    missing = [e for e in itertools.combinations(range(n), 2) if e not in present]
    return edges + [rng.choice(missing)]


def _theta(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Three internally disjoint paths between vertices 0 and 1; at most
    one is a bare edge, so a cycle with a chord is included."""
    while True:
        cuts = sorted(rng.randint(0, n - 2) for _ in range(2))
        sizes = (cuts[0], cuts[1] - cuts[0], n - 2 - cuts[1])
        if sum(1 for s in sizes if s == 0) <= 1:
            break
    edges = []
    nxt = 2
    for size in sizes:
        prev = 0
        for _ in range(size):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, 1))
    return edges


def _dense(rng: random.Random, n: int) -> list[tuple[int, int]]:
    edges = {(min(e), max(e)) for e in _tree(rng, n)}
    for e in itertools.combinations(range(n), 2):
        if e not in edges and rng.random() < 0.5:
            edges.add(e)
    return sorted(edges)


MAKERS = {"tree": _tree, "unicyclic": _unicyclic, "theta": _theta,
          "dense": _dense}


def _walk(rng: random.Random, n: int, edges, start: tuple[int, ...],
          steps: int) -> tuple[int, ...]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    state = list(start)
    for _ in range(steps):
        occupied = set(state)
        moves = [(i, w) for i, v in enumerate(state) for w in adj[v]
                 if w not in occupied]
        if not moves:
            break
        i, w = rng.choice(moves)
        state[i] = w
    return tuple(state)


# ---------------------------------------------------------------------------
# Oracles written here
# ---------------------------------------------------------------------------

def _connected_without(n: int, edges, drop) -> bool:
    adj = [[] for _ in range(n)]
    for e in edges:
        if e != drop:
            adj[e[0]].append(e[1])
            adj[e[1]].append(e[0])
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def _is_cycle(n: int, edges) -> bool:
    deg = Counter(v for e in edges for v in e)
    return (len(edges) == n and all(deg[v] == 2 for v in range(n))
            and _connected_without(n, edges, None))


def _swapped(start: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    s = list(start)
    s[i], s[j] = s[j], s[i]
    return tuple(s)


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

class Instance:
    def __init__(self, family: str, n: int, k: int, edges, goal, graph):
        self.family, self.n, self.k = family, n, k
        self.edges = edges
        self.start = tuple(range(k))
        self.goal = goal
        self.graph = graph
        self._reach = None

    def reach(self, pk) -> set:
        """The definitional answer: the start state's reachability class."""
        if self._reach is None:
            self._reach = pk.pebbles.reachable_states(self.graph, self.start)
        return self._reach

    def swappable(self, pk, i: int, j: int) -> bool:
        return _swapped(self.start, i, j) in self.reach(pk)

    def win(self, pk) -> bool:
        return len(self.reach(pk)) == perm(self.n, self.k)


class Game:
    def __init__(self, pk, seed: int):
        self.pk = pk
        self.seed = seed
        self.rounds: dict[int, list[Instance]] = {}
        self.instances(0)       # later rounds are made between rounds

    def instances(self, r: int) -> list[Instance]:
        """Round r's instances, made from (seed, r) alone."""
        if r not in self.rounds:
            rng = random.Random(f"game:{self.seed}:{r}")
            out = []
            for family, n, k in CELLS:
                edges = _relabel(rng, n, MAKERS[family](rng, n))
                goal = _walk(rng, n, edges, tuple(range(k)), GOAL_WALK)
                out.append(Instance(family, n, k, edges, goal,
                                    self.pk.graphs.Graph.from_edges(n, edges)))
            self.rounds[r] = out
        return self.rounds[r]

    def warm_up(self) -> None:
        g = self.pk.graphs.Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        self.pk.pebbles.solve(g, (0, 1), (1, 0))
        self.pk.structure.structure_witness(g, 2)

    def round_ops(self, r: int) -> list[Op]:
        ops: list[Op] = []
        for inst in self.instances(r):
            ops.extend(self._instance_ops(inst))
        return ops

    def _instance_ops(self, inst: Instance) -> list[Op]:
        pk = self.pk
        pebbles, structure = pk.pebbles, pk.structure
        g, k, n, start = inst.graph, inst.k, inst.n, inst.start
        label = f"{inst.family} n={n} k={k}"
        pairs = list(itertools.combinations(range(k), 2))

        def check_reachable(res, exc, counters):
            problems = unexpected(exc)
            if not problems:
                inst._reach = res
                cfg_connected, grp = structure.pebble_group_fast(g, k)
                expected = comb(n, k) * grp.order()
                if not cfg_connected or len(res) != expected:
                    problems.append(f"{len(res)} states, expected {expected}")
                if start not in res:
                    problems.append("class misses the start state")
                counters["states_returned"] += len(res)
            return single(problems)

        def check_solve(plan, exc, counters):
            problems = unexpected(exc)
            if not problems:
                if plan is None:
                    problems.append("reachable goal reported unreachable")
                else:
                    try:
                        pebbles.validate_move_sequence(g, plan)
                    except pk.ValidationError as e:
                        problems.append(f"illegal plan: {e}")
                    if plan[0] != start or plan[-1] != inst.goal:
                        problems.append("plan does not run from start to goal")
                    if len(plan) > GOAL_WALK + 1:
                        problems.append("plan longer than the walk that made the goal")
            return single(problems)

        def call_group():
            grp = structure.pebble_permutation_group(g, start)
            members = [(i, j) for i, j in pairs
                       if pk.permgroups.transposition(k, i, j) in grp]
            return grp, members

        def check_group(res, exc, counters):
            problems = unexpected(exc)
            if not problems:
                grp, members = res
                for i, j in pairs:
                    if ((i, j) in members) != inst.swappable(pk, i, j):
                        problems.append(f"membership of ({i} {j}) is wrong")
                base = frozenset(start)
                offered = sum(1 for s in inst.reach(pk) if frozenset(s) == base) - 1
                counters["generators_offered"] += offered
                counters["generators_kept"] += len(grp.generators)
            return single(problems)

        def check_colour(col, exc, counters):
            if isinstance(exc, pk.ValidationError) and inst.win(pk):
                return single([])          # the typed refusal on a win graph
            problems = unexpected(exc)
            if not problems:
                problems += _colour_problems(pk, inst, col)
            return single(problems)

        def check_win(res, exc, counters):
            problems = unexpected(exc)
            if not problems and res != inst.win(pk):
                problems.append(f"is_k_pebble_win says {res}")
            return single(problems)

        def check_structure(rep, exc, counters):
            problems = unexpected(exc)
            if not problems:
                problems += _structure_problems(pk, inst, rep)
            inst._reach = None             # last query of the instance
            return single(problems)

        # solve first: its search stops at a seeded goal, so its memory
        # varies, and nothing else of the instance is alive yet
        return [
            Op("solve", label, lambda: pebbles.solve(g, start, inst.goal),
               check_solve),
            Op("reachable", label, lambda: pebbles.reachable_states(g, start),
               check_reachable),
            Op("group", label, call_group, check_group),
            Op("colour", label, lambda: structure.rb_colouring(g, start),
               check_colour),
            Op("win", label, lambda: structure.is_k_pebble_win(g, k), check_win),
            Op("structure", label, lambda: structure.structure_witness(g, k),
               check_structure),
        ]


def _colour_problems(pk, inst: Instance, col) -> list[str]:
    k = inst.k
    reds = [i for i in range(k) if col.get(i) == "r"]
    blues = [i for i in range(k) if col.get(i) == "b"]
    if len(reds) + len(blues) != k or not reds or not blues:
        return [f"colouring {col} is not a two-class split"]
    return [f"red {i} and blue {j} can swap" for i in reds for j in blues
            if inst.swappable(pk, i, j)]


def _structure_problems(pk, inst: Instance, rep) -> list[str]:
    if rep.pebble_win != inst.win(pk):
        return [f"pebble_win={rep.pebble_win} disagrees with the BFS"]
    if rep.pebble_win:
        return []
    w = rep.witness
    problems = []
    if w is None:
        return ["non-win graph without a witness"]
    seq = tuple(w.vertices)
    if not pk.graphs.is_bare_path(inst.graph, seq):
        problems.append(f"witness {seq} is not a bare path")
    if inst.n - len(seq) > inst.k:
        problems.append(f"witness {seq} misses more than k vertices")
    if not _is_cycle(inst.n, inst.edges):
        for a, b in zip(seq, seq[1:]):
            if _connected_without(inst.n, inst.edges, (min(a, b), max(a, b))):
                problems.append(f"witness edge ({a}, {b}) is not a bridge")
    if rep.colouring is None:
        problems.append("non-win graph without a colouring")
    else:
        problems += _colour_problems(pk, inst, rep.colouring)
    return problems


def build(pk, seed: int) -> Game:
    return Game(pk, seed)
