"""Group-level structure of the pebble-pushing game.

The pebble-permutation group of a state is computed on the space of
unordered pebble configurations, which has C(n, k) points instead of the
n!/(n-k)! labelled states.  The labelled state space is a covering of
that configuration graph, so the group is generated by the loop
transports of the non-tree edges of any spanning tree (one permutation
per non-tree edge).  That BFS lives in ``pebbles._config_group``, which
also answers reachability, and the caps here bound configurations, not
labelled states.  It stops as soon as its orbit product certifies S_k,
and then every arrangement of k pebbles on the pebbles' component is
reachable.  The suite checks it against a labelled-state oracle.

On a connected graph every configuration of k pebbles reaches every
other, so the graph is k-pebble-win exactly when the group at one state
is all of S_k.  ``is_k_pebble_win``, ``structure_witness`` and the sweep
all read that rule at the base state (0, ..., k-1).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from math import comb, factorial

from .errors import PebbleKitError, ValidationError
from .graphs import (CLASSES_MAX_N, Graph, adjacency_masks, augmentations,
                     bridges, graph_from_masks, is_connected, is_cycle_graph,
                     maximal_bare_paths)
from .pebbles import (DEFAULT_STATE_CAP, GameState, _config_group,
                      validate_state)
from .permgroups import PermGroup, transposition


class StructureWitnessNotFound(PebbleKitError):
    """No conforming bare-path witness exists.

    A connected graph with at least k+2 vertices that is not k-pebble-win
    always carries one, so seeing this means a bug, not a graph.
    """


# ---------------------------------------------------------------------------
# The group and the win decision
# ---------------------------------------------------------------------------

def pebble_permutation_group(g: Graph, start: GameState,
                             cap: int = DEFAULT_STATE_CAP) -> PermGroup:
    """The group of label permutations achievable from ``start``.

    Permutation p is in the group when the state placing pebble i on
    ``start[p[i]]`` is reachable.  ``cap`` bounds the C(n, k) pebble
    configurations searched, not the labelled states.  Membership queries
    for arbitrary permutations go through the returned group's stabilizer
    chain.
    """
    s = validate_state(g, start)
    if not is_connected(g):
        raise ValidationError("graph must be connected")
    return _config_group(adjacency_masks(g), g.n, s, cap)[1]


def pebble_group_fast(g: Graph, k: int,
                      cap: int = DEFAULT_STATE_CAP) -> tuple[bool, PermGroup]:
    """(connected configuration space, group at the base state) for k
    pebbles.  ``cap`` bounds the configurations searched."""
    if not (1 <= k <= g.n):
        raise ValidationError(f"need 1 <= k <= {g.n}, got k={k}")
    reps, group = _config_group(adjacency_masks(g), g.n, tuple(range(k)), cap)
    reached = comb(reps.bit_count(), k) if isinstance(reps, int) else len(reps)
    return reached == comb(g.n, k), group


def is_k_pebble_win(g: Graph, k: int, cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff every k-pebble game state is achievable from every other.

    Decided on one state: g is connected, so it is k-pebble-win exactly
    when the group at the base state is all of S_k.  ``cap`` bounds the
    configurations searched.
    """
    if not is_connected(g):
        raise ValidationError("graph must be connected")
    return pebble_group_fast(g, k, cap)[1].is_symmetric()


# ---------------------------------------------------------------------------
# Red/blue colouring and the structure witness
# ---------------------------------------------------------------------------

def _rb_from_group(group: PermGroup, k: int) -> dict[int, str]:
    # (i l) = (i j)(j l)(i j), so the transpositions in a group form an
    # equivalence relation: pebble 0's class is 0 and every j with (0 j)
    red = {0} | {j for j in range(1, k) if transposition(k, 0, j) in group}
    if len(red) == k:
        raise ValidationError(
            f"graph is {k}-pebble-win; no red/blue colouring exists")
    return {i: ("r" if i in red else "b") for i in range(k)}


def rb_colouring(g: Graph, start: GameState,
                 cap: int = DEFAULT_STATE_CAP) -> dict[int, str]:
    """Two-colour the pebbles of ``start`` so that no red/blue pair can be
    swapped.

    The red class is pebble 0 with every pebble j whose transposition
    (0 j) lies in the pebble-permutation group; both classes are
    non-empty, and for every red i and blue j the transposition (i j) is
    not in the group.  Errors out when the graph is k-pebble-win for
    k = len(start).
    """
    group = pebble_permutation_group(g, start, cap=cap)
    return _rb_from_group(group, len(start))


@dataclass(frozen=True)
class BarePathWitness:
    vertices: tuple[int, ...]
    edge_is_bridge: tuple[bool, ...]
    cycle: bool


@dataclass
class StructureReport:
    pebble_win: bool
    witness: BarePathWitness | None
    colouring: dict[int, str] | None

    def to_json_dict(self) -> dict:
        out: dict = {"pebble_win": self.pebble_win}
        if self.witness is None:
            out["witness"] = None
        else:
            out["witness"] = {
                "vertices": list(self.witness.vertices),
                "edge_is_bridge": list(self.witness.edge_is_bridge),
                "cycle": self.witness.cycle,
            }
        out["colouring"] = (None if self.colouring is None
                            else {str(i): c for i, c in sorted(self.colouring.items())})
        return out


def _find_witness(g: Graph, k: int) -> BarePathWitness | None:
    """First maximal bare path (lexicographic) covering all but at most k
    vertices whose edges are all bridges, unless the graph is a cycle."""
    cyc = is_cycle_graph(g)
    bridge_set = bridges(g)
    for seq in maximal_bare_paths(g):
        if g.n - len(seq) > k:
            continue
        flags = tuple((min(a, b), max(a, b)) in bridge_set
                      for a, b in zip(seq, seq[1:]))
        if all(flags) or cyc:
            return BarePathWitness(seq, flags, cyc)
    return None


def structure_witness(g: Graph, k: int,
                      cap: int = DEFAULT_STATE_CAP) -> StructureReport:
    """Decide k-pebble-win and, for losing graphs, produce the structural
    witness: a maximal bare path missing at most k vertices whose edges
    are all bridges (or the whole graph is a cycle), plus a red/blue
    colouring of the base state (0, ..., k-1).  ``cap`` bounds the
    configurations searched.
    """
    if not is_connected(g):
        raise ValidationError("graph must be connected")
    if g.n < k + 2:
        raise ValidationError(f"need at least k+2 = {k + 2} vertices, got {g.n}")
    group = pebble_group_fast(g, k, cap)[1]
    if group.is_symmetric():
        return StructureReport(pebble_win=True, witness=None, colouring=None)
    witness = _find_witness(g, k)
    if witness is None:
        raise StructureWitnessNotFound(
            f"no conforming bare path for k={k} in {g!r}")
    return StructureReport(pebble_win=False, witness=witness,
                           colouring=_rb_from_group(group, k))


# ---------------------------------------------------------------------------
# Exhaustive sweep
# ---------------------------------------------------------------------------

# the sweep walks the class generator's tree, so it stops where that does
SWEEP_MAX_N = CLASSES_MAX_N
# parent classes per pool job: small enough to balance two workers at n = 7
SWEEP_CHUNK = 16


def _sweep_children(job) -> tuple[int, int, int, int, list[dict]]:
    """Sweep the classes on n vertices whose canonical parents are in one
    chunk.  Returns (n, classes, checked, non_win, failures).

    Each class stands for its n!/|Aut G| labelled graphs: k-pebble-win and
    the bare-path witness do not change under relabelling.  k runs
    downward from n-2; a k-pebble-win graph is also j-pebble-win for
    every j < k (drop the extra pebbles and project the moves), so the
    scan stops at the first win and counts the k-1 smaller instances as
    checked wins.  The suite checks the counts against the labelled sweep
    for n <= 6.
    """
    n, parents = job
    bases = [tuple(range(k)) for k in range(n)]
    classes = checked = non_win = 0
    failures: list[dict] = []
    for parent in parents:
        for adj, aut in augmentations(parent):
            classes += 1
            copies = factorial(n) // aut
            g: Graph | None = None
            for k in range(n - 2, 0, -1):
                if _config_group(adj, n, bases[k])[1].is_symmetric():
                    checked += k * copies
                    break
                checked += copies
                non_win += copies
                if g is None:
                    g = graph_from_masks(adj)
                if _find_witness(g, k) is None:
                    failures.append({
                        "n": n,
                        "k": k,
                        "representative": [list(e) for e in g.sorted_edges()],
                        "labelled_copies": copies,
                        "reason": "no conforming bare-path witness",
                    })
    return n, classes, checked, non_win, failures


def verify_structure_theorem(n_max: int, workers: int | None = None) -> dict:
    """Check the structure theorem on every connected graph with
    n <= n_max vertices and every 1 <= k <= n-2: each instance that is not
    k-pebble-win has a conforming bare-path witness.

    One representative per isomorphism class is decided, weighted by the
    n!/|Aut G| labelled graphs in its class, so ``checked``,
    ``non_pebble_win`` and ``failures`` count labelled (graph, k)
    instances.  Returns
    {"n_max", "checked", "non_pebble_win", "failures", "elapsed_ms",
    "per_n", "failures_detail"}; ``per_n`` lists, for each n, the classes
    swept and the instances checked and not won, and each entry of
    ``failures_detail`` names a class representative and its k.  ``workers`` spreads the pool jobs, each the
    children of up to SWEEP_CHUNK parent classes, over processes: at most
    one per CPU and one per job.  By default the sweep runs in this
    process up to n = 7 and on every CPU beyond.
    """
    if not (1 <= n_max <= SWEEP_MAX_N):
        raise ValidationError(f"n_max must be between 1 and {SWEEP_MAX_N}")
    if workers is None:
        workers = (os.cpu_count() or 1) if n_max > 7 else 1
    t0 = time.perf_counter()
    jobs = []
    level: list[tuple[int, ...]] = [()]
    for n in range(1, n_max + 1):
        jobs += [(n, level[i:i + SWEEP_CHUNK]) for i in range(0, len(level), SWEEP_CHUNK)]
        if n < n_max:
            level = [c for p in level for c, _ in augmentations(p)]
    workers = max(1, min(workers, len(jobs), os.cpu_count() or 1))
    if workers > 1:
        import multiprocessing as mp
        with mp.get_context("fork").Pool(workers) as pool:
            results = pool.map(_sweep_children, jobs)
    else:
        results = [_sweep_children(job) for job in jobs]
    per_n = [{"n": n, "classes": 0, "checked": 0, "non_pebble_win": 0}
             for n in range(1, n_max + 1)]
    failures: list[dict] = []
    for n, classes, checked, non_win, fails in results:
        row = per_n[n - 1]
        row["classes"] += classes
        row["checked"] += checked
        row["non_pebble_win"] += non_win
        failures.extend(fails)
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return {
        "n_max": n_max,
        "checked": sum(row["checked"] for row in per_n),
        "non_pebble_win": sum(row["non_pebble_win"] for row in per_n),
        "failures": sum(f["labelled_copies"] for f in failures),
        "elapsed_ms": elapsed_ms,
        "per_n": per_n,
        "failures_detail": failures,
    }
