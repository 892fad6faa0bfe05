"""Group-level structure of the pebble-pushing game.

The pebble-permutation group of a state is computed on the space of
unordered pebble configurations, which has C(n, k) points instead of the
n!/(n-k)! labelled states.  The labelled state space is a covering of
that configuration graph, so the group is generated by the loop
transports of the non-tree edges of any spanning tree (one permutation
per non-tree edge).  That BFS lives in ``pebbles._config_group``, which
also answers reachability, and the caps here bound configurations, not
labelled states.  It stops once transpositions joining all k pebbles
certify S_k, and sifts its other transports into a stabilizer chain only
when they do not; at S_k every arrangement of k pebbles on their
component is reachable.  A labelled-state oracle checks it.

The sweep walks the class tree of ``graphs.augmentations``: each class
is a representative in the labelling its parent gave it, with |Aut G|,
and none is relabelled canonically, since no sweep answer depends on
the labels.

On a connected graph every configuration of k pebbles reaches every
other, so the graph is k-pebble-win exactly when the group at one state
is all of S_k.  ``is_k_pebble_win``, ``structure_witness`` and the sweep
all read that rule at the base state (0, ..., k-1).
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from math import comb, factorial
from typing import Callable

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
# connected classes on n vertices (OEIS A001349): the deepest level's parents
_CLASS_COUNTS = (1, 1, 1, 2, 6, 21, 112, 853, 11_117, 261_080)


def _sweep_children(job) -> tuple[int, int, int, list[dict],
                                  list[tuple[tuple[int, ...], int]]]:
    """Sweep the classes on n vertices whose canonical parents are in one
    chunk of (masks, |Aut G|) pairs.  Returns (classes, checked, non_win,
    failures, children): the classes' (masks, |Aut G|), kept when ``keep``
    asks for the next level.

    Each class stands for its n!/|Aut G| labelled graphs: k-pebble-win and
    the bare-path witness do not change under relabelling.  k runs
    downward from n-2; a k-pebble-win graph is also j-pebble-win for
    every j < k (drop the extra pebbles and project the moves), so the
    scan stops at the first win and counts the k-1 smaller instances as
    checked wins.  The suite checks the counts against the labelled sweep
    for n <= 6.
    """
    n, parents, keep = job
    bases = [tuple(range(k)) for k in range(n)]
    checked = non_win = 0
    failures: list[dict] = []
    children: list[tuple[tuple[int, ...], int]] = []
    for parent, parent_aut in parents:
        for adj, aut in augmentations(parent, parent_aut):
            children.append((adj, aut))
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
    return len(children), checked, non_win, failures, children if keep else []


def verify_structure_theorem(n_max: int, workers: int | None = None,
                             progress: Callable[[dict, float], None] | None = None) -> dict:
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
    ``failures_detail`` names a class representative and its k.

    One level of the class tree runs at a time: each job sweeps the
    children of up to SWEEP_CHUNK parent classes and hands back their
    (masks, |Aut G|) as the next level's parents.  ``workers`` spreads the
    jobs over one pool, at most one process per CPU and per job of the
    deepest level; by default the sweep runs in this process up to n = 7
    and on every CPU beyond.  ``progress(row, seconds)`` is called as each
    n finishes, with its ``per_n`` row and the seconds since the start.
    """
    if not (1 <= n_max <= SWEEP_MAX_N):
        raise ValidationError(f"n_max must be between 1 and {SWEEP_MAX_N}")
    if workers is None:
        workers = (os.cpu_count() or 1) if n_max > 7 else 1
    workers = min(workers, os.cpu_count() or 1, -(-_CLASS_COUNTS[n_max - 1] // SWEEP_CHUNK))
    t0 = time.perf_counter()
    if workers > 1:
        import multiprocessing as mp
    per_n: list[dict] = []
    failures: list[dict] = []
    level: list[tuple[tuple[int, ...], int]] = [((), 1)]
    with mp.get_context("fork").Pool(workers) if workers > 1 else nullcontext() as pool:
        for n in range(1, n_max + 1):
            jobs = [(n, level[i:i + SWEEP_CHUNK], n < n_max)
                    for i in range(0, len(level), SWEEP_CHUNK)]
            results = (pool.map(_sweep_children, jobs) if pool
                       else [_sweep_children(job) for job in jobs])
            classes, checked, non_win, fails, children = zip(*results)
            per_n.append({"n": n, "classes": sum(classes), "checked": sum(checked),
                          "non_pebble_win": sum(non_win)})
            failures += [f for part in fails for f in part]
            level = [c for part in children for c in part]
            if progress is not None:
                progress(per_n[-1], time.perf_counter() - t0)
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
