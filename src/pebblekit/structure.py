"""Group-level structure of the pebble-pushing game.

The pebble-permutation group of a state is computed on the space of
unordered pebble configurations, which has C(n, k) points instead of the
n!/(n-k)! labelled states.  The labelled state space is a covering of
that configuration graph, so the group is generated by the loop
transports of the non-tree edges of any spanning tree (one permutation
per non-tree edge).  That BFS lives in ``pebbles._config_group``, which
also answers reachability, and the caps here bound configurations, not
labelled states.  The suite checks it against a labelled-state oracle.

A graph is k-pebble-win exactly when one (equivalently, every) state's
group is all of S_k and the configuration graph is connected; on a
connected graph any configuration can reach any other, so the group
condition is the live one.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from math import comb, factorial

from .errors import PebbleKitError, ValidationError
from .graphs import (Graph, adjacency_masks, bridges, graph_from_mask,
                     is_connected, is_cycle_graph, mask_adjacency,
                     mask_connected, maximal_bare_paths, vertex_pairs)
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


def pebble_group_fast(g: Graph, k: int) -> tuple[bool, PermGroup]:
    """(connected configuration space, group at the base state) for k pebbles."""
    if not (1 <= k <= g.n):
        raise ValidationError(f"need 1 <= k <= {g.n}, got k={k}")
    rep, group = _config_group(adjacency_masks(g), g.n, tuple(range(k)))
    return len(rep) == comb(g.n, k), group


def is_k_pebble_win(g: Graph, k: int) -> bool:
    """True iff every k-pebble game state is achievable from every other.

    Decided on one state: the graph is k-pebble-win exactly when the
    configuration space is connected and the group there is all of S_k.
    """
    if not is_connected(g):
        raise ValidationError("graph must be connected")
    cfg_connected, group = pebble_group_fast(g, k)
    return cfg_connected and group.order() == factorial(k)


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


def structure_witness(g: Graph, k: int) -> StructureReport:
    """Decide k-pebble-win and, for losing graphs, produce the structural
    witness: a maximal bare path missing at most k vertices whose edges
    are all bridges (or the whole graph is a cycle), plus a red/blue
    colouring of the base state (0, ..., k-1).
    """
    if not is_connected(g):
        raise ValidationError("graph must be connected")
    if g.n < k + 2:
        raise ValidationError(f"need at least k+2 = {k + 2} vertices, got {g.n}")
    cfg_connected, group = pebble_group_fast(g, k)
    if cfg_connected and group.order() == factorial(k):
        return StructureReport(pebble_win=True, witness=None, colouring=None)
    witness = _find_witness(g, k)
    if witness is None:
        raise StructureWitnessNotFound(
            f"no conforming bare path for k={k} in {g!r}")
    colouring = _rb_from_group(group, k) if cfg_connected else None
    if colouring is None:
        # Disconnected configuration space cannot happen on a connected
        # graph, but stay honest if it ever did.
        raise PebbleKitError("configuration space disconnected on a connected graph")
    return StructureReport(pebble_win=False, witness=witness, colouring=colouring)


# ---------------------------------------------------------------------------
# Exhaustive sweep
# ---------------------------------------------------------------------------

SWEEP_MAX_N = 7


def _sweep_chunk(args) -> tuple[int, int, list[dict]]:
    """Sweep one mask range for one n.  Returns (checked, non_win, failures).

    k runs downward from n-2; a k-pebble-win graph is also j-pebble-win
    for every j < k (drop the extra pebbles and project the moves), so the
    scan stops at the first win and counts the k-1 smaller instances as
    checked wins.  The suite checks the counts against ``is_k_pebble_win``
    on every instance with n <= 5.
    """
    n, lo, hi = args
    pairs = vertex_pairs(n)
    bases = [tuple(range(k)) for k in range(n)]
    checked = 0
    non_win = 0
    failures: list[dict] = []
    for mask in range(lo, hi):
        adj = mask_adjacency(n, mask, pairs)
        if not mask_connected(n, adj):
            continue
        g: Graph | None = None
        for k in range(n - 2, 0, -1):
            rep, group = _config_group(adj, n, bases[k])
            win = len(rep) == comb(n, k) and group.order() == factorial(k)
            if win:
                checked += k
                break
            checked += 1
            non_win += 1
            if g is None:
                g = graph_from_mask(n, mask)
            if _find_witness(g, k) is None:
                failures.append({
                    "n": n,
                    "k": k,
                    "edges": [list(e) for e in g.sorted_edges()],
                    "reason": "no conforming bare-path witness",
                })
    return checked, non_win, failures


def verify_structure_theorem(n_max: int, workers: int | None = None) -> dict:
    """Sweep every connected labelled graph with n <= n_max and every
    1 <= k <= n-2; assert that each non-k-pebble-win instance has a
    conforming bare-path witness.

    Returns {"checked", "non_pebble_win", "failures", "elapsed_ms",
    "failures_detail"}.  ``workers`` distributes (graph, k) instances
    across processes, at most one per CPU and one per mask range; results
    are aggregated order-independently.
    """
    if not (1 <= n_max <= SWEEP_MAX_N):
        raise ValidationError(f"n_max must be between 1 and {SWEEP_MAX_N}")
    if workers is None:
        workers = os.cpu_count() or 1 if n_max >= 6 else 1
    t0 = time.perf_counter()
    jobs = []
    for n in range(1, n_max + 1):
        total = 1 << len(vertex_pairs(n))
        step = max(1, min(total, 1 << 16))
        for lo in range(0, total, step):
            jobs.append((n, lo, min(total, lo + step)))
    workers = max(1, min(workers, len(jobs), os.cpu_count() or 1))
    if workers > 1:
        import multiprocessing as mp
        with mp.get_context("fork").Pool(workers) as pool:
            results = pool.map(_sweep_chunk, jobs)
    else:
        results = [_sweep_chunk(job) for job in jobs]
    checked = sum(r[0] for r in results)
    non_win = sum(r[1] for r in results)
    failures: list[dict] = []
    for r in results:
        failures.extend(r[2])
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return {
        "n_max": n_max,
        "checked": checked,
        "non_pebble_win": non_win,
        "failures": len(failures),
        "elapsed_ms": elapsed_ms,
        "failures_detail": failures,
    }
