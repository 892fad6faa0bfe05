"""``sweep``: the exhaustive structure-theorem sweep for n <= 6.

A round is one ``verify_structure_theorem(6, workers=1)`` call.  Its input
is the whole space of connected labelled graphs on up to six vertices, so
the seed selects nothing.  ``workers=1`` is deliberate: each n <= 6 is a
single chunk, so a worker pool would add only scheduler noise.

The traced run also replays the sweep's instances through the public
calls (``enumerate_connected_graphs``, ``pebble_group_fast``,
``PermGroup.order``, ``bridges``, ``maximal_bare_paths``), so the layers
inside the sweep are timed without wrapping its private helpers.  The
replay is an independent second count of the same totals.
"""

from __future__ import annotations

from math import factorial

from common import Op

N_MAX = 6
CHECKED = 109_080       # (graph, k) instances for n <= 6
NON_WIN = 6_024

# one call a round: the tail is the slowest call of the run
TAIL_PCT = 100


class Sweep:
    def __init__(self, pk):
        self.pk = pk

    def warm_up(self) -> None:
        self.pk.structure.verify_structure_theorem(4, workers=1)

    def round_ops(self, r: int) -> list[Op]:
        return [Op("sweep", f"verify_structure_theorem({N_MAX})",
                   lambda: self.pk.structure.verify_structure_theorem(N_MAX, workers=1),
                   _check_totals)]

    def replay(self, tracer, counters) -> list[str]:
        """Walk every instance of the sweep through the public calls, with
        the sweep's monotone shortcut, and count what it settles."""
        graphs, structure = self.pk.graphs, self.pk.structure
        checked = non_win = missing = 0
        for n in range(1, N_MAX + 1):
            with tracer.span("graphs.enumerate_connected_graphs"):
                family = list(graphs.enumerate_connected_graphs(n))
            for g in family:
                for k in range(n - 2, 0, -1):
                    cfg_connected, group = structure.pebble_group_fast(g, k)
                    if cfg_connected and group.order() == factorial(k):
                        checked += k
                        counters["shortcut_settled"] += k - 1
                        break
                    checked += 1
                    non_win += 1
                    if not _has_witness(graphs, g, k):
                        missing += 1
        counters["instances_checked"] += checked
        problems = []
        if (checked, non_win) != (CHECKED, NON_WIN):
            problems.append(f"replay counted {checked} checked, {non_win} non-win")
        if missing:
            problems.append(f"replay found {missing} non-win instances without a witness")
        return problems


def _has_witness(graphs, g, k: int) -> bool:
    bridge_set = graphs.bridges(g)
    cycle = graphs.is_cycle_graph(g)
    for seq in graphs.maximal_bare_paths(g):
        if g.n - len(seq) <= k and (cycle or all(
                (min(a, b), max(a, b)) in bridge_set for a, b in zip(seq, seq[1:]))):
            return True
    return False


def _check_totals(rep, exc, counters):
    if exc is not None:
        return CHECKED, CHECKED, [f"raised {type(exc).__name__}: {exc}"]
    problems = []
    if (rep["checked"], rep["non_pebble_win"]) != (CHECKED, NON_WIN):
        problems.append(f"checked {rep['checked']}, non-win {rep['non_pebble_win']}; "
                        f"expected {CHECKED} and {NON_WIN}")
        return CHECKED, CHECKED, problems
    if rep["failures"]:
        problems.append(f"{rep['failures']} instances without a witness")
    return rep["checked"], rep["failures"], problems


def build(pk, seed: int) -> Sweep:
    return Sweep(pk)
