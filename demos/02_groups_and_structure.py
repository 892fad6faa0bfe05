#!/usr/bin/env python3
"""Pebble-permutation groups and the shape of graphs that lose.

For a state X, the permutations sigma with X^sigma reachable from X form
a group.  A connected graph is k-pebble-win exactly when that group is
all of S_k (then every state reaches every other).  Graphs that are NOT
k-pebble-win are extremely constrained: they carry a maximal bare path
(interior degrees 2) covering all but at most k vertices whose edges are
all bridges, unless the whole graph is a cycle.  The exhaustive sweep at
the end checks that statement on every connected graph up to 6
vertices, one graph per isomorphism class.
"""

from pebblekit import (Graph, cycle_notation, is_k_pebble_win,
                       pebble_permutation_group, rb_colouring,
                       structure_witness, verify_structure_theorem)


def show(title):
    print(f"\n=== {title} ===")


show("groups on the classics")
p5 = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
k5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
for name, g, state in [("5-path", p5, (0, 1, 2)),
                       ("6-cycle", c6, (0, 1, 2)),
                       ("K5", k5, (0, 1, 2))]:
    grp = pebble_permutation_group(g, state)
    gens = ", ".join(cycle_notation(p) for p in grp.generators) or "none"
    print(f"{name:8s} 3 pebbles: order {grp.order():>2}  generators: {gens}")

show("the win decision")
for name, g, k in [("5-path", p5, 2), ("6-cycle", c6, 3), ("K5", k5, 3)]:
    print(f"{name} with k={k}: {'win' if is_k_pebble_win(g, k) else 'lose'}")

show("red/blue colourings certify the losses")
print("5-path, pebbles at (0, 4):", rb_colouring(p5, (0, 4)))
print("6-cycle, three pebbles:   ", rb_colouring(c6, (0, 1, 2)))
print("(no red pebble can ever swap with a blue one)")

show("structural witnesses")
tadpole = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0),
                               (0, 4), (4, 5), (5, 6)])
rep = structure_witness(tadpole, 4)
print("4-cycle + pendant path, k=4:")
print("   pebble_win:", rep.pebble_win)
print("   bare path:", rep.witness.vertices,
      "(all bridges)" if all(rep.witness.edge_is_bridge) else "(cycle)")
rep = structure_witness(c6, 3)
print("6-cycle, k=3: witness is the cycle itself ->", rep.witness.cycle)

show("exhaustive sweep up to 6 vertices")
report = verify_structure_theorem(6)
print({k: v for k, v in report.items()
       if k not in ("failures_detail", "per_n")})
for row in report["per_n"]:
    print(f"   n={row['n']}: {row['classes']:>3} classes up to isomorphism, "
          f"{row['checked']:>6} labelled (graph, k) instances, "
          f"{row['non_pebble_win']:>4} not won")
assert report["failures"] == 0
print("every losing graph carries its bare-path witness.")
