#!/usr/bin/env python3
"""Finitely presented infinite graphs and their ray graphs.

A ray graph has one vertex per ray of a disjoint family, with an edge
when the two rays are joined by infinitely many disjoint paths avoiding
the rest of the family.  At desk scale the edge test runs in several
disjoint window shells and re-checks stability one depth deeper.  The
classic answers: vertical columns of the half grid form a path (that end
is linear), the four-directional families of the full grid form cycles,
and a product G x Z remembers G itself.
"""

from pathlib import Path

from pebblekit import (Graph, canonical_rays, is_linear_family, make_world,
                       ray_graph, truncate, truncation_to_dot)


def show(title):
    print(f"\n=== {title} ===")


show("windows")
fg = make_world("full-grid")
hg = make_world("half-grid")
hexw = make_world("hex-half-grid")
for name, w, d in [("full grid", fg, 2), ("half grid", hg, 2),
                   ("hex half grid", hexw, 3)]:
    t = truncate(w, d)
    print(f"{name} depth {d}: {t.graph.n} vertices, {len(t.graph.edges)} edges")

show("half grid: columns form a path")
rg = ray_graph(hg, canonical_rays(hg, 4), d0=10)
print("edges:", sorted(rg.edges), "stabilized:", rg.stabilized)
print("linear family?", is_linear_family(rg))

show("full grid: directional families form cycles")
for m in (4, 6):
    rg = ray_graph(fg, canonical_rays(fg, m), d0=10)
    print(f"m={m}: edges {sorted(rg.edges)}  (every vertex has degree 2)")

show("products remember their base graph")
triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
for name, base in [("triangle", triangle), ("K_{1,3}", star)]:
    w = make_world("product-Z", base=base)
    rg = ray_graph(w, canonical_rays(w, base.n), d0=8)
    print(f"{name} x Z: ray graph edges {sorted(rg.edges)} "
          f"-> linear: {is_linear_family(rg)}")

show("the dominated ray: a high-degree end")
dr = make_world("dominated-ray", k=4)
rays = canonical_rays(dr, 5)             # four handle rays, then the spine
rg = ray_graph(dr, rays, d0=8)
print("edges:", sorted(rg.edges))
print("spine degree:", rg.degree(4))

show("DOT export")
t = truncate(hg, 5)
out = Path("half_grid_columns.dot")
out.write_text(truncation_to_dot(t, canonical_rays(hg, 3)))
print(f"wrote {out} (render with: neato -n2 -Tpng {out} -o out.png)")
