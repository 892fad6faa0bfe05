"""DOT export for finite graphs and truncation windows.

Truncations render with their coordinates as fixed positions and rays in
colour.
"""

from __future__ import annotations

from .graphs import Graph
from .worlds import RaySpec, Truncation

_RAY_COLORS = ("red", "blue", "forestgreen", "darkorange", "purple",
               "teal", "magenta", "saddlebrown")


def graph_to_dot(g: Graph) -> str:
    lines = ["graph G {", "  node [shape=circle];"]
    for v in range(g.n):
        label = g.labels[v] if g.labels else str(v)
        label = label.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        lines.append(f'  {v} [label="{label}"];')
    for u, v in g.sorted_edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def truncation_to_dot(t: Truncation, rays: list[RaySpec] | None = None) -> str:
    ray_of_vertex: dict[int, int] = {}
    if rays:
        for pos, r in enumerate(rays):
            for v in r.positions_in(t):
                ray_of_vertex[v] = pos
    lines = ["graph W {", "  node [shape=point];"]
    for v, (x, y) in enumerate(t.coords):
        attrs = [f'pos="{x},{y}!"']
        if v in ray_of_vertex:
            color = _RAY_COLORS[ray_of_vertex[v] % len(_RAY_COLORS)]
            attrs.append(f"color={color}")
            attrs.append("shape=circle")
            attrs.append("width=0.15")
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in t.graph.sorted_edges():
        attrs = []
        ru, rv = ray_of_vertex.get(u), ray_of_vertex.get(v)
        if ru is not None and ru == rv:
            attrs.append(f"color={_RAY_COLORS[ru % len(_RAY_COLORS)]}")
            attrs.append("penwidth=2")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {u} -- {v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
