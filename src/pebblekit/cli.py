"""Batch command-line surface.

Every verb validates its inputs, calls the library, and prints a single
JSON document on stdout.  Exit codes: 0 success, 2 validation error,
3 resource cap, memory included.  Diagnostics go to stderr only.  No
algorithmic logic lives here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import dot
from .errors import NoLinkageError, PebbleKitError, ResourceCapError, ValidationError
from .graphs import Graph, _is_int, parse_graph
from .linkage import find_linkage, realize_transition
from .pebbles import DEFAULT_STATE_CAP, solve
from .permgroups import cycle_notation
from .rays import is_linear_family, ray_graph
from .structure import (is_k_pebble_win, pebble_permutation_group,
                        structure_witness, verify_structure_theorem)
from .worlds import (DEFAULT_WINDOW_CAP, WORLD_KINDS, Truncation, World,
                     canonical_rays, chebyshev_ball, make_world, truncate,
                     world_from_json_dict)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3


def _load_graph(path: str, fmt: str | None) -> Graph:
    text = Path(path).read_text()
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "edge-list"
    return parse_graph(text, fmt)


def _refuse_beside(option: str, why: str, others: dict) -> None:
    """Refuse the options of ``others`` (flag to value) given beside
    ``option``, which would drop them."""
    given = [opt for opt, value in others.items() if value is not None]
    if given:
        raise ValidationError(
            f"{', '.join(given)} cannot be given beside {option}, {why}")


def _load_world(args) -> tuple[World, int | None]:
    """The world the arguments name, and the depth its file gives (None
    without a file or a depth in it)."""
    if args.world_file:
        _refuse_beside("--world-file", "which names the whole world",
                       {"--world": args.world, "--base": args.base,
                        "--world-k": args.world_k})
        doc = json.loads(Path(args.world_file).read_text())
        world = world_from_json_dict(doc)
        depth = doc.get("depth")
        if "depth" in doc and not _is_int(depth):
            raise ValidationError(f"world depth must be an integer, got {depth!r}")
        return world, depth
    if not args.world:
        raise ValidationError("give either --world or --world-file")
    base = _load_graph(args.base, None) if args.base else None
    return make_world(args.world, base=base, k=args.world_k), None


def _window(args) -> Truncation:
    """The window a world verb works in, at ``--depth``, else at the world
    file's depth."""
    world, file_depth = _load_world(args)
    depth = file_depth if args.depth is None else args.depth
    if depth is None:
        raise ValidationError("give --depth or put a depth in the world file")
    return truncate(world, depth, cap=args.window_cap)


def _is_int_array(doc) -> bool:
    return isinstance(doc, list) and all(_is_int(x) for x in doc)


def _parse_state(text: str) -> tuple[int, ...]:
    doc = json.loads(text)
    if not _is_int_array(doc):
        raise ValidationError(f"expected a JSON array of vertex indices, got {text!r}")
    return tuple(doc)


def _parse_moves(text: str) -> list[tuple[int, ...]]:
    doc = json.loads(text)
    if not isinstance(doc, list) or not all(_is_int_array(s) for s in doc):
        raise ValidationError(
            f"expected a JSON array of arrays of ray positions, got {text!r}")
    return [tuple(s) for s in doc]


def _parse_rays(world: World, spec: str | None, window_cap: int):
    if spec is None:
        raise ValidationError("give --rays, e.g. canonical:4")
    if spec.startswith("canonical:"):
        m = int(spec.split(":", 1)[1])
        # m disjoint rays need m vertices in any window that meets them
        # all, so the window cap bounds m before any ray is built
        if m > window_cap:
            raise ResourceCapError(
                f"{m} rays exceed the window cap of {window_cap} vertices")
        return canonical_rays(world, m)
    raise ValidationError(f"unsupported ray family spec {spec!r} (use canonical:M)")


def _parse_positions(text: str, m: int) -> list[int]:
    out = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    for i in out:
        if not (0 <= i < m):
            raise ValidationError(f"position {i} out of range for {m} rays")
    return out


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> dict:
    g = _load_graph(args.graph, args.format)
    start = _parse_state(args.start)
    goal = _parse_state(args.goal)
    seq = solve(g, start, goal, cap=args.state_cap)
    if seq is None:
        return {"achievable": False, "states": None}
    return {"achievable": True, "states": [list(s) for s in seq],
            "moves": len(seq) - 1}


def _cmd_group(args) -> dict:
    g = _load_graph(args.graph, args.format)
    state = _parse_state(args.state)
    grp = pebble_permutation_group(g, state, cap=args.state_cap)
    return {
        "degree": grp.degree,
        "order": grp.order(),
        "symmetric": grp.is_symmetric(),
        "generators": [list(p) for p in grp.generators],
        "generators_cycles": [cycle_notation(p) for p in grp.generators],
    }


def _cmd_win(args) -> dict:
    g = _load_graph(args.graph, args.format)
    return {"pebble_win": is_k_pebble_win(g, args.k, cap=args.state_cap)}


def _cmd_structure(args) -> dict:
    g = _load_graph(args.graph, args.format)
    return structure_witness(g, args.k, cap=args.state_cap).to_json_dict()


def _cmd_verify(args) -> dict:
    if not args.structure:
        raise ValidationError("verify requires --structure")
    return verify_structure_theorem(
        args.n_max, workers=args.workers, progress=lambda row, seconds: print(
            f"pebblekit: n={row['n']} classes={row['classes']} {seconds:.1f} s",
            file=sys.stderr, flush=True))


def _cmd_raygraph(args) -> dict:
    w, file_depth = _load_world(args)
    if file_depth is not None:
        raise ValidationError(
            "raygraph reads no window depth: drop the world file's 'depth' "
            "and give the start depth as --d0")
    rays = _parse_rays(w, args.rays, args.window_cap)
    rg = ray_graph(w, rays, d0=args.d0, window_cap=args.window_cap)
    doc = rg.to_json_dict()
    doc["linear"] = is_linear_family(rg) if rg.stabilized else None
    return doc


def _linkage_answer(t, args, search) -> dict:
    """The answer of ``search(X)``, X the ``--x-ball`` ball or empty: its
    linkage, or the window's "no" as a result, not an error."""
    x = set(chebyshev_ball(t, args.x_ball)) if args.x_ball is not None else set()
    try:
        lk = search(x)
    except NoLinkageError as exc:
        return {"linkage": None, "reason": "no-linkage-at-depth",
                "depth": exc.depth}
    return {"linkage": lk.to_json_dict(t), "depth": t.depth}


def _cmd_linkage(args) -> dict:
    t = _window(args)
    rays = _parse_rays(t.world, args.rays, args.window_cap)
    src = [rays[i] for i in _parse_positions(args.source, len(rays))]
    tgt = [rays[i] for i in _parse_positions(args.target, len(rays))]
    sigma = None
    if args.sigma:
        targets = _parse_positions(args.sigma, len(tgt))
        sigma = {i: t_pos for i, t_pos in enumerate(targets)}
    return _linkage_answer(t, args, lambda x: find_linkage(t, src, tgt, x, sigma))


def _cmd_transition(args) -> dict:
    t = _window(args)
    rays = _parse_rays(t.world, args.rays, args.window_cap)
    moves = _parse_moves(args.moves)
    # the ray graph reads deeper shells than the window: bound them too
    rg = ray_graph(t.world, rays, d0=max(4, t.depth), window_cap=args.window_cap)
    doc = _linkage_answer(t, args, lambda x: realize_transition(t, rays, moves, x, rg=rg))
    if doc["linkage"] is not None:
        doc["induced"] = doc["linkage"]["sigma"]
    return doc


def _cmd_export_dot(args) -> dict:
    if args.graph:
        _refuse_beside("--graph", "which draws a graph, not a world window",
                       {"--world": args.world, "--world-file": args.world_file,
                        "--base": args.base, "--world-k": args.world_k,
                        "--rays": args.rays, "--depth": args.depth})
        g = _load_graph(args.graph, args.format)
        text = dot.graph_to_dot(g)
    else:
        if args.format is not None:
            raise ValidationError("--format is read only with --graph")
        t = _window(args)
        rays = _parse_rays(t.world, args.rays, args.window_cap) if args.rays else None
        text = dot.truncation_to_dot(t, rays)
    Path(args.out).write_text(text)
    return {"written": args.out, "bytes": len(text)}


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_graph_args(p):
    p.add_argument("--graph", required=True, help="graph file (json or edge list)")
    p.add_argument("--format", choices=["edge-list", "json"], default=None)


def _add_world_args(p):
    p.add_argument("--world", choices=WORLD_KINDS)
    p.add_argument("--world-file", help="world descriptor JSON file")
    p.add_argument("--base", help="base graph JSON (product worlds)")
    p.add_argument("--world-k", type=int, help="k for the dominated ray")
    p.add_argument("--rays", help="ray family, e.g. canonical:4")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pebblekit",
        description="pebble games, pebble-permutation groups, ray graphs, linkages")
    ap.add_argument("--pretty", action="store_true", help="indented output")
    ap.add_argument("--state-cap", type=int, default=DEFAULT_STATE_CAP,
                    help="most pebble configurations reached (C(n, k) on a "
                         "connected graph) by group, win and structure; "
                         "for solve, also the most labelled states stored")
    ap.add_argument("--window-cap", type=int, default=DEFAULT_WINDOW_CAP)
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("solve", help="shortest pebble move sequence")
    _add_graph_args(p)
    p.add_argument("--start", required=True, help="JSON array of vertices")
    p.add_argument("--goal", required=True, help="JSON array of vertices")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("group", help="pebble-permutation group of a state")
    _add_graph_args(p)
    p.add_argument("--state", required=True, help="JSON array of vertices")
    p.set_defaults(fn=_cmd_group)

    p = sub.add_parser("win", help="is the graph k-pebble-win")
    _add_graph_args(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_win)

    p = sub.add_parser("structure", help="pebble-win decision with witness")
    _add_graph_args(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_structure)

    p = sub.add_parser("verify", help="exhaustive small-graph sweeps")
    p.add_argument("--structure", action="store_true",
                   help="run the bare-path structure sweep")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("raygraph", help="ray graph of a canonical family")
    _add_world_args(p)
    p.add_argument("--d0", type=int, default=10)
    p.set_defaults(fn=_cmd_raygraph)

    p = sub.add_parser("linkage", help="find a linkage between ray families")
    _add_world_args(p)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--source", required=True, help="comma list of ray positions")
    p.add_argument("--target", required=True, help="comma list of ray positions")
    p.add_argument("--sigma", help="comma list: target position per source")
    p.add_argument("--x-ball", type=int, default=None,
                   help="avoid the ball of this radius")
    p.set_defaults(fn=_cmd_linkage)

    p = sub.add_parser("transition", help="realize a pebble move sequence as a linkage")
    _add_world_args(p)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--moves", required=True, help="JSON array of game states")
    p.add_argument("--x-ball", type=int, default=None)
    p.set_defaults(fn=_cmd_transition)

    p = sub.add_parser("export-dot", help="write a DOT rendering")
    p.add_argument("--graph", help="graph file")
    p.add_argument("--format", choices=["edge-list", "json"], default=None)
    _add_world_args(p)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_dot)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        doc = args.fn(args)
    except (ResourceCapError, MemoryError) as exc:
        # a MemoryError means a cap above what the machine holds
        print(f"pebblekit: resource cap: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_RESOURCE
    except (PebbleKitError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"pebblekit: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(json.dumps(doc, indent=2 if args.pretty else None, sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
