"""pebblekit: pebble-pushing games on finite graphs and ray/linkage
analysis on finitely presented infinite graphs.

The package keeps two layers deliberately separate: the finite layer
(graphs, the pebble game, pebble-permutation groups, the structure
sweep) answers questions exactly; the infinite layer (worlds, ray
graphs, linkages) answers them at a chosen window depth and says so.
"""

from .errors import (GraphParseError, LinkageCheckError, NoLinkageError,
                     PebbleKitError, ResourceCapError, StateCapExceeded,
                     ValidationError, WindowCapExceeded)
from .graphs import (BarePath, Graph, bridges, is_connected, is_cycle_graph,
                     maximal_bare_paths, parse_graph)
from .pebbles import (DEFAULT_STATE_CAP, GameState, MoveSequence,
                      is_achievable, legal_moves, reachable_states, solve,
                      validate_move_sequence)
from .permgroups import PermGroup, compose, cycle_notation, inverse, transposition
from .structure import (BarePathWitness, StructureReport, is_k_pebble_win,
                        pebble_permutation_group, rb_colouring,
                        structure_witness, verify_structure_theorem)
from .worlds import (RaySpec, Truncation, World, canonical_rays,
                     chebyshev_ball, make_world, truncate)
from .rays import RayGraph, is_linear_family, ray_graph
from .linkage import Linkage, check_linkage, find_linkage, realize_transition
from .dot import graph_to_dot, truncation_to_dot

__version__ = "0.1.0"

__all__ = [
    "BarePath", "BarePathWitness", "GameState", "Graph", "GraphParseError",
    "Linkage", "LinkageCheckError", "MoveSequence", "NoLinkageError",
    "PebbleKitError", "PermGroup", "RayGraph", "RaySpec", "ResourceCapError",
    "StateCapExceeded", "StructureReport", "Truncation", "ValidationError",
    "WindowCapExceeded", "World", "bridges", "canonical_rays",
    "check_linkage", "chebyshev_ball", "compose", "cycle_notation",
    "find_linkage", "graph_to_dot", "inverse", "is_achievable",
    "is_connected", "is_cycle_graph", "is_k_pebble_win", "is_linear_family",
    "legal_moves", "make_world", "maximal_bare_paths", "parse_graph",
    "pebble_permutation_group", "ray_graph",
    "rb_colouring", "reachable_states", "realize_transition", "solve",
    "structure_witness", "transposition", "truncate",
    "truncation_to_dot", "validate_move_sequence", "verify_structure_theorem",
    "DEFAULT_STATE_CAP",
]
