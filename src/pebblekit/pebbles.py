"""The pebble-pushing game on a finite graph.

A game state places k labelled pebbles on k distinct vertices.  A move
slides one pebble along an edge to an unoccupied vertex.  Everything here
is breadth-first search over the state space; the cap is a hard error,
never a truncation, so a wrong "unreachable" is impossible.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .errors import StateCapExceeded, ValidationError
from .graphs import Graph

GameState = tuple[int, ...]
MoveSequence = list[GameState]

DEFAULT_STATE_CAP = 5_000_000


def validate_state(g: Graph, state: Iterable[int]) -> GameState:
    s = tuple(state)
    if not (1 <= len(s) <= g.n):
        raise ValidationError(f"state must place between 1 and {g.n} pebbles, got {len(s)}")
    for v in s:
        if not (0 <= v < g.n):
            raise ValidationError(f"pebble on vertex {v}, out of range for n={g.n}")
    if len(set(s)) != len(s):
        raise ValidationError(f"pebble positions must be distinct, got {s}")
    return s


def legal_moves(g: Graph, state: GameState) -> list[GameState]:
    """All states reachable by a single move, ordered by (pebble index,
    target vertex index)."""
    s = validate_state(g, state)
    adj = g.adjacency()
    occupied = set(s)
    out: list[GameState] = []
    for i, v in enumerate(s):
        for w in adj[v]:
            if w not in occupied:
                out.append(s[:i] + (w,) + s[i + 1:])
    return out


def _bfs(g: Graph, start: GameState, goal: GameState | None,
         cap: int) -> dict[GameState, GameState | None]:
    """Shared BFS core: every state reached, mapped to its BFS parent
    (None for ``start``).

    Stops as soon as ``goal`` is generated, so the goal is in the map iff
    it is reachable; raises StateCapExceeded before holding more than
    ``cap`` states.
    """
    adj = g.adjacency()
    parents: dict[GameState, GameState | None] = {start: None}
    if goal == start:
        return parents
    queue = deque([start])
    while queue:
        s = queue.popleft()
        occupied = set(s)
        for i, v in enumerate(s):
            for w in adj[v]:
                if w in occupied:
                    continue
                t = s[:i] + (w,) + s[i + 1:]
                if t in parents:
                    continue
                if len(parents) >= cap:
                    raise StateCapExceeded(
                        f"state search exceeded cap of {cap} states")
                parents[t] = s
                if t == goal:
                    return parents
                queue.append(t)
    return parents


def reachable_states(g: Graph, start: GameState,
                     cap: int = DEFAULT_STATE_CAP) -> set[GameState]:
    """The full reachability class of ``start``."""
    return set(_bfs(g, validate_state(g, start), None, cap))


def _validate_pair(g: Graph, start: GameState,
                   goal: GameState) -> tuple[GameState, GameState]:
    s = validate_state(g, start)
    t = validate_state(g, goal)
    if len(s) != len(t):
        raise ValidationError("states must place the same number of pebbles")
    return s, t


def is_achievable(g: Graph, start: GameState, goal: GameState,
                  cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff ``goal`` is reachable from ``start`` by a move sequence."""
    s, t = _validate_pair(g, start, goal)
    return t in _bfs(g, s, t, cap)


def solve(g: Graph, start: GameState, goal: GameState,
          cap: int = DEFAULT_STATE_CAP) -> MoveSequence | None:
    """A shortest move sequence from start to goal, or None if unreachable.

    The sequence includes both endpoints; its length is 1 when start == goal.
    Deterministic: BFS expands moves in (pebble index, target vertex) order.
    """
    s, t = _validate_pair(g, start, goal)
    parents = _bfs(g, s, t, cap)
    if t not in parents:
        return None
    seq: MoveSequence = []
    cur: GameState | None = t
    while cur is not None:
        seq.append(cur)
        cur = parents[cur]
    seq.reverse()
    return seq


def is_move(g: Graph, a: GameState, b: GameState) -> bool:
    """True iff b differs from a in exactly one coordinate, along an edge,
    onto a vertex unoccupied in a."""
    if len(a) != len(b):
        return False
    diff = [i for i in range(len(a)) if a[i] != b[i]]
    if len(diff) != 1:
        return False
    i = diff[0]
    return g.has_edge(a[i], b[i]) and b[i] not in a


def validate_move_sequence(g: Graph, seq: MoveSequence) -> None:
    """Raise unless every step of ``seq`` is a legal move."""
    if not seq:
        raise ValidationError("move sequence must contain at least one state")
    for s in seq:
        validate_state(g, s)
    for a, b in zip(seq, seq[1:]):
        if not is_move(g, a, b):
            raise ValidationError(f"illegal move {a} -> {b}")
