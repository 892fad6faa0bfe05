"""The pebble-pushing game on a finite graph.

A game state places k labelled pebbles on k distinct vertices.  A move
slides one pebble along an edge to an unoccupied vertex.  Reachability is
decided on the C(n, k) unordered configurations, which the n!/(n-k)!
labelled states cover: one BFS over configurations gives a labelled
representative r of each reachable configuration and the pebble group G
of the start, and the states reached there are the (r[p[0]], ...,
r[p[k-1]]) for p in G (Kornhauser, Miller and Spirakis, FOCS 1984).  Each
representative is packed into one int, with a flag bit above its fields
set once its configuration is dequeued, so the BFS reads each non-tree
edge's loop when it first sees the edge: from an end being dequeued to
one already in the table and not yet flagged.  The BFS stops once proved
transpositions join all k pebbles, which certifies G = S_k: each is a
transposition transport or a conjugate of one by another transport, as
a conjugate of a group element lies in the group (Seress, Permutation
Group Algorithms, 2003).  Only a BFS that ends without them sifts its
distinct other transports into a stabilizer chain, whose order may
still be k!.  When G = S_k the class is
every arrangement of k pebbles on the component holding them.  The BFS
runs once per (graph, start): the graph keeps G, the count of reachable
configurations and, when G = S_k, the component bitmask, for every later
query at that start, but no table of representatives, so a class or an
``is_achievable`` answer under a smaller G runs it again.  Only
``solve`` searches labelled states, by A* on summed goal distances (Hart,
Nilsson, Raphael 1968); it packs each state, heap entry and parent link
into one int.  A state holds k * ceil(log2 n) bits, so a stored state
takes about 140 bytes at small k, as on the 3x3 grid with k = 8, and
more as k grows; its move tables and goal distances are filled as the
search reaches them.
Caps are hard errors, so "unreachable" is never wrong.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import chain, permutations
from math import comb, perm
from operator import index, itemgetter
from typing import Iterable

from .errors import StateCapExceeded, ValidationError
from .graphs import Graph, _mask_component, adjacency_masks
from .permgroups import PermGroup, transposition

GameState = tuple[int, ...]
MoveSequence = list[GameState]

DEFAULT_STATE_CAP = 5_000_000


def validate_state(g: Graph, state: Iterable[int]) -> GameState:
    raw = tuple(state)
    try:
        # plain ints: a graph keeps its groups by start state, and 1.0 == 1
        s = tuple(map(index, raw))
    except TypeError:
        raise ValidationError(f"pebble positions must be integers, got {raw}") from None
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


def _config_group(adj_masks: tuple[int, ...], n: int, start: GameState,
                  cap: int = DEFAULT_STATE_CAP
                  ) -> tuple[dict[int, GameState] | int, PermGroup]:
    """BFS the configuration graph from the vertex set of ``start``,
    transporting one labelled representative along the tree; every
    non-tree edge closes a loop and yields one generator of the group at
    ``start``.  A representative is packed into one int, slot i's vertex
    in the vb bits from i * vb, so a move rewrites one field, and the bit
    above the k fields, ``done``, is set when its configuration is
    dequeued.  An edge is read when first seen: from the configuration
    being dequeued to a neighbour in the table without ``done``.  An edge
    to a neighbour with ``done`` was read from there, or is the tree edge
    this configuration was reached by, which transports to the identity;
    so each non-tree edge is read once, as early as the BFS order allows.
    A loop transport that changes two fields is a transposition (i j) of
    slots.  Any other transport becomes a slot map p, kept once, and the
    conjugate p (i j) p^-1 = (p(i) p(j)) is in the group too.  Every
    proved pair goes to a union-find over the k slots, and a pair that
    joins two classes is kept: it goes through each kept map, and each
    new map goes through the kept pairs.  A pair whose ends were already
    joined needs no turn, since the conjugates of the kept pairs between
    its ends join its conjugate's.  k - 1 unions make a spanning tree of
    transpositions, which generates S_k, as (a c) = (a b)(b c)(a b), and
    the BFS stops there.  Proved pairs that never join all slots split
    them into blocks that the group permutes, so it is not S_k.  Only a BFS
    that ends without the tree sifts the distinct maps into the
    stabilizer chain, in the order found, then the proved pairs, and
    tests the chain's order against k! once.

    Returns (reps, group).  When the group is all of S_k, reps is the
    vertex bitmask of the component C holding the pebbles, and the class
    is every arrangement of k pebbles on C: a transposition moves pebbles
    of one component only, and inside a component every placement is
    reachable.  Otherwise reps is {configuration bitmask: its
    representative}.  Raises StateCapExceeded up front when over ``cap``
    configurations are reachable.
    """
    k = len(start)
    first = sum(1 << v for v in start)
    full = (1 << n) - 1
    if comb(n, k) > cap:
        # a pebble never leaves its component, and inside a component
        # every placement of its pebbles is reachable
        reached, left = 1, full
        while left:
            comp = _mask_component(adj_masks, left & -left)
            left ^= comp
            reached *= comb(comp.bit_count(), (comp & first).bit_count())
        if reached > cap:
            raise StateCapExceeded(
                f"configuration space with {reached} states exceeds cap {cap}")
    if k == 1:
        return _mask_component(adj_masks, first), PermGroup(1)
    vb = (n - 1).bit_length()
    field = (1 << vb) - 1
    slots = range(0, k * vb, vb)        # the low bit of each slot's field
    done = 1 << k * vb                  # set on a representative once dequeued
    ones = (done - 1) // field          # the low bit of every field
    top = ones << vb - 1
    low = (done - 1) ^ top
    rep: dict = {first: sum(v << s for v, s in zip(start, slots))}
    pairs: list[tuple[int, int]] = []   # proved transpositions joining slots
    label = list(range(k))              # union-find over slots, by relabelling
    maps: dict[tuple[int, ...], None] = {}  # other transports, each once, in order found
    queue = deque([first])
    pop = queue.popleft
    push = queue.append
    while queue:
        cfg = pop()
        code = rep[cfg]
        rep[cfg] = code | done
        free = full ^ cfg
        for s in slots:
            u = code >> s & field
            m = adj_masks[u] & free
            if not m:
                continue
            ubit = 1 << u
            rest = code ^ u << s
            while m:
                b = m & -m
                m ^= b
                ncfg = cfg ^ ubit | b
                old = rep.get(ncfg)
                if old is None:
                    rep[ncfg] = rest | (b.bit_length() - 1) << s
                    push(ncfg)
                    continue
                if old & done:          # read from that end, or the tree edge to here
                    continue
                ncode = rest | (b.bit_length() - 1) << s
                x = ncode ^ old
                # one top bit per field of x that is not zero
                moved = (((x & low) + low) | x) & top
                if moved.bit_count() == 2:
                    joins = [(((moved & -moved).bit_length() - 1) // vb,
                              (moved.bit_length() - 1) // vb)]
                elif x:
                    slot_of = {old >> t & field: i for i, t in enumerate(slots)}
                    p = tuple(slot_of[ncode >> t & field] for t in slots)
                    if p in maps:
                        continue
                    maps[p] = None
                    # p (i j) p^-1 = (p(i) p(j)) is in the group too
                    joins = [(p[i], p[j]) for i, j in pairs]
                else:
                    continue
                while joins:
                    i, j = joins.pop()
                    new, gone = label[i], label[j]
                    if new == gone:
                        continue
                    label = [new if y == gone else y for y in label]
                    pairs.append((i, j))
                    if len(pairs) == k - 1:
                        return _mask_component(adj_masks, first), PermGroup.symmetric(
                            k, [transposition(k, i, j) for i, j in pairs])
                    joins += [(p[i], p[j]) for p in maps]
    # uncertified: the distinct maps, then the proved pairs, join the chain
    group = PermGroup(k, chain(maps, (transposition(k, i, j) for i, j in pairs)))
    if group.is_symmetric():
        return _mask_component(adj_masks, first), group
    for c, code in rep.items():     # unpacked in place: one table at a time
        rep[c] = tuple(code >> s & field for s in slots)
    return rep, group


def _graph_group(g: Graph, s: GameState, cap: int, table: bool = False
                 ) -> tuple[dict[int, GameState] | int | None, PermGroup]:
    """``_config_group`` for the validated start ``s``, run once per (graph,
    start).  The graph keeps the count of reachable configurations, the
    group and, when it is S_k, the component bitmask, but no
    representative table, so a non-S_k group comes with reps None unless
    ``table`` asks for the table, which runs the BFS again.  The cap test
    runs on every call: the reachable configurations are the same count
    that ``_config_group`` compares with ``cap`` up front."""
    memo = g._pebble_groups
    hit = memo.get(s)
    if hit is not None:
        reached, comp, group = hit
        if reached > cap:
            raise StateCapExceeded(
                f"configuration space with {reached} states exceeds cap {cap}")
        if comp is not None or not table:
            return comp, group
    reps, group = _config_group(adjacency_masks(g), g.n, s, cap)
    if hit is None:
        memo[s] = ((comb(reps.bit_count(), len(s)), reps, group)
                   if isinstance(reps, int) else (len(reps), None, group))
    return reps, group


def reachable_states(g: Graph, start: GameState,
                     cap: int = DEFAULT_STATE_CAP) -> set[GameState]:
    """The full reachability class of ``start``.  ``cap`` bounds the
    labelled states returned, counted before any is built."""
    s = validate_state(g, start)
    k = len(s)
    reps, group = _graph_group(g, s, cap, table=True)
    size = (perm(reps.bit_count(), k) if isinstance(reps, int)
            else len(reps) * group.order())
    if size > cap:
        raise StateCapExceeded(
            f"reachability class of {size} states exceeds cap {cap}")
    if isinstance(reps, int):
        return set(permutations([v for v in range(g.n) if reps >> v & 1], k))
    rows = list(reps.values())
    return set(chain.from_iterable(
        map(itemgetter(*p), rows) for p in group.elements(cap)))


def _validate_pair(g: Graph, start: GameState,
                   goal: GameState) -> tuple[GameState, GameState]:
    s = validate_state(g, start)
    t = validate_state(g, goal)
    if len(s) != len(t):
        raise ValidationError("states must place the same number of pebbles")
    return s, t


def is_achievable(g: Graph, start: GameState, goal: GameState,
                  cap: int = DEFAULT_STATE_CAP) -> bool:
    """True iff ``goal`` is reachable from ``start`` by a move sequence:
    its configuration is reached, with representative r, and p with
    goal[i] = r[p[i]] is in the group; when the group is S_k, iff every
    goal vertex lies in the pebbles' component.  ``cap`` bounds
    configurations."""
    s, t = _validate_pair(g, start, goal)
    reps, group = _graph_group(g, s, cap, table=True)
    goal_mask = sum(1 << v for v in t)
    if isinstance(reps, int):
        return goal_mask & ~reps == 0
    r = reps.get(goal_mask)
    return r is not None and tuple(map(r.index, t)) in group


def _goal_distance(adj: tuple[tuple[int, ...], ...], t: int):
    """d(v): the distance from v to t, or None when v is in another
    component.  The BFS from t grows only until v is labelled, so its
    memory follows the vertices read."""
    row = {t: 0}
    queue = [t]
    order = iter(queue)         # a list iterator also reads what is appended

    def d(v: int) -> int | None:
        if v not in row:
            for u in order:
                du = row[u] + 1
                for w in adj[u]:
                    if w not in row:
                        row[w] = du
                        queue.append(w)
                if v in row:
                    break
        return row.get(v)
    return d


def solve(g: Graph, start: GameState, goal: GameState,
          cap: int = DEFAULT_STATE_CAP) -> MoveSequence | None:
    """A shortest move sequence from start to goal, or None if unreachable.

    The sequence includes both endpoints; its length is 1 when start == goal.
    A* over labelled states with h(s) = sum of d(s[i], goal[i]), which a
    move changes by at most 1; ties go to the deeper state, then the lesser
    tuple.  ``cap`` bounds the labelled states stored; a search that reaches
    it asks ``is_achievable``, with the same cap, whether to answer None,
    and otherwise refuses with ``StateCapExceeded`` for its own cap.

    Every state, heap entry and parent link is one int, none of which the
    cyclic garbage collector tracks.  A state holds slot i's vertex in
    the vb bits at ``shifts[i]``, slot 0 highest, so int order is tuple
    order, and a move of slot i from v to w is u ^ (v ^ w) << shifts[i].
    A heap entry is ((f << DB | DTOP - d) << SB) | state, so it orders as
    the tuple (f, -d, state); ``seen`` maps a state to d << SB | parent.
    A state holds k * ceil(log2 n) bits, so its bytes grow with k.  The
    move tables, and the goal-distance BFS of each slot, are filled as the
    search first puts a slot on a vertex, so their memory follows the
    states reached, not k * n.
    """
    s, t = _validate_pair(g, start, goal)
    adj = g.adjacency()
    n, k = g.n, len(s)
    # rows[i](v): distance from v to t[i], or None in another component
    rows = [_goal_distance(adj, v) for v in t]
    h0 = [row(v) for row, v in zip(rows, s)]
    if None in h0:
        return None             # a pebble and its goal in different components
    vb = (n - 1).bit_length()
    field = (1 << vb) - 1
    shifts = [(k - 1 - i) * vb for i in range(k)]
    SB = k * vb                 # state bits
    DB = cap.bit_length() + 1   # depth bits: no stored depth exceeds cap
    DTOP = (1 << DB) - 1
    FB = DB + SB                # f's lowest bit in a heap entry
    state = (1 << SB) - 1
    # place[i][w]: w in slot i's field; gain[i][w]: that plus rows[i](w) in f's
    # field, so a heap entry trades gain[i][v] for gain[i][w] when i moves.
    # An entry has up to SB + DB bits, so all k * n of them would grow as
    # k^2 n log n: each is filled when the search first puts slot i on w
    place = [[None] * n for _ in range(k)]
    gain = [[None] * n for _ in range(k)]
    for pl, gn, sh, h, v in zip(place, gain, shifts, h0, s):
        pl[v] = v << sh
        gn[v] = pl[v] + (h << FB)
    bit = [1 << v for v in range(n)]
    slots = list(zip(shifts, place, gain, rows))
    s0 = sum(v << sh for v, sh in zip(s, shifts))
    t0 = sum(v << sh for v, sh in zip(t, shifts))
    seen = {s0: s0}             # state: d << SB | parent
    heap = [(sum(h0) << DB | DTOP) << SB | s0]
    while heap:
        e = heappop(heap)
        u = e & state
        if u == t0:
            plan = [t0]
            while plan[-1] != s0:
                plan.append(seen[plan[-1]] & state)
            return [tuple(c >> sh & field for sh in shifts) for c in reversed(plan)]
        d = DTOP - (e >> SB & DTOP)
        if d > seen[u] >> SB:
            continue            # a shorter route to u was pushed later
        occupied = 0
        for sh in shifts:
            occupied |= bit[u >> sh & field]
        d += 1                  # moves to each successor of u
        link = d << SB | u
        # u with f + 1 and DTOP - d above it; a slot's move takes its
        # vertex's field and goal distance out and puts the target's in
        top = ((e >> FB) + 1 << DB | DTOP - d) << SB | u
        for sh, pl, gn, row in slots:
            v = u >> sh & field
            rest = u ^ pl[v]
            base = top - gn[v]
            for w in adj[v]:
                if occupied & bit[w]:
                    continue
                p = pl[w]
                if p is None:
                    p = pl[w] = w << sh
                    gn[w] = p + (row(w) << FB)
                x = rest | p
                old = seen.get(x)
                if old is None:
                    if len(seen) >= cap:
                        try:
                            if not is_achievable(g, s, t, cap):
                                return None
                        except StateCapExceeded:
                            pass    # refused below as this search's own cap
                        raise StateCapExceeded(
                            f"state search exceeded cap of {cap} states")
                elif old >> SB <= d:
                    continue
                seen[x] = link
                heappush(heap, base + gn[w])
    return None


def validate_move_sequence(g: Graph, seq: MoveSequence) -> None:
    """Raise unless ``seq`` holds at least one valid state and each state
    after the first is in ``legal_moves`` of the one before it."""
    if not seq:
        raise ValidationError("move sequence must contain at least one state")
    for s in seq:
        validate_state(g, s)
    for a, b in zip(seq, seq[1:]):
        if tuple(b) not in legal_moves(g, a):
            raise ValidationError(f"illegal move {a} -> {b}")
