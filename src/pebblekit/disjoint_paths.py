"""Exact decision for vertex-disjoint paths with fixed terminal pairs.

Frontier dynamic programming along a fixed vertex order: states record,
for every still-active vertex, which walk fragment ends there and how the
open ends pair up.  On window graphs the sweep order keeps the frontier
one column (or one level) wide, so the reachable state count stays small
on the narrow windows of product and comb worlds.  ``linkage`` uses it
to refute what its rim-crossing certificate cannot see.  The answer is
exact: True iff a family of pairwise vertex-disjoint paths, one per
terminal pair, exists.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ResourceCapError, ValidationError

# tags on active vertices:
#   ("n", i)      isolated fragment of walk i, both ends here
#   ("s", i)      open end; the fragment's other end is walk i's source
#   ("t", i)      open end; the fragment's other end is walk i's target
#   ("f", i, pid) open end of a floating fragment; the partner carries the
#                 same pid

DEFAULT_STATE_CAP = 5_000_000


def _canonical(labels: dict[int, tuple], completed: int) -> tuple:
    """Renumber floating pair ids by first appearance for a canonical key."""
    out = []
    remap: dict[tuple, int] = {}
    for v in sorted(labels):
        tag = labels[v]
        if tag[0] == "f":
            key = (tag[1], tag[2])
            pid = remap.setdefault(key, len(remap))
            out.append((v, ("f", tag[1], pid)))
        else:
            out.append((v, tag))
    return (completed, tuple(out))


def disjoint_paths_exist(n: int, adjacency: Sequence[Iterable[int]],
                         order: Sequence[int],
                         terminals: Sequence[tuple[int, int]],
                         blocked: Iterable[int] = (),
                         state_cap: int = DEFAULT_STATE_CAP) -> bool:
    """Decide whether pairwise vertex-disjoint s_i-t_i paths exist.

    ``order`` is the sweep order (a permutation of 0..n-1); its quality
    only affects speed, never correctness.  ``blocked`` vertices cannot be
    used by any path.  A path may consist of a single vertex when
    s_i == t_i.
    """
    k = len(terminals)
    blocked_set = set(blocked)
    term_of: dict[int, tuple[str, int]] = {}
    trivial = {i for i, (s, t) in enumerate(terminals) if s == t}
    for i, (s, t) in enumerate(terminals):
        if s in blocked_set or t in blocked_set:
            raise ValidationError(f"terminal of walk {i} is blocked")
        if s == t:
            # a single-vertex path: claim the vertex, nothing to route
            blocked_set.add(s)
            continue
        for v, kind in ((s, "s"), (t, "t")):
            if v in term_of:
                raise ValidationError(f"terminal vertex {v} used twice")
            term_of[v] = (kind, i)
    trivial_mask = sum(1 << i for i in trivial)
    if len(order) != n or sorted(order) != list(range(n)):
        raise ValidationError("order must be a permutation of the vertices")

    pos = {v: p for p, v in enumerate(order)}
    retire_after = [max((pos[w] for w in adjacency[v]), default=pos[v])
                    for v in range(n)]
    all_done = (1 << k) - 1

    # state: (completed_mask, tuple of (vertex, tag))
    states: set[tuple] = {(trivial_mask, ())}
    for step, v in enumerate(order):
        is_blocked = v in blocked_set
        term = term_of.get(v)
        earlier = [w for w in adjacency[v] if pos[w] < step]
        new_states: set[tuple] = set()
        for completed, labels_t in states:
            labels = dict(labels_t)
            # option A: leave v unused (never allowed for terminals)
            if term is None:
                _retire_and_add(new_states, completed, labels, step,
                                retire_after)
            if is_blocked:
                continue
            # option B: v joins walk i, connecting to 0..2 open ends
            open_nb: dict[int, list[int]] = {}
            for w in earlier:
                tag = labels.get(w)
                if tag is not None:
                    open_nb.setdefault(tag[1], []).append(w)
            walks = [term[1]] if term is not None else range(k)
            for i in walks:
                if completed >> i & 1:
                    continue
                ends = open_nb.get(i, [])
                choices: list[tuple[int, ...]] = [()]
                choices.extend((w,) for w in ends)
                if term is None:
                    choices.extend(
                        (w1, w2) for a, w1 in enumerate(ends)
                        for w2 in ends[a + 1:])
                for chosen in choices:
                    res = _apply(labels, completed, v, i, chosen, term)
                    if res is None:
                        continue
                    nc, nl = res
                    _retire_and_add(new_states, nc, nl, step, retire_after)
            if len(new_states) > state_cap:
                raise ResourceCapError(
                    f"disjoint-path state space exceeded {state_cap}")
        states = new_states
        if not states:
            return False
    return any(completed == all_done and not labels
               for completed, labels in states)


def _apply(labels: dict[int, tuple], completed: int, v: int, i: int,
           chosen: tuple[int, ...], term: tuple[str, int] | None):
    """Connect v (walk i) to the chosen open ends; None when invalid."""
    labels = dict(labels)
    if term is not None:
        kind, _ = term
        if not chosen:
            labels[v] = (kind, i)
            return completed, labels
        (w,) = chosen
        tag = labels.pop(w)
        other = "t" if kind == "s" else "s"
        if tag[0] == other:
            return completed | (1 << i), labels
        if tag[0] == kind:
            return None
        if tag[0] == "n":
            labels[w] = (kind, i)
            return completed, labels
        partner = _partner(labels, w, tag)
        labels[partner] = (kind, i)
        return completed, labels
    if not chosen:
        labels[v] = ("n", i)
        return completed, labels
    if len(chosen) == 1:
        (w,) = chosen
        tag = labels.pop(w)
        if tag[0] == "n":
            pid = _fresh_pid(labels, i)
            labels[w] = ("f", i, pid)
            labels[v] = ("f", i, pid)
            return completed, labels
        if tag[0] in ("s", "t"):
            labels[v] = tag
            return completed, labels
        partner = _partner(labels, w, tag)
        pid = labels[partner][2]
        labels[v] = ("f", i, pid)
        return completed, labels
    w1, w2 = chosen
    tag1 = labels.pop(w1)
    tag2 = labels.pop(w2)
    kinds = {tag1[0], tag2[0]}
    if tag1[0] == "f" and tag2[0] == "f" and tag1 == tag2:
        return None  # both ends of the same fragment: a cycle
    if kinds == {"s", "t"}:
        return completed | (1 << i), labels
    if kinds in ({"s"}, {"t"}):
        return None
    ends = []
    for w, tag in ((w1, tag1), (w2, tag2)):
        if tag[0] == "n":
            ends.append((w, None))
        elif tag[0] in ("s", "t"):
            ends.append((None, tag))
        else:
            ends.append((_partner(labels, w, tag), None))
    (e1, sealed1), (e2, sealed2) = ends
    if sealed1 is not None and sealed2 is not None:
        # ("s"/"t") + ("s"/"t") mixes handled above; same kinds invalid
        return None
    if sealed1 is not None or sealed2 is not None:
        sealed = sealed1 if sealed1 is not None else sealed2
        far = e2 if sealed1 is not None else e1
        labels[far] = sealed
        return completed, labels
    pid = _fresh_pid(labels, i)
    labels[e1] = ("f", i, pid)
    labels[e2] = ("f", i, pid)
    return completed, labels


def _partner(labels: dict[int, tuple], w: int, tag: tuple) -> int:
    for u, t in labels.items():
        if t == tag and u != w:
            return u
    raise AssertionError("floating fragment without a partner")


def _fresh_pid(labels: dict[int, tuple], i: int) -> int:
    used = {t[2] for t in labels.values() if t[0] == "f" and t[1] == i}
    pid = 0
    while pid in used:
        pid += 1
    return pid


def _retire_and_add(new_states: set, completed: int, labels: dict[int, tuple],
                    step: int, retire_after: list[int]) -> None:
    # a vertex whose neighbours are all processed can never take another
    # connection; a live open end stranded there kills the state
    for u in labels:
        if retire_after[u] <= step:
            return
    new_states.add(_canonical(labels, completed))
