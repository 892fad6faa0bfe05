"""The fixed-sigma linkage probe: how many pairings the engine decides.

Run from the repository root:

    PYTHONPATH=src python tests/linkage_probe.py [DEPTH ...]

For each window depth (default 3 and 4) it draws 180 pairings of the full
grid's four canonical rays with ``random.Random(1)``: each draw shuffles
[0, 1, 2, 3] into sigma and then picks the radius of the Chebyshev ball X
from (0, 1, 2).  It prints one JSON object: per depth, the pairings found
(each passing ``check_linkage``), refuted ("no") and refused for a cap
("cap"), the caps per radius, the total time and the slowest call, and
the exact DP's own share: its calls, its distinct calls (by terminals
and blocked set) and the seconds spent in it.  pytest does not collect
this file; tests import ``probe`` and ``tally`` from it.
"""

from __future__ import annotations

import json
import random
import sys
import time

from pebblekit import linkage
from pebblekit.errors import NoLinkageError, ResourceCapError
from pebblekit.linkage import check_linkage, find_linkage
from pebblekit.worlds import canonical_rays, chebyshev_ball, make_world, truncate

PAIRINGS = 180


def probe(depth: int) -> list[tuple[tuple[int, ...], int, str, float, list]]:
    """(sigma, radius, outcome, seconds, DP calls) for each of the probe's
    pairings; a DP call is ((terminals, blocked), seconds)."""
    fg = make_world("full-grid")
    t = truncate(fg, depth)
    rays = canonical_rays(fg, 4)
    rng = random.Random(1)
    rows = []
    dp = linkage.disjoint_paths_exist

    def timed_dp(adj, terminals, blocked=()):
        start = time.perf_counter()
        try:
            return dp(adj, terminals, blocked)
        finally:
            calls.append(((tuple(terminals), frozenset(blocked)),
                          time.perf_counter() - start))

    linkage.disjoint_paths_exist = timed_dp
    try:
        for _ in range(PAIRINGS):
            perm = [0, 1, 2, 3]
            rng.shuffle(perm)
            radius = rng.choice((0, 1, 2))
            x = set(chebyshev_ball(t, radius))
            calls = []
            start = time.perf_counter()
            try:
                lk = find_linkage(t, rays, rays, x, dict(enumerate(perm)))
            except NoLinkageError:
                outcome = "no"
            except ResourceCapError:
                outcome = "cap"
            else:
                check_linkage(t, rays, rays, lk)
                outcome = "found"
            rows.append((tuple(perm), radius, outcome,
                         time.perf_counter() - start, calls))
    finally:
        linkage.disjoint_paths_exist = dp
    return rows


def tally(rows) -> dict:
    out = {k: sum(r[2] == k for r in rows) for k in ("found", "no", "cap")}
    out["caps_by_radius"] = {str(r): sum(row[2] == "cap" and row[1] == r
                                         for row in rows) for r in (0, 1, 2)}
    out["seconds"] = round(sum(r[3] for r in rows), 2)
    out["slowest_s"] = round(max(r[3] for r in rows), 3)
    out["dp_calls"] = sum(len(r[4]) for r in rows)
    out["dp_distinct"] = len({key for r in rows for key, _ in r[4]})
    out["dp_seconds"] = round(sum(s for r in rows for _, s in r[4]), 2)
    return out


def main(argv: list[str]) -> None:
    depths = [int(a) for a in argv] or [3, 4]
    print(json.dumps({str(d): tally(probe(d)) for d in depths}))


if __name__ == "__main__":
    main(sys.argv[1:])
