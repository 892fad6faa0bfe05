"""The sweep probe: how much configuration BFS the structure sweep runs.

Run from the repository root:

    PYTHONPATH=src python tests/sweep_probe.py [N_MAX]

It runs ``verify_structure_theorem(N_MAX, workers=1)`` (default 8) in this
process and prints one JSON object: per n, the classes swept, the
configurations that ``pebbles._config_group`` dequeued over all of them,
and the seconds the level took.  A dequeue is one ``popleft`` of the BFS
queue, so the counts are the same on every machine.  pytest does not
collect this file; tests import ``probe`` from it.
"""

from __future__ import annotations

import json
import sys
from collections import deque

from pebblekit import pebbles
from pebblekit.structure import verify_structure_theorem


def probe(n_max: int) -> dict[str, dict]:
    """{n: {"classes", "dequeues", "seconds"}} for n = 1..n_max."""
    pops = 0

    class CountingDeque(deque):
        def popleft(self):
            nonlocal pops
            pops += 1
            return super().popleft()

    rows: dict[str, dict] = {}
    last = [0, 0.0]             # dequeues and seconds at the previous level

    def progress(row: dict, seconds: float) -> None:
        rows[str(row["n"])] = {"classes": row["classes"], "dequeues": pops - last[0],
                               "seconds": round(seconds - last[1], 3)}
        last[:] = pops, seconds

    pebbles.deque = CountingDeque
    try:
        verify_structure_theorem(n_max, workers=1, progress=progress)
    finally:
        pebbles.deque = deque
    return rows


def main(argv: list[str]) -> None:
    print(json.dumps(probe(int(argv[0]) if argv else 8)))


if __name__ == "__main__":
    main(sys.argv[1:])
