"""The sweep probe: how much configuration BFS the structure sweep runs.

Run from the repository root:

    PYTHONPATH=src python tests/sweep_probe.py [N_MAX]

It runs ``verify_structure_theorem(N_MAX, workers=1)`` (default 8) in this
process and prints one JSON object: per n, the classes swept, the
configurations that ``pebbles._config_group`` dequeued over all of them,
the canonical forms that ``graphs._canonical`` built while the level's
classes were generated, and the seconds the level took.  A dequeue is
one ``popleft`` of the BFS queue and a canonical form one call, so the
counts are the same on every machine.  pytest does not collect this
file; tests import ``probe`` from it.
"""

from __future__ import annotations

import json
import sys
from collections import deque

from pebblekit import graphs, pebbles
from pebblekit.structure import verify_structure_theorem


def probe(n_max: int) -> dict[str, dict]:
    """{n: {"classes", "dequeues", "canonical_forms", "seconds"}} for
    n = 1..n_max."""
    pops = forms = 0

    class CountingDeque(deque):
        def popleft(self):
            nonlocal pops
            pops += 1
            return super().popleft()

    canonical = graphs._canonical

    def counting_canonical(adj):
        nonlocal forms
        forms += 1
        return canonical(adj)

    rows: dict[str, dict] = {}
    last = [0, 0, 0.0]          # dequeues, forms and seconds at the previous level

    def progress(row: dict, seconds: float) -> None:
        rows[str(row["n"])] = {"classes": row["classes"], "dequeues": pops - last[0],
                               "canonical_forms": forms - last[1],
                               "seconds": round(seconds - last[2], 3)}
        last[:] = pops, forms, seconds

    pebbles.deque = CountingDeque
    graphs._canonical = counting_canonical
    try:
        verify_structure_theorem(n_max, workers=1, progress=progress)
    finally:
        pebbles.deque = deque
        graphs._canonical = canonical
    return rows


def main(argv: list[str]) -> None:
    print(json.dumps(probe(int(argv[0]) if argv else 8)))


if __name__ == "__main__":
    main(sys.argv[1:])
