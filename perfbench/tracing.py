"""Spans around the calls into pebblekit's public functions.

``Tracer.install`` replaces each traced function with a wrapper wherever a
pebblekit module binds it, so calls from the benchmark and calls between
library modules (``find_linkage`` into ``disjoint_paths_exist``, say) are
both recorded.  A span is ``[name, start, end, parent, op, outcome]``:
``parent`` is the index of the enclosing span (-1 for none), ``op`` the
benchmark operation that caused it (-1 during set-up) and ``outcome``
the name of the exception the call raised, or None.  Spans stay in
memory until ``dump``.  Nothing is wrapped unless the run is traced.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute); a missing module or attribute is skipped
FUNCTIONS = [
    ("graphs.bridges", "graphs", "bridges"),
    ("graphs.maximal_bare_paths", "graphs", "maximal_bare_paths"),
    ("pebbles.reachable_states", "pebbles", "reachable_states"),
    ("pebbles.solve", "pebbles", "solve"),
    ("structure.pebble_group_fast", "structure", "pebble_group_fast"),
    ("structure.pebble_permutation_group", "structure", "pebble_permutation_group"),
    ("structure.rb_colouring", "structure", "rb_colouring"),
    ("structure.is_k_pebble_win", "structure", "is_k_pebble_win"),
    ("structure.structure_witness", "structure", "structure_witness"),
    ("structure.verify_structure_theorem", "structure", "verify_structure_theorem"),
    ("worlds.truncate", "worlds", "truncate"),
    ("rays.ray_graph", "rays", "ray_graph"),
    ("disjoint_paths.disjoint_paths_exist", "disjoint_paths", "disjoint_paths_exist"),
    # the DP and the solver as the linkage engine sees them, so the
    # fallback from one to the other shows as counts
    ("disjoint_paths.disjoint_paths_exist", "linkage", "disjoint_paths_exist"),
    ("linkage.milp", "linkage", "milp"),
    ("linkage.find_linkage", "linkage", "find_linkage"),
    ("linkage.check_linkage", "linkage", "check_linkage"),
    ("linkage.realize_transition", "linkage", "realize_transition"),
]

METHODS = [
    ("permgroups.PermGroup.order", "permgroups", "PermGroup", "order"),
    ("permgroups.PermGroup.__contains__", "permgroups", "PermGroup", "__contains__"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = -1
        self.op_kinds: dict[int, str] = {-1: "setup"}
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as consuming a generator."""
        if not self.active:
            yield
            return
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op = op_id
        self.op_kinds[op_id] = kind

    # -- installing -------------------------------------------------------------

    def install(self, pk) -> None:
        hooks = {"worlds.truncate": self._count_window}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pebblekit" or name.startswith("pebblekit."))]
        # look every function up before replacing any, so a function bound
        # under two names is wrapped once
        originals = [(name, getattr(_module(pk, mod_name), attr, None))
                     for name, mod_name, attr in FUNCTIONS]
        done: dict[int, object] = {}
        for name, original in originals:
            if original is None or id(original) in done:
                continue
            wrapper = done[id(original)] = self.wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, mod_name, cls_name, attr in METHODS:
            cls = getattr(_module(pk, mod_name), cls_name, None)
            original = getattr(cls, attr, None) if cls is not None else None
            if original is not None:
                self._set(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _count_window(self, t) -> None:
        self.counters["worlds.truncate.vertices"] += t.graph.n

    # -- results ----------------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time (outermost spans of that name)
        and self time (duration minus the direct children's durations),
        plus the number of calls that returned and that raised a cap error."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1]
        out: dict[str, dict[str, float]] = {}
        for i, rec in enumerate(spans):
            name = rec[0]
            a = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                      "returned": 0, "cap_hits": 0})
            dur = rec[2] - rec[1]
            a["calls"] += 1
            a["self_s"] += dur - covered[i]
            if not self._inside_same_name(i):
                a["busy_s"] += dur
            if rec[5] is None:
                a["returned"] += 1
            elif rec[5] in ("ResourceCapError", "StateCapExceeded"):
                a["cap_hits"] += 1
        return out

    def _inside_same_name(self, i: int) -> bool:
        name = self.spans[i][0]
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def calls_in_ops(self, name: str, kind: str) -> tuple[int, int]:
        """(calls that returned, calls) of span ``name`` inside ops of ``kind``."""
        returned = calls = 0
        for rec in self.spans:
            if rec[0] == name and self.op_kinds.get(rec[4]) == kind:
                calls += 1
                returned += rec[5] is None
        return returned, calls

    def dump(self, path) -> None:
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "op", "raised"],
            "names": names,
            "op_kinds": {str(k): v for k, v in sorted(self.op_kinds.items())},
            "spans": [[index[r[0]], round(r[1], 7), round(r[2], 7), r[3], r[4], r[5]]
                      for r in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _module(pk, name: str):
    try:
        return importlib.import_module(f"{pk.__name__}.{name}")
    except ImportError:
        return None
