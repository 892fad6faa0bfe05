"""pebblekit benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload {sweep,game,linkage} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a pebblekit checkout; it imports the package from
``src/`` of that checkout and nothing else.

``--trace 0`` measures the end-to-end metrics: it repeats whole rounds of
the workload's queries until ``--seconds`` have passed, times each query
alone, and checks every answer after its timer stops.  ``--trace 1`` runs
every query of round 0 untraced and traced, reports the per-layer metrics
from the traced runs, and writes their spans under ``.perfbench/traces/``.
Set-up time is measured in fresh interpreters (``--probe``) started from
this process.  Times are reported at nominal machine speed (see
``speed.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong answer
exits with code 1; a checkout without the package exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("sweep", "game", "linkage")
PROBES = 3                 # fresh-interpreter set-ups per run
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))

from common import beyond, quantile  # noqa: E402
from speed import SpeedSampler, pin_to_one_cpu  # noqa: E402
from tracing import Tracer  # noqa: E402


class MissingProgram(Exception):
    pass


def load_pebblekit():
    """Import pebblekit from this checkout's ``src/``; returns (module,
    seconds the import took)."""
    init = SRC / "pebblekit" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no pebblekit package at {init.parent}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import pebblekit
    import_s = time.perf_counter() - t0
    if Path(pebblekit.__file__).resolve() != init.resolve():
        raise MissingProgram(f"imported pebblekit from {pebblekit.__file__}, not {init}")
    return pebblekit, import_s


def set_up(workload: str, seed: int, tracer: Tracer | None = None):
    """Import the package, make the inputs and warm up; returns the
    workload and the time each step took."""
    pk, import_s = load_pebblekit()
    module = importlib.import_module(f"workloads.{workload}")
    if tracer is not None:
        tracer.install(pk)
        tracer.active = True
    t0 = time.perf_counter()
    wl = module.build(pk, seed)
    inputs_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    t0 = time.perf_counter()
    wl.warm_up()
    warm_s = time.perf_counter() - t0
    return module, wl, {"import_s": import_s, "inputs_s": inputs_s, "warm_s": warm_s}


def probe_setup(workload: str, seed: int) -> dict:
    """Time one fresh interpreter from its start until it is ready to run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            ready_s = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    doc = json.loads(line)
    doc["setup_s"] = ready_s
    return doc


# ---------------------------------------------------------------------------
# Running rounds
# ---------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.spans: list[tuple[float, float, int]] = []   # start, end, units
        self.round_ends: list[int] = []                   # len(spans) after each round
        self.units = 0
        self.failed = 0
        self.problems: list[str] = []
        self.by_kind: Counter = Counter()
        self.counters: Counter = Counter()

    def add(self, op, t0: float, t1: float, units: int, failed: int,
            problems: list[str]):
        self.spans.append((t0, t1, units))
        self.units += units
        self.failed += failed
        self.by_kind[op.kind] += 1
        self.problems += [f"{op.kind} [{op.label}]: {p}" for p in problems]

    def seconds(self) -> float:
        return sum(t1 - t0 for t0, t1, _ in self.spans)

    def merge(self, other: "Tally") -> None:
        self.units += other.units
        self.failed += other.failed
        self.problems += other.problems


def run_round(ops, tally: Tally, tracer: Tracer | None = None,
              first_id: int = 0) -> None:
    """Run ``ops`` in order, each timed alone and checked after its timer
    stops."""
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(first_id + i, op.kind)
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result, exc = op.call(), None
        except Exception as e:      # noqa: BLE001 - every failure is counted
            result, exc = None, e
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        units, failed, problems = op.check(result, exc, tally.counters)
        tally.add(op, t0, t1, units, failed, problems)
    tally.round_ends.append(len(tally.spans))


def measure(wl, seconds: float) -> tuple[Tally, int, float]:
    """Whole rounds until ``seconds`` have passed; (tally, rounds, wall)."""
    tally = Tally()
    t0 = time.perf_counter()
    rounds = 0
    while True:
        run_round(wl.round_ops(rounds), tally)
        rounds += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return tally, rounds, time.perf_counter() - t0


def end_to_end(module, tally: Tally, probes: list[dict], speed: SpeedSampler) -> dict:
    """The metrics a user sees.  Each query's time is divided by the
    machine's slowdown around it; set-up times by the run's slowdown."""
    adjusted = [(t1 - t0) / speed.slowdown_near(t0, t1) for t0, t1, _ in tally.spans]
    rates, start = [], 0
    for end in tally.round_ends:
        units = sum(u for _, _, u in tally.spans[start:end])
        rates.append(units / sum(adjusted[start:end]))
        start = end
    lat = sorted(adjusted)
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes) / speed.slowdown(), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (1000 * quantile(lat, 50), "ms"),
        "op_tail_ms": (1000 * quantile(lat, module.TAIL_PCT), "ms"),
        "success_ratio": ((tally.units - tally.failed) / tally.units, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(wl, tracer: Tracer, counters: Counter) -> tuple[Tally, dict]:
    """Round 0 with every op run untraced and traced, in alternating order
    so neither side always runs warm, then the sweep's replay, traced.

    Ops marked ``once`` run traced only; the tracing overhead is the traced
    minus the untraced time over the other ops."""
    ops = wl.round_ops(0)
    tally, untraced = Tally(), Tally()
    paired = 0.0
    for i, op in enumerate(ops):
        runs = [(tally, tracer)] if op.once else [(untraced, None), (tally, tracer)]
        if i % 2:
            runs.reverse()
        for t, tr in runs:
            run_round([op], t, tr, first_id=i)
        if not op.once:
            t0, t1, _ = tally.spans[-1]
            paired += t1 - t0
    passes = {"untraced_s": untraced.seconds(), "traced_s": paired}
    tally.merge(untraced)
    counters.update(tally.counters)
    if hasattr(wl, "replay"):
        tracer.begin_op(len(ops), "replay")
        tracer.active = True
        try:
            problems = wl.replay(tracer, counters)
        finally:
            tracer.active = False
        tally.units += 1
        tally.failed += bool(problems)
        tally.problems += [f"replay: {p}" for p in problems]
    return tally, passes


def per_layer(tracer: Tracer, counters: Counter, passes: dict,
              probes: list[dict], slowdown: float) -> dict:
    """The traced run's metrics; times are at nominal machine speed."""
    layers = tracer.layers()
    out: dict = {}

    def timed(name, with_self=True):
        a = layers.get(name, {})
        out[f"{name}.calls"] = (a.get("calls", 0), "count")
        out[f"{name}.busy_s"] = (a.get("busy_s", 0.0) / slowdown, "s")
        if with_self:
            out[f"{name}.self_s"] = (a.get("self_s", 0.0) / slowdown, "s")
        return a

    def ratio(name, num, den):
        out[name] = (num / den if den else 0.0, "ratio")

    for key in ("import_s", "inputs_s"):
        out[f"setup.{key}"] = (statistics.median(p[key] for p in probes) / slowdown, "s")
    out["trace.overhead_s"] = ((passes["traced_s"] - passes["untraced_s"]) / slowdown, "s")
    for name in ("graphs.enumerate_connected_graphs", "graphs.bridges",
                 "graphs.maximal_bare_paths"):
        timed(name)
    a = timed("pebbles.reachable_states")
    timed("pebbles.solve")
    busy = a.get("busy_s", 0.0)
    out["pebbles.states_per_s"] = (
        counters["states_returned"] * slowdown / busy if busy else 0.0, "1/s")
    timed("permgroups.PermGroup.order")
    timed("permgroups.PermGroup.__contains__")
    ratio("permgroups.generators_kept_ratio", counters["generators_kept"],
          counters["generators_offered"])
    for fn in ("pebble_group_fast", "pebble_permutation_group", "rb_colouring",
               "is_k_pebble_win", "structure_witness", "verify_structure_theorem"):
        timed(f"structure.{fn}")
    ratio("structure.shortcut_ratio", counters["shortcut_settled"],
          counters["instances_checked"])
    timed("worlds.truncate")
    out["worlds.truncate.vertices"] = (tracer.counters["worlds.truncate.vertices"], "count")
    timed("rays.ray_graph")
    ratio("rays.stabilized_ratio", counters["ray_graphs_stabilized"], counters["ray_graphs"])
    a = timed("disjoint_paths.disjoint_paths_exist")
    out["disjoint_paths.disjoint_paths_exist.decided"] = (a.get("returned", 0), "count")
    out["disjoint_paths.disjoint_paths_exist.cap_hits"] = (a.get("cap_hits", 0), "count")
    decided, calls = tracer.calls_in_ops("disjoint_paths.disjoint_paths_exist",
                                         "weak_link_fixed")
    ratio("disjoint_paths.decided_ratio", decided, calls)
    out["disjoint_paths.fixed_sigma_calls"] = (calls, "count")
    timed("linkage.milp", with_self=False)
    for fn in ("find_linkage", "check_linkage", "realize_transition"):
        timed(f"linkage.{fn}")
    return out


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
        "commit": commit,
    }


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def emit(args, metrics: dict, tally: Tally, details: dict) -> int:
    correct = not tally.problems and tally.failed == 0
    for p in tally.problems[:20]:
        print(f"WRONG {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    doc = {
        "correct": correct,
        "attempted": tally.units,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(doc, workload=args.workload, trace=args.trace,
                  env=environment(args.seed), details=details,
                  problems=tally.problems)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    print("env " + json.dumps(record["env"]))
    print(json.dumps(doc))
    return 0 if correct else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set up once, print the set-up times and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not args.probe:
        pin_to_one_cpu()
    tracer = Tracer() if args.trace and not args.probe else None
    try:
        module, wl, own = set_up(args.workload, args.seed, tracer)
    except MissingProgram as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps(own), flush=True)
        return 0
    gc.freeze()
    probes = [probe_setup(args.workload, args.seed) for _ in range(PROBES)]
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    details: dict = {"own_setup": own, "probes": probes}
    with SpeedSampler() as speed:
        if tracer is None:
            tally, rounds, wall = measure(wl, args.seconds)
        else:
            counters: Counter = Counter()
            tally, passes = traced(wl, tracer, counters)
    slowdown = speed.slowdown()
    details.update(slowdown=slowdown, speed_samples=len(speed.samples))
    if tracer is None:
        metrics = end_to_end(module, tally, probes, speed)
        raw = sorted(t1 - t0 for t0, t1, _ in tally.spans)
        details.update(rounds=rounds, wall_s=wall, samples=len(raw),
                       tail_percentile=module.TAIL_PCT,
                       beyond_tail=beyond(len(raw), module.TAIL_PCT),
                       raw_ops_per_s=tally.units / sum(raw),
                       raw_op_p50_ms=1000 * quantile(raw, 50),
                       raw_op_tail_ms=1000 * quantile(raw, module.TAIL_PCT))
    else:
        metrics = per_layer(tracer, counters, passes, probes, slowdown)
        details.update(passes, spans=len(tracer.spans), counters=dict(counters))
        tracer.dump(OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
        tracer.uninstall()
    details["cpu_per_wall"] = (cpu_seconds() - cpu0) / (time.perf_counter() - wall0)
    details["queries_by_kind"] = dict(tally.by_kind)
    return emit(args, metrics, tally, details)


if __name__ == "__main__":
    sys.exit(main())
