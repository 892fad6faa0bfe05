"""Round 0 of every benchmark workload at seed 1, each answer checked.

The benchmark in ``perfbench/`` calls library names and checks answers
that no other test reads. This runs the round through the benchmark's own
loop and reads no time, so a change that breaks either fails here rather
than only when the benchmark runs.
"""

import importlib
import json
from pathlib import Path

import pytest

import pebblekit

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_benchmark_round_0_answers_are_correct(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    run = importlib.import_module("run")
    wl = importlib.import_module(f"workloads.{name}").build(pebblekit, 1)
    wl.warm_up()
    tally = run.Tally()
    run.run_round(wl.round_ops(0), tally)
    assert tally.failed == 0 and not tally.problems, tally.problems
