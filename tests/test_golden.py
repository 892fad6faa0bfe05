"""Every verb's answers, pinned: exit code, exact stdout and, for a non-zero
exit, the stderr line, one file per case under ``tests/golden/``.

A change that means to change an answer rewrites the corpus with

    PYTHONPATH=src python -m pytest tests/test_golden.py --rewrite-golden

and lists the rewritten files as a behaviour change.
"""

import json
import re
from pathlib import Path

from test_cli import run_cli_text

GOLDEN = Path(__file__).resolve().parent / "golden"
GRAPHS = {
    "p5.json": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
    "p6.json": {"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]},
    "c6.json": {"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]},
}
FULL4 = ["--world", "full-grid", "--depth", "4", "--rays", "canonical:4",
         "--source", "0,1,2,3", "--target", "0,1,2,3"]
HALF6 = ["--world", "half-grid", "--rays", "canonical:6",
         "--source", "0,1,2", "--target", "3,4,5"]
# "{tmp}" stands for the directory that holds the graph files and the
# DOT output; outputs name it the same way
CASES = {
    # the README examples
    "win": ["win", "--graph", "{tmp}/p5.json", "--k", "2"],
    "solve": ["solve", "--graph", "{tmp}/p5.json", "--start", "[0,1]",
              "--goal", "[3,4]"],
    "group": ["group", "--graph", "{tmp}/c6.json", "--state", "[0,1,2]"],
    "structure": ["structure", "--graph", "{tmp}/p6.json", "--k", "2"],
    "verify": ["verify", "--structure", "--n-max", "6"],
    "raygraph": ["raygraph", "--world", "full-grid", "--rays", "canonical:4",
                 "--d0", "10"],
    "linkage": ["linkage", *HALF6, "--depth", "8", "--sigma", "0,1,2"],
    "transition": ["transition", "--world", "full-grid", "--depth", "8",
                   "--rays", "canonical:3", "--moves", "[[0,1],[2,1]]",
                   "--x-ball", "2"],
    "export-dot": ["export-dot", "--world", "half-grid", "--depth", "5",
                   "--rays", "canonical:3", "--out", "{tmp}/w.dot"],
    # one validation error per verb
    "win-bad-k": ["win", "--graph", "{tmp}/p5.json", "--k", "7"],
    "solve-bad-start": ["solve", "--graph", "{tmp}/p5.json", "--start", "0",
                        "--goal", "[1]"],
    "group-repeated-vertex": ["group", "--graph", "{tmp}/p5.json",
                              "--state", "[0,0]"],
    "structure-bad-k": ["structure", "--graph", "{tmp}/p5.json", "--k", "0"],
    "verify-no-sweep": ["verify", "--n-max", "6"],
    "raygraph-bad-family": ["raygraph", "--world", "full-grid",
                            "--rays", "spiral:4"],
    "linkage-bad-position": ["linkage", "--world", "half-grid", "--depth", "4",
                             "--rays", "canonical:3", "--source", "0,7",
                             "--target", "1,2"],
    "transition-bad-moves": ["transition", "--world", "full-grid", "--depth", "3",
                             "--rays", "canonical:3", "--moves", "[0,1]"],
    "export-dot-no-depth": ["export-dot", "--world", "half-grid",
                            "--out", "{tmp}/w.dot"],
    # the linkage engine's answers and refusals
    "linkage-half-reversal": ["linkage", *HALF6, "--depth", "6",
                              "--sigma", "2,1,0", "--x-ball", "1"],
    "linkage-cut-off": ["linkage", *FULL4, "--sigma", "3,1,0,2", "--x-ball", "2"],
    "linkage-dp-cap": ["linkage", *FULL4, "--sigma", "0,1,3,2", "--x-ball", "0"],
    "linkage-dp-feasible": ["linkage", "--world", "full-grid", "--depth", "3",
                            "--rays", "canonical:4", "--source", "2,0,1,3",
                            "--target", "0,1,3,2", "--sigma", "2,0,3,1"],
    # the greedy composition's BFS finds no landing, so find_linkage decides
    "transition-greedy-miss": ["transition", "--world", "full-grid", "--depth", "3",
                               "--rays", "canonical:3", "--x-ball", "1", "--moves",
                               "[[0,1],[2,1],[2,0],[2,1]]"],
    # one cap hit per capped verb (linkage's is the DP cap above)
    "group-state-cap": ["--state-cap", "1", "group", "--graph", "{tmp}/c6.json",
                        "--state", "[0,1,2]"],
    "win-state-cap": ["--state-cap", "1", "win", "--graph", "{tmp}/p5.json",
                      "--k", "2"],
    "structure-state-cap": ["--state-cap", "1", "structure", "--graph",
                            "{tmp}/p6.json", "--k", "2"],
    "solve-state-cap": ["--state-cap", "1", "solve", "--graph", "{tmp}/p5.json",
                        "--start", "[0,1]", "--goal", "[3,4]"],
    "raygraph-window-cap": ["--window-cap", "50", "raygraph", "--world",
                            "full-grid", "--rays", "canonical:4", "--d0", "10"],
    "transition-window-cap": ["--window-cap", "50", "transition", "--world",
                              "full-grid", "--depth", "8", "--rays", "canonical:3",
                              "--moves", "[[0,1],[2,1]]", "--x-ball", "2"],
    "export-dot-window-cap": ["--window-cap", "10", "export-dot", "--world",
                              "half-grid", "--depth", "5", "--rays", "canonical:3",
                              "--out", "{tmp}/w.dot"],
}


def _answer(capsys, tmp_path, argv):
    """What the golden file of one case holds."""
    code, out, err = run_cli_text(
        capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    out = re.sub(r'"elapsed_ms": [^,]*, ', "", out.replace(str(tmp_path), "{tmp}"))
    doc = {"argv": argv, "exit": code, "stdout": out}
    if code != 0:
        doc["stderr"] = err.replace(str(tmp_path), "{tmp}")
    if argv[0] == "export-dot" and code == 0:
        doc["file"] = (tmp_path / "w.dot").read_text()
    return doc


def test_every_verb_answers_as_pinned(capsys, tmp_path, request):
    for name, doc in GRAPHS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    rewrite = request.config.getoption("--rewrite-golden")
    changed = []
    for name, argv in CASES.items():
        got = _answer(capsys, tmp_path, argv)
        path = GOLDEN / f"{name}.json"
        if rewrite:
            path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        elif not path.exists() or json.loads(path.read_text()) != got:
            changed.append(name)
    assert not changed, f"answers differ from tests/golden: {changed}"
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
