"""Every printed answer, pinned: one file per case under ``tests/golden/``.

A CLI case pins the exit code, the exact stdout and, for a non-zero exit,
the stderr line. A demo case runs one ``demos/*.py`` script in a fresh
interpreter, in an empty directory, and pins its exit code, its exact
stdout and its stderr, which must be empty.

A change that means to change an answer rewrites the corpus with

    PYTHONPATH=src python -m pytest tests/test_golden.py --rewrite-golden

and lists the rewritten files as a behaviour change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import run_cli_text

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
DEMOS = {f"demo-{p.stem}": p for p in sorted((ROOT / "demos").glob("*.py"))}
# the input files of the cases: graphs, then world descriptors
FILES = {
    "p5.json": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
    "p6.json": {"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]]},
    "c6.json": {"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]},
    "theta7.json": {"n": 7, "edges": [[0, 1], [1, 2], [2, 3], [3, 0], [0, 4],
                                      [4, 5], [5, 6], [6, 2], [1, 5]]},
    # a 4-cycle 4-1-3-2 with vertex 0 hanging off 4
    "c4-pendant.json": {"n": 5, "edges": [[0, 4], [1, 3], [1, 4], [2, 3], [2, 4]]},
    "k4.json": {"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
    # labels that DOT must escape: a quote, a backslash, a newline
    "labels.json": {"n": 3, "edges": [[0, 1], [1, 2]],
                    "labels": {"0": 'a"b', "1": "c\\d", "2": "e\nf"}},
    # a string is written as it is: the triangle as an edge list
    "tri.txt": "0 1\n1 2\n2 0\n",
    "half-grid.json": {"kind": "half-grid", "depth": 4},
    # a misspelt depth and a key no code reads
    "half-grid-depht.json": {"kind": "half-grid", "depht": 4, "bogus": 1},
}
FULL4 = ["--world", "full-grid", "--depth", "4", "--rays", "canonical:4",
         "--source", "0,1,2,3", "--target", "0,1,2,3"]
# the full grid's first m canonical rays at depth 8, each ray its own target
FULL8 = ["--world", "full-grid", "--depth", "8", "--rays", "canonical:4"]
FULL8_M2 = [*FULL8, "--source", "0,1", "--target", "0,1"]
FULL8_M3 = [*FULL8, "--source", "0,1,2", "--target", "0,1,2"]
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
    # the other shapes of an answer: an unreachable goal, a trivial group,
    # a witness of bridges, a linear ray graph, a transition with no X, a
    # graph's DOT file, pretty JSON, a win, and an edge-list file
    "solve-unreachable": ["solve", "--graph", "{tmp}/p5.json", "--start", "[0,1]",
                          "--goal", "[1,0]"],
    "group-trivial": ["group", "--graph", "{tmp}/p5.json", "--state", "[0,1,2]"],
    "structure-p5": ["structure", "--graph", "{tmp}/p5.json", "--k", "2"],
    "raygraph-half-grid": ["raygraph", "--world", "half-grid", "--rays",
                           "canonical:3", "--d0", "8"],
    "transition-no-x": ["transition", "--world", "full-grid", "--depth", "8",
                        "--rays", "canonical:3", "--moves", "[[0,1],[2,1]]"],
    "export-dot-graph": ["export-dot", "--graph", "{tmp}/p5.json",
                         "--out", "{tmp}/w.dot"],
    "export-dot-labels": ["export-dot", "--graph", "{tmp}/labels.json",
                          "--out", "{tmp}/w.dot"],
    "win-pretty": ["--pretty", "win", "--graph", "{tmp}/p5.json", "--k", "2"],
    "win-k4": ["win", "--graph", "{tmp}/k4.json", "--k", "2"],
    "win-edge-list": ["win", "--graph", "{tmp}/tri.txt", "--k", "1"],
    # one validation error per verb
    "win-bad-k": ["win", "--graph", "{tmp}/p5.json", "--k", "7"],
    "solve-bad-start": ["solve", "--graph", "{tmp}/p5.json", "--start", "0",
                        "--goal", "[1]"],
    "solve-start-not-array": ["solve", "--graph", "{tmp}/p5.json",
                              "--start", '{"a": 1}', "--goal", "[1]"],
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
    "raygraph-unread-world-k": ["raygraph", "--world", "full-grid", "--world-k",
                                "7", "--rays", "canonical:4", "--d0", "4"],
    # a world file names the whole world, and each of its keys is read
    "raygraph-world-beside-world-file": ["raygraph", "--world-file",
                                         "{tmp}/half-grid.json", "--world",
                                         "full-grid", "--rays", "canonical:2",
                                         "--d0", "4"],
    "export-dot-unread-world-key": ["export-dot", "--world-file",
                                    "{tmp}/half-grid-depht.json", "--rays",
                                    "canonical:2", "--depth", "3",
                                    "--out", "{tmp}/w.dot"],
    "linkage-no-world": ["linkage", "--rays", "canonical:2", "--depth", "4",
                         "--source", "0", "--target", "1"],
    # each option a verb would drop is refused: a world file's depth under
    # raygraph, a world option beside a graph, a format with no graph
    "raygraph-world-file-depth": ["raygraph", "--world-file", "{tmp}/half-grid.json",
                                  "--rays", "canonical:2", "--d0", "4"],
    "export-dot-graph-beside-world": ["export-dot", "--graph", "{tmp}/p5.json",
                                      "--world", "half-grid", "--depth", "3",
                                      "--out", "{tmp}/w.dot"],
    "export-dot-format-without-graph": ["export-dot", "--format", "json",
                                        "--world", "half-grid", "--depth", "3",
                                        "--out", "{tmp}/w.dot"],
    # the linkage engine's answers and refusals
    "linkage-no-linkage": ["linkage", *HALF6, "--depth", "6", "--sigma", "2,1,0"],
    # two half-grid columns are adjacent in the ray graph, but the radius-2
    # ball covers the whole depth-2 window, so no walk may switch in it
    "transition-no-linkage": ["transition", "--world", "half-grid", "--rays",
                              "canonical:2", "--depth", "2", "--x-ball", "2",
                              "--moves", "[[0],[1]]"],
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
    # the group engine's certificates: S_5 from one transposition transport
    # and three of its conjugates, S_4 from one and its two conjugates by
    # the 3-cycle found before it, S_3 from one and its conjugate by a
    # 3-cycle (rotations only, on the 6-cycle, is the "group" case above)
    "group-theta7-tree": ["group", "--graph", "{tmp}/theta7.json",
                          "--state", "[0,1,2,3,4]"],
    "group-theta7-late-tree": ["group", "--graph", "{tmp}/theta7.json",
                               "--state", "[6,1,2,3]"],
    "group-c4-pendant-chain": ["group", "--graph", "{tmp}/c4-pendant.json",
                               "--state", "[0,1,2]"],
    # the router's witnesses, whose rounds test_router_witnesses_are_pinned
    # counts
    "linkage-full-swap": ["linkage", *FULL8_M2, "--sigma", "1,0"],
    "linkage-full-swap-ball2": ["linkage", *FULL8_M2, "--sigma", "1,0",
                                "--x-ball", "2"],
    "linkage-full-swap-0-2": ["linkage", *FULL8_M3, "--sigma", "2,1,0"],
    "linkage-full-cyclic-ball2": ["linkage", *FULL8_M3, "--sigma", "1,2,0",
                                  "--x-ball", "2"],
    "linkage-full-cyclic-ball4": ["linkage", *FULL8_M3, "--sigma", "1,2,0",
                                  "--x-ball", "4"],
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
    doc = {"argv": argv, "exit": code, "stdout": out.replace(str(tmp_path), "{tmp}")}
    if code != 0:
        doc["stderr"] = err.replace(str(tmp_path), "{tmp}")
    if argv[0] == "export-dot" and code == 0:
        doc["file"] = (tmp_path / "w.dot").read_text()
    return doc


def _demo_answer(tmp_path, script):
    """What the golden file of one demo holds."""
    cwd = tmp_path / script.stem
    cwd.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    return {"argv": ["python", f"demos/{script.name}"], "exit": proc.returncode,
            "stdout": proc.stdout, "stderr": proc.stderr}


def test_every_verb_answers_as_pinned(capsys, tmp_path, request):
    for name, doc in FILES.items():
        (tmp_path / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    rewrite = request.config.getoption("--rewrite-golden")
    answers = {name: _answer(capsys, tmp_path, argv) for name, argv in CASES.items()}
    answers.update((name, _demo_answer(tmp_path, script))
                   for name, script in DEMOS.items())
    changed = []
    for name, got in answers.items():
        path = GOLDEN / f"{name}.json"
        if rewrite:
            path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        elif not path.exists() or json.loads(path.read_text()) != got:
            changed.append(name)
    assert not changed, f"answers differ from tests/golden: {changed}"
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(answers)
