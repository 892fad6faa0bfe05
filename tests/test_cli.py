"""The command-line surface: exit codes, caps, no traceback, and what a
golden file cannot hold (stderr progress, timing, ``python -m``).  Every
printed answer is pinned in ``tests/golden/``, by ``test_golden.py``."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pebblekit
from pebblekit.cli import main
from pebblekit.graphs import Graph
from pebblekit.structure import SWEEP_MAX_N, is_k_pebble_win
from pebblekit.worlds import WORLD_KINDS


def run_cli_text(capsys, *argv):
    """Exit code, stdout and stderr of one in-process command line."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_cli(capsys, *argv):
    code, out, err = run_cli_text(capsys, *argv)
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


def test_verify_structure(capsys):
    # tests/golden/verify.json pins the answer; the seconds go to stderr
    code, doc, err = run_cli(capsys, "verify", "--structure", "--n-max", "4",
                             "--workers", "1")
    assert code == 0
    # one progress line per n on stderr, seconds so far never falling
    lines = err.splitlines()
    assert [line.rsplit(" ", 2)[0] for line in lines] == [
        f"pebblekit: n={row['n']} classes={row['classes']}" for row in doc["per_n"]]
    seconds = [float(line.split()[-2]) for line in lines]
    assert seconds == sorted(seconds) and all(line.endswith(" s") for line in lines)


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["raygraph", "--world", "full-grid", "--rays", "canonical:4", "--d0", "10"]
    src = str(Path(pebblekit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "pebblekit", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert main(argv) == 0
    assert proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out


def test_world_verbs_take_the_world_file_depth(capsys, tmp_path):
    # one depth rule for every world verb: --depth, else the file's depth
    world = tmp_path / "world.json"
    world.write_text(json.dumps({"kind": "half-grid", "depth": 2}))
    out = tmp_path / "w.dot"
    code, _, _ = run_cli(capsys, "export-dot", "--world-file", str(world),
                         "--out", str(out))
    assert code == 0
    # the depth-2 half-grid window: 5 columns by 3 levels
    assert out.read_text().count("pos=") == 15
    code, _, _ = run_cli(capsys, "export-dot", "--world-file", str(world),
                         "--depth", "3", "--out", str(out))
    assert code == 0 and out.read_text().count("pos=") == 7 * 4
    code, doc, _ = run_cli(capsys, "linkage", "--world-file", str(world),
                           "--rays", "canonical:2", "--source", "0",
                           "--target", "1")
    assert code == 0 and doc["depth"] == 2
    # no depth anywhere is a validation error
    for verb in (["export-dot", "--out", str(out)],
                 ["linkage", "--rays", "canonical:2", "--source", "0",
                  "--target", "1"]):
        code, doc, err = run_cli(capsys, *verb, "--world", "half-grid")
        assert code == 2 and doc is None and "depth" in err


def test_raygraph_has_no_shell_options(capsys):
    # the annulus rule's shells are fixed: the options are unknown
    for opt in ("--annuli", "--ring-width"):
        with pytest.raises(SystemExit) as exc:
            main(["raygraph", "--world", "full-grid", "--rays", "canonical:4",
                  opt, "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_validation_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "edges": [[0, 0]]}')
    code, doc, err = run_cli(capsys, "win", "--graph", str(bad), "--k", "1")
    assert code == 2 and doc is None and "edges" in err
    code, _, _ = run_cli(capsys, "win", "--graph", str(tmp_path / "nope.json"),
                         "--k", "1")
    assert code == 2


@pytest.mark.parametrize("doc", [
    {"kind": "dominated-ray", "k": "3"},
    [1, 2],
    {"kind": "half-grid", "depth": None},
    {"kind": "half-grid", "depth": float("inf")},
    {"kind": "half-grid", "depth": 2.7},
    {"kind": "half-grid", "depth": True},
    {"kind": "half-grid", "k": 5},
    {"kind": "full-grid", "base": {"n": 1, "edges": []}},
])
def test_malformed_world_file_exit_2(capsys, tmp_path, doc):
    f = tmp_path / "world.json"
    f.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "raygraph", "--world-file", str(f),
                             "--rays", "canonical:2", "--d0", "4")
    assert code == 2 and out is None
    assert "Traceback" not in err


@pytest.mark.parametrize("opts", [
    ["--world", "full-grid"],
    ["--base", "nonexistent.json"],
    ["--world-k", "7"],
    ["--world", "full-grid", "--world-k", "7", "--base", "nonexistent.json"],
])
def test_world_options_beside_a_world_file_exit_2(capsys, tmp_path, opts):
    # the file names the whole world, so an option beside it would be dropped
    f = tmp_path / "world.json"
    f.write_text(json.dumps({"kind": "half-grid", "depth": 4}))
    code, out, err = run_cli(capsys, "raygraph", "--world-file", str(f), *opts,
                             "--rays", "canonical:2", "--d0", "4")
    assert code == 2 and out is None
    assert all(opt in err for opt in opts if opt.startswith("--"))
    assert "beside --world-file" in err


@pytest.mark.parametrize("argv, named", [
    # raygraph reads its start depth from --d0, never from the file
    (["raygraph", "--world-file", "{world}", "--rays", "canonical:2", "--d0", "4"],
     ["'depth'", "--d0"]),
    # a graph's DOT file reads no world option
    *((["export-dot", "--graph", "{graph}", opt, value, "--out", "{out}"], [opt])
      for opt, value in (("--world", "half-grid"), ("--world-file", "{world}"),
                         ("--base", "{graph}"), ("--world-k", "3"),
                         ("--rays", "canonical:2"), ("--depth", "3"))),
    (["export-dot", "--graph", "{graph}", "--world", "half-grid", "--depth", "3",
      "--out", "{out}"], ["--world", "--depth"]),
    # a graph format with no graph to read
    (["export-dot", "--format", "json", "--world", "half-grid", "--depth", "3",
      "--out", "{out}"], ["--format", "--graph"]),
])
def test_unread_options_exit_2(capsys, tmp_path, argv, named):
    # an option the verb would drop is refused, and the refusal names it
    world = tmp_path / "world.json"
    world.write_text(json.dumps({"kind": "half-grid", "depth": 4}))
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    out = tmp_path / "w.dot"
    code, doc, err = run_cli(capsys, *(a.format(world=world, graph=graph, out=out)
                                       for a in argv))
    assert code == 2 and doc is None and not out.exists()
    assert all(n in err for n in named), err


@pytest.mark.parametrize("source", ["option", "file"])
def test_huge_dominated_ray_k_exits_2_at_once(capsys, tmp_path, source):
    if source == "option":
        world = ["--world", "dominated-ray", "--world-k", str(10 ** 18)]
    else:
        f = tmp_path / "world.json"
        f.write_text(json.dumps({"kind": "dominated-ray", "k": 10 ** 18}))
        world = ["--world-file", str(f)]
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "raygraph", *world, "--rays", "canonical:2",
                             "--d0", "4")
    assert time.perf_counter() - t0 < 1
    assert code == 2 and out is None and "dominated-ray requires" in err


@pytest.mark.parametrize("argv", [
    ["linkage", "--world", "half-grid", "--rays", "canonical:2", "--depth", "4",
     "--source", "0,5", "--target", "0,1"],
    ["linkage", "--world", "half-grid", "--rays", "canonical:2", "--depth", "4",
     "--source", "0,1", "--target", "0,9"],
    ["transition", "--world", "full-grid", "--rays", "canonical:3",
     "--depth", "3", "--moves", "[1]"],
    ["raygraph", "--world", "full-grid", "--d0", "4"],
    ["linkage", "--world", "half-grid", "--rays", "canonical:3", "--depth", "4",
     "--source=-1", "--target=0"],
    ["transition", "--world", "full-grid", "--rays", "canonical:3",
     "--depth", "3", "--moves", "[[]]"],
    ["transition", "--world", "full-grid", "--rays", "canonical:3",
     "--depth", "3", "--moves", "[[true], [2]]"],
    ["raygraph", "--world", "half-grid", "--rays", "canonical:3", "--d0", "0"],
    # a family that names one ray twice
    ["linkage", "--world", "half-grid", "--depth", "6", "--rays", "canonical:4",
     "--source", "0,0", "--target", "1,2"],
    ["linkage", "--world", "half-grid", "--depth", "6", "--rays", "canonical:4",
     "--source", "0,1", "--target", "2,2"],
])
def test_bad_ray_positions_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out is None
    assert "Traceback" not in err


def test_resource_cap_exit_3(capsys):
    # transition reads ray-graph shells beyond its window, under the same cap
    code, doc, err = run_cli(capsys, "--window-cap", "300", "transition",
                             "--world", "half-grid", "--depth", "6",
                             "--rays", "canonical:3", "--moves", "[[0],[1]]")
    assert code == 3 and doc is None and "cap" in err
    # a ray family larger than the window cap is refused before it is built
    code, doc, err = run_cli(capsys, "--window-cap", "300", "raygraph",
                             "--world", "half-grid", "--rays", "canonical:301",
                             "--d0", "2")
    assert code == 3 and doc is None and "cap" in err


# run in a child, which caps its own address space at its size plus 8 MiB
_MEMORY_CAPPED_MAIN = """
import resource, sys
from pebblekit.cli import main
kb = next(int(line.split()[1]) for line in open("/proc/self/status")
          if line.startswith("VmSize:"))
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (kb * 1024 + (8 << 20), hard))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="the child reads its size from /proc")
def test_memory_exhaustion_exits_3(tmp_path):
    # seven pebbles on the 22-cycle: 170,544 configurations, far past
    # 8 MiB, yet inside the default state cap
    f = tmp_path / "c22.json"
    f.write_text(json.dumps({"n": 22, "edges": [[i, (i + 1) % 22] for i in range(22)]}))
    src = str(Path(pebblekit.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _MEMORY_CAPPED_MAIN, "group", "--graph", str(f),
         "--state", "[0,1,2,3,4,5,6]"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120)
    assert proc.returncode == 3 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "pebblekit: resource cap: out of memory\n"


def test_win_and_structure_obey_the_state_cap(capsys, tmp_path):
    # the triangle 0-1-2 with a pendant vertex 3 on 2: C(4, 2) = 6
    # configurations for two pebbles
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    f = tmp_path / "paw.json"
    f.write_text(json.dumps({"n": 4, "edges": [list(e) for e in edges]}))
    g = Graph.from_edges(4, edges)
    for verb in ("win", "structure"):
        code, doc, err = run_cli(capsys, "--state-cap", "1", verb,
                                 "--graph", str(f), "--k", "2")
        assert code == 3 and doc is None and "cap" in err, verb
        code, doc, _ = run_cli(capsys, "--state-cap", "6", verb,
                               "--graph", str(f), "--k", "2")
        assert code == 0 and doc["pebble_win"] == is_k_pebble_win(g, 2), verb


# -- fuzzed file inputs: any document ends in exit 0, 2 or 3, never a traceback

def _mostly(good, bad):
    """Draw from ``good`` three times in four, else from ``bad``."""
    return st.sampled_from([good, good, good, bad]).flatmap(lambda s: s)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
# what an integer field should not hold: huge, negative, not finite,
# fractional, boolean, or any JSON value
_bad_int = _mostly(st.sampled_from([0, -1, 10 ** 6, 10 ** 18, 10 ** 20, -10 ** 18,
                                    float("inf"), float("-inf"), float("nan"),
                                    2.7, True]), _json)
_small_graph = st.integers(1, 5).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n),
    "edges": st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2),
                      max_size=2 * n)}))
_graph_doc = _small_graph | st.fixed_dictionaries(
    {"n": _bad_int,
     "edges": st.lists(st.lists(st.integers(-1, 5) | _bad_int, max_size=3),
                       max_size=3) | _json},
    optional={"labels": _json})
_world_doc = _mostly(st.fixed_dictionaries(
    {"kind": st.sampled_from(WORLD_KINDS),
     "depth": st.integers(1, 6) | _bad_int},
    optional={"k": st.integers(1, 4) | _bad_int, "base": _graph_doc}), _json)
_graph_file = (st.tuples(st.just("graph.json"),
                         _mostly(_graph_doc, _json).map(json.dumps))
               | st.tuples(st.just("graph.txt"), st.lists(
                   st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
                   max_size=6).map("\n".join)))

_WORLD_VERBS = [
    ["raygraph", "--rays", "canonical:2", "--d0", "2"],
    ["linkage", "--rays", "canonical:2", "--source", "0", "--target", "1"],
    ["transition", "--rays", "canonical:2", "--moves", "[[0], [1]]"],
    ["export-dot", "--rays", "canonical:2", "--depth", "2"],
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_file_input(directory, name, text, verb):
    """Run one verb on one input file with a small window cap; returns the
    exit code and stderr.  An exception escaping ``main`` fails the test,
    as it would end the command line in a traceback."""
    path = directory / name
    path.write_text(text)
    argv = ["--window-cap", "300"] + verb
    if verb[0] == "export-dot":
        argv += ["--out", str(directory / "out.dot")]
    argv += ["--graph" if name.startswith("graph") else "--world-file", str(path)]
    return run_quiet(argv)


def run_quiet(argv):
    """Run the command line, keeping its output; returns the exit code and
    stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@given(doc=_world_doc, verb=st.sampled_from(_WORLD_VERBS))
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_fuzzed_world_files_exit_cleanly(fuzz_dir, doc, verb):
    code, err = run_file_input(fuzz_dir, "world.json", json.dumps(doc), verb)
    assert code in (0, 2, 3) and "Traceback" not in err


@given(file=_graph_file,
       verb=st.sampled_from([["win", "--k", "2"], ["export-dot"]]))
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_fuzzed_graph_files_exit_cleanly(fuzz_dir, file, verb):
    code, err = run_file_input(fuzz_dir, *file, verb)
    assert code in (0, 2, 3) and "Traceback" not in err


# -- fuzzed numeric options: any value ends in exit 0, 2 or 3, never a
# traceback, and within a time bound

# small values make valid calls likely; the others probe every bound
_num = (st.integers(1, 4) | st.integers(-3, 12)
        | st.sampled_from([-10 ** 18, 10 ** 6, 10 ** 18]))
# n_max 8 and 9 would run sweeps of seconds to minutes; beyond is refused
_n_max = (st.integers(-3, 7) | st.integers(SWEEP_MAX_N + 1, SWEEP_MAX_N + 5)
          | st.just(10 ** 18))
# a window cap of at most 300 keeps every window small, whatever depth
_window_cap = st.integers(-3, 300) | st.just(300) | st.just(-10 ** 18)


def _opts(**strategies):
    """Each option given with a drawn value, or left at its default."""
    return st.tuples(*(st.none() | s.map(lambda v, o=name: f"--{o.replace('_', '-')}={v}")
                       for name, s in strategies.items())).map(
        lambda opts: [o for o in opts if o is not None])


_world = (st.sampled_from(["half-grid", "full-grid", "hex-half-grid"]).map(
    lambda w: ["--world", w])
    | _num.map(lambda k: ["--world", "dominated-ray", f"--world-k={k}"]))
_ray_family = _num.map(lambda m: ["--rays", f"canonical:{m}"])


def _world_verb(verb, tail=(), **options):
    return st.tuples(_world, _ray_family, _opts(**options)).map(
        lambda t: [verb] + t[0] + t[1] + t[2] + list(tail))


@pytest.fixture(scope="module")
def theta_file(tmp_path_factory):
    # a 6-cycle with the chord 0-3
    f = tmp_path_factory.mktemp("numeric") / "theta.json"
    f.write_text(json.dumps({"n": 6, "edges": [[0, 1], [1, 2], [2, 3], [3, 4],
                                               [4, 5], [5, 0], [0, 3]]}))
    return str(f)


def _numeric_argv(graph, out):
    g = ["--graph", graph]
    verbs = st.one_of(
        st.just(["solve"] + g + ["--start", "[0,1]", "--goal", "[1,0]"]),
        st.just(["group"] + g + ["--state", "[0,1,2]"]),
        _num.map(lambda k: ["win"] + g + [f"--k={k}"]),
        _num.map(lambda k: ["structure"] + g + [f"--k={k}"]),
        _n_max.map(lambda n: ["verify", "--structure", "--workers", "1",
                              f"--n-max={n}"]),
        _world_verb("raygraph", d0=_num),
        _world_verb("linkage", ["--source", "0", "--target", "1"],
                    depth=_num, x_ball=_num),
        _world_verb("transition", ["--moves", "[[0],[1]]"],
                    depth=_num, x_ball=_num),
        _world_verb("export-dot", ["--out", out], depth=_num))
    return st.tuples(_opts(state_cap=_num), _window_cap, verbs).map(
        lambda t: t[0] + [f"--window-cap={t[1]}"] + t[2])


@given(data=st.data())
@settings(max_examples=400, derandomize=True, deadline=None, database=None)
def test_fuzzed_numeric_options_exit_cleanly(theta_file, fuzz_dir, data):
    argv = data.draw(_numeric_argv(theta_file, str(fuzz_dir / "out.dot")))
    t0 = time.perf_counter()
    code, err = run_quiet(argv)
    assert time.perf_counter() - t0 < 10, argv
    assert code in (0, 2, 3) and "Traceback" not in err, (argv, err)
