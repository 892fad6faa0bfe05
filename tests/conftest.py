import pytest
from hypothesis import settings

from pebblekit.graphs import Graph

# every property test draws the same examples on every run and keeps no
# example database, so a failure reproduces on rerun and in CI; a test's
# own @settings still sets its max_examples
settings.register_profile("pebblekit", derandomize=True, database=None)
settings.load_profile("pebblekit")


def pytest_addoption(parser):
    parser.addoption("--rewrite-golden", action="store_true",
                     help="rewrite tests/golden from the current code")


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


@pytest.fixture
def p5():
    return path_graph(5)


@pytest.fixture
def c6():
    return cycle_graph(6)


@pytest.fixture
def k4():
    return complete_graph(4)
