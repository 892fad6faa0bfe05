"""The package's public names."""

import pebblekit


def test_public_names_resolve_once():
    names = pebblekit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(pebblekit, name), name


def test_oracles_do_not_import_the_game_engine():
    # an oracle that calls the engine it checks would agree with any bug
    import ast
    from pathlib import Path
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not imported & {"reachable_states", "is_achievable"}, imported
