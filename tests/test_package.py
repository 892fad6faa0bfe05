"""The package's public names."""

import pebblekit


def test_public_names_resolve_once():
    names = pebblekit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(pebblekit, name), name


def test_every_public_name_has_a_caller():
    # a public name that no library module or demo reads is output only
    # a test or the benchmark reads; a name's own definition does not count
    import ast
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    files = [p for p in (root / "src" / "pebblekit").glob("*.py") if p.name != "__init__.py"]
    files += (root / "demos").glob("*.py")
    read = set()
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))
                     and isinstance(node.ctx, ast.Load)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            read |= names
    unread = sorted(set(pebblekit.__all__) - read)
    assert not unread, unread


def test_oracles_do_not_import_the_game_engine():
    # an oracle that calls the engine it checks would agree with any bug
    import ast
    from pathlib import Path
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not imported & {"reachable_states", "is_achievable"}, imported


def test_modules_use_every_name_they_import():
    import ast
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    # the package's __init__ imports to re-export
    files = [p for p in (root / "src" / "pebblekit").glob("*.py") if p.name != "__init__.py"]
    files += (root / "tests").glob("*.py")
    files += (root / "demos").glob("*.py")
    stale = []
    for path in sorted(files):
        tree = ast.parse(path.read_text())
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        stale += [f"{path.relative_to(root)}:{line} {name}" for name, line in bound.items()
                  if name not in used]
    assert not stale, stale


def test_only_worlds_names_the_world_kinds():
    # every other module reads a world's geometry, never its kind
    import ast
    from pathlib import Path
    from pebblekit.worlds import WORLD_KINDS
    pkg = Path(pebblekit.__file__).parent
    named = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "worlds.py":
            continue
        named += [f"{path.name}:{node.lineno} {node.value}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Constant) and node.value in WORLD_KINDS]
    assert not named, named
