"""The package surface: no definition or import that nothing uses."""

import ast
from pathlib import Path

import modecert


def _package():
    """Each module's top-level statements, and for each name the statements using it."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(modecert.__file__).parent.glob("*.py")}
    refs = {}   # name -> top-level nodes that reference it
    for tree in trees.values():
        for top in tree.body:
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                continue
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None:
                    refs.setdefault(name, set()).add(id(top))
    return trees, refs


def _defined(top) -> list:
    """The names a top-level function, class or constant assignment defines."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    targets = top.targets if isinstance(top, ast.Assign) else (
        [top.target] if isinstance(top, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _unused(private: bool) -> list:
    trees, refs = _package()
    return [f"{module}.{name}" for module, tree in trees.items() for top in tree.body
            for name in _defined(top)
            if name.startswith("_") == private and not name.startswith("__")
            and (private or not isinstance(top, (ast.Assign, ast.AnnAssign)))
            and not refs.get(name, set()) - {id(top)}]


def test_every_public_definition_is_used():
    # each public top-level function or class is referenced by another
    # top-level definition of the package, exported from modecert, or the
    # command-line entry point: a test reference lives with the tests
    assert [name for name in _unused(private=False)
            if name.split(".")[1] not in modecert.__all__
            and name != "cli.main"] == []


def test_every_import_is_used():
    # each name a module imports is used in that module; the package's
    # __init__ uses a name by re-exporting it in __all__
    unused = []
    for module, tree in _package()[0].items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if module == "__init__":
            used |= set(modecert.__all__)
        unused += [f"{module}.{alias.asname or alias.name.split('.')[0]}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_every_private_definition_is_used():
    # a private top-level function, class or module constant has no caller
    # outside the package, so another top-level definition must use it:
    # a test oracle does not linger in the library
    assert _unused(private=True) == []
