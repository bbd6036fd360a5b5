"""The package surface: no public definition that nothing uses."""

import ast
from pathlib import Path

import modecert

# closed forms and fits that only the paper-limit tests compare against
TEST_REFERENCES = {"witness.single_mode_levshift", "witness.single_mode_atom_reflection",
                   "witness.kk_reconstruct_delta", "witness.fit_complex_lorentzian"}


def test_every_public_definition_is_used():
    # each public top-level function or class is referenced by another
    # top-level definition of the package, exported from modecert, the
    # command-line entry point, or a named test reference
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
    unused = [f"{module}.{top.name}" for module, tree in trees.items() for top in tree.body
              if isinstance(top, (ast.FunctionDef, ast.ClassDef))
              and not top.name.startswith("_")
              and not refs.get(top.name, set()) - {id(top)}]
    assert [name for name in unused if name.split(".")[1] not in modecert.__all__
            and name not in {"cli.main"} | TEST_REFERENCES] == []
