"""Checks on the package source itself, made with ``ast`` since no linter is
installed."""

import ast
from pathlib import Path

import pytest

import uimlab

MODULES = sorted(p for p in Path(uimlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    # a module-level import must be read somewhere in the module or be
    # re-exported through ``__all__``
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - exported) == []
