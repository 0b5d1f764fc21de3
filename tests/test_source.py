"""Checks on the package source itself, made with ``ast`` since no linter is
installed, and on the repository paths README.md names."""

import ast
import re
from pathlib import Path

import pytest

import uimlab

ROOT = Path(__file__).resolve().parent.parent
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


def _reads(node):
    """The names ``node`` reads, as a bare name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_private_module_name_is_read_outside_its_definition():
    # a module-level ``_name`` that nothing in the package reads, other than
    # its own definition, is a helper left behind
    defined, reads = [], []
    for path in sorted(Path(uimlab.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(f"{path.stem}.{name}", name, len(reads)) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            reads.append(_reads(node))
    unread = [where for where, name, at in defined
              if not any(name in r for i, r in enumerate(reads) if i != at)]
    assert defined
    assert unread == []


def test_every_path_the_readme_names_exists():
    # an inline code span such as `tests/brute.py` names a file of the repository
    readme = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(),
                    flags=re.MULTILINE | re.DOTALL)
    paths = re.findall(r"`([\w.-]+(?:/[\w.-]+)+)`", readme)
    assert paths
    assert [p for p in paths if not (ROOT / p).exists()] == []
