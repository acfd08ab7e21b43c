"""Every import in the package's modules is used: a name an edit stops
using fails here, with no linter installed.  A name counts as used where
the module reads it, or lists it in ``__all__``.  The package's
``__init__`` is exempt: each of its imports is an export."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lionsderiv"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_imports_only_what_it_uses(path):
    assert _unused_imports((PACKAGE / path).read_text()) == []


def test_an_unused_import_is_reported():
    source = ("import math\nfrom os import path, sep as separator\n"
              "__all__ = ['path']\nprint(math.pi)\n")
    assert _unused_imports(source) == ["line 2: separator"]
