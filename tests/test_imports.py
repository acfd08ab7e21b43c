"""Every import in the package's modules is used, and every module-level
function, class and constant is read: a name an edit stops using fails
here, with no linter installed.  A name counts as read where a module of
the package reads it, imports it from another, or lists it in ``__all__``.
The package's ``__init__`` is exempt from the import check: each of its
imports is an export.

``verify.py`` folds floats with numpy only: the builtin ``max`` and
``min`` drop a NaN or keep it depending on argument order, and a report's
number is NaN where any input to it is.

The benchmark's span tracer patches functions by name and reads some of
their arguments by position and name; every name it relies on exists."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from lionsderiv import Functional

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "lionsderiv"


def _read_names(tree: ast.Module) -> set[str]:
    """The names ``tree`` reads or lists in ``__all__``."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return read


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
    used = _read_names(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def _unread_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level functions, classes and constants, dunders aside, of
    the modules ``sources`` (name -> source) that none of them reads,
    imports or lists in ``__all__``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for tree in trees.values():
        read |= _read_names(tree)
        read |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{name} line {node.lineno}: {d}" for d in defined
                       if d not in read and not (d.startswith("__") and d.endswith("__"))]
    return unread


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_imports_only_what_it_uses(path):
    assert _unused_imports((PACKAGE / path).read_text()) == []


def test_an_unused_import_is_reported():
    source = ("import math\nfrom os import path, sep as separator\n"
              "__all__ = ['path']\nprint(math.pi)\n")
    assert _unused_imports(source) == ["line 2: separator"]


def test_every_module_level_definition_is_read_or_exported():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert _unread_definitions(sources) == []


def test_an_unread_definition_is_reported():
    sources = {
        "a.py": ("__all__ = ['public']\n__version__ = '1'\nLIMIT: int = 3\n"
                 "Alias = list[int]\nclass Orphan:\n    pass\n"
                 "def public():\n    return LIMIT\ndef _helper():\n    pass\n"),
        "b.py": "from .a import _helper\n",
    }
    assert _unread_definitions(sources) == [
        "a.py line 4: Alias", "a.py line 5: Orphan"]


def _builtin_folds(source: str) -> list[str]:
    """Each call of the builtin ``max`` or ``min`` in ``source``, as text."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("max", "min")]


# The builtin folds verify.py may make: each folds integers.
INTEGER_FOLDS = {
    "min(n, usable)",
}


def test_verify_folds_only_integers_with_the_builtins():
    assert [f for f in _builtin_folds((PACKAGE / "verify.py").read_text())
            if f not in INTEGER_FOLDS] == []


def test_a_builtin_fold_is_reported():
    source = "a = max(x, 1.0)\nb = np.max([x, 1.0])\nc = min(n, len(xs))\n"
    assert _builtin_folds(source) == ["max(x, 1.0)", "min(n, len(xs))"]


# span name -> {position: name} of each argument the tracer's counters read
TRACER_ARGUMENTS = {
    "measure.make_measure": {0: "atoms", 1: "weights"},
    "measure.read_sample_file": {0: "path"},
    "estimator.lions_derivative_grid": {2: "level"},
    "estimator.g_tilde_values": {1: "xs"},
    "functionals.evaluate": {1: "mu"},
}


def test_the_benchmark_tracer_patches_what_the_package_defines(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", REPO / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    functions, methods = tracer.FUNCTION_SPANS, tracer.METHOD_SPANS
    traced = {span: getattr(importlib.import_module(f"lionsderiv.{module}"), attr, None)
              for span, (module, attr, _, _) in functions.items()}
    traced |= {span: Functional.__dict__.get(attr) for span, (attr, _) in methods.items()}
    assert [span for span, fn in traced.items() if not callable(fn)] == []
    counted = ({span for span, (_, _, before, _) in functions.items() if before}
               | {span for span, (_, before) in methods.items() if before})
    assert counted == TRACER_ARGUMENTS.keys()
    for span, arguments in TRACER_ARGUMENTS.items():
        parameters = list(inspect.signature(traced[span]).parameters)
        assert {i: parameters[i] for i in arguments} == arguments, span
