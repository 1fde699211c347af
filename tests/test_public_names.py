"""The package's public surface and its file access.

Every name a module exports in ``__all__`` is an attribute of that module:
tools that look the public surface up by ``__all__`` (the span tracer in
``perfbench/tracer.py`` wraps each name it finds there) fail on a stale entry.
Only ``rpickle.seeding`` opens files, so the artifact layout lives in one
module.  No module imports scipy when it is imported itself: the functions
that call scipy import it, so the stages that never call it never load it.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import rpickle

MODULES = sorted(info.name for info in pkgutil.iter_modules(rpickle.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"rpickle.{name}")
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_only_seeding_opens_files():
    # ``open(...)`` and any ``x.open(...)`` (``io.open``, ``os.open``, ``Path.open``).
    calls = []
    for path in sorted(pathlib.Path(rpickle.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "open":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls, "the walk found no open call at all"
    assert [call for call in calls if not call.startswith("seeding.py:")] == []


def _import_time_imports(nodes):
    """The import statements among ``nodes`` that run when their module is imported.

    Function bodies run only when called, and an ``if TYPE_CHECKING:`` block
    only under a type checker; class bodies and other blocks run at import.
    """
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        else:
            yield from _import_time_imports(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_module_level():
    imported = []
    for path in sorted(pathlib.Path(rpickle.__path__[0]).glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _import_time_imports(tree.body):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            imported += [f"{path.name}:{node.lineno} {name}" for name in names]
    assert any(entry.endswith(" numpy") for entry in imported), "the walk found no module-level import at all"
    assert [entry for entry in imported if entry.split(" ")[1].split(".")[0] == "scipy"] == []
