"""The package's public surface and its file access.

Every name a module exports in ``__all__`` is an attribute of that module:
tools that look the public surface up by ``__all__`` (the span tracer in
``perfbench/tracer.py`` wraps each name it finds there) fail on a stale entry.
Only ``rpickle.seeding`` opens files, so the artifact layout lives in one
module.
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
