"""Every name a module exports in ``__all__`` is an attribute of that module.

Tools that look the public surface up by ``__all__`` (the span tracer in
``perfbench/tracer.py`` wraps each name it finds there) fail on a stale entry.
"""

import importlib
import pkgutil

import pytest

import rpickle

MODULES = sorted(info.name for info in pkgutil.iter_modules(rpickle.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"rpickle.{name}")
    exported = getattr(module, "__all__", ())
    assert [attr for attr in exported if not hasattr(module, attr)] == []
