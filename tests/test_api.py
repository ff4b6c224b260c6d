"""Public surface: every exported name resolves, in the package and in each
submodule, and star-imports succeed."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import weakham

SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(weakham.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", ["weakham"] + [f"weakham.{m}" for m in SUBMODULES])
def test_all_names_resolve_and_star_import(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(mod, n)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
