"""Public surface: every exported name resolves, in the package and in each
submodule, and star-imports succeed; the package exports exactly the
submodules' `__all__` lists, and every name the bench's traced rebuild
imports resolves. The package's checks are raises, never assert
statements, only hypercore looks rows up by their keys or packs the
shadow's words, and no module of
the package or the tests imports a name it never reads."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

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


# the submodules the package re-exports, in the order of weakham.__all__
PACKAGE_MODULES = [
    importlib.import_module(f"weakham.{m}")
    for m in ("errors", "hypercore", "randmodels", "weakpaths", "oracle", "expansion",
              "harness", "plotting")
]


def test_package_all_is_the_module_lists():
    want = ["__version__", *(n for mod in PACKAGE_MODULES for n in mod.__all__)]
    assert weakham.__all__ == want
    assert len(set(want)) == len(want)
    for mod in PACKAGE_MODULES:
        for name in mod.__all__:
            assert getattr(weakham, name) is getattr(mod, name), name


def test_exported_names_are_in_their_module_all():
    # a name the package exports is public in the module that defines it
    for name in weakham.__all__[1:]:
        home = importlib.import_module(getattr(weakham, name).__module__)
        assert name in home.__all__, f"{name} missing from {home.__name__}.__all__"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check in the package is a raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(weakham.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_hypercore_reads_row_keys():
    # Hypergraph._has_rows is the one row lookup: no other module reads
    # H._keys or builds `_row_keys` of its own. Likewise `_shadow_words` is
    # the one way to the shadow's packed words: no other module reads
    # H._words or packs with `_bit_words`
    private = ("_row_keys", "_bit_words")
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(weakham.__file__).parent.glob("*.py"))
        if path.name != "hypercore.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in ("_keys", "_words", *private))
        or (isinstance(node, ast.Name) and node.id in private)
        or (isinstance(node, ast.alias) and node.name in private)
    ]
    assert found == []


def test_bench_rebuild_imports_resolve():
    # the traced bench run imports these; a name gone from the package fails it
    path = Path(__file__).resolve().parents[1] / "bench" / "rebuild.py"
    names = [(node.module, alias.name) for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.ImportFrom) and node.module.startswith("weakham")
             for alias in node.names]
    assert ("weakham", "exact_weak_hamiltonian") in names
    assert [n for n in names if not hasattr(importlib.import_module(n[0]), n[1])] == []


def _unused_imports(path: Path) -> list[str]:
    """Names `path` imports but never reads: a name counts as read when the
    module loads it or lists it as a string (as `__all__` does). Imports
    from `__future__` and star imports are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)}
    read |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    paths = [*sorted((root / "src" / "weakham").glob("*.py")),
             *sorted((root / "tests").glob("*.py"))]
    assert [u for path in paths for u in _unused_imports(path)] == []
