"""The package's own surface: what it exports and what its modules import."""

import ast
import importlib
from pathlib import Path

import pytest

import bbbounds

SOURCE = Path(bbbounds.__file__).parent
MODULES = sorted(p.stem for p in SOURCE.glob("*.py") if p.stem not in ("__init__", "__main__"))

# Imports a module keeps without reading them, with the reason each stays.
UNREAD_IMPORTS = {
    # bench/tracer.py wraps bounds.gram_of_family by name
    ("bounds", "gram_of_family"),
}


def _tree(stem: str) -> ast.Module:
    return ast.parse((SOURCE / f"{stem}.py").read_text())


@pytest.mark.parametrize("stem", MODULES)
def test_every_all_entry_exists(stem):
    module = importlib.import_module(f"bbbounds.{stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, missing


def test_package_reexports_are_in_their_modules_all():
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in _tree("__init__").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"bbbounds.{node.module}").__all__
    ]
    assert not unlisted, unlisted


@pytest.mark.parametrize("stem", MODULES)
def test_no_unread_imports(stem):
    tree = _tree(stem)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = sorted(name for name in imported - read if (stem, name) not in UNREAD_IMPORTS)
    assert not unread, unread
