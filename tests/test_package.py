"""The package's own surface: what it exports and what its modules import."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import bbbounds

SOURCE = Path(bbbounds.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
MODULES = sorted(p.stem for p in SOURCE.glob("*.py") if p.stem not in ("__init__", "__main__"))

# Imports a module keeps without reading them, with the reason each stays.
UNREAD_IMPORTS: set[tuple[str, str]] = set()


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


def test_bench_tracer_installs_and_restores():
    # bench/tracer.py patches the package's names by attribute: a name it
    # patches that the package no longer has fails here, not only in the
    # traced bench run
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    owners = [importlib.import_module(f"bbbounds.{stem}") for stem in ("bounds", "space", "tuning", "verify")]
    tuning = owners[2]
    owners.append(owners[-1].VariantTotals)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer, bbbounds)
        # an interior minimum, so the search runs past its first three points
        inst, coeffs = bbbounds.generate_instance(bbbounds.GenConfig(master_seed=5, count=1, n_range=(4, 4), d_range=(4, 4)), 0)
        evaluated = []
        search = tuning._minimize
        tuning._minimize = lambda fn: search(lambda p: evaluated.append(p) or fn(p))
        try:
            bbbounds.optimize_exponent("coarse", inst, coeffs)
        finally:
            tuning._minimize = search
        # the one search counts every exponent it evaluates
        assert tracer.counts["tuning.rhs_evals"] == len(evaluated) > 3
        # a tuned rank searches every optimized family's term, so the
        # optimizes after it on the same instance and coefficients add none
        inst, coeffs = bbbounds.generate_instance(bbbounds.GenConfig(master_seed=5, count=1), 0)
        bbbounds.rank_variants(inst, coeffs, [v for v in bbbounds.full_catalog() if not v.orthonormal_only])
        ranked = tracer.counts["tuning.rhs_evals"]
        assert ranked > len(evaluated)
        for family in bbbounds.PROFILE_FAMILIES:
            bbbounds.optimize_exponent(family, inst, coeffs)
        assert tracer.counts["tuning.rhs_evals"] == ranked
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in owners] == before
