"""The package namespace: lazily resolved public names."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genbound
import genbound.bounds_catalog
import genbound.divergence_core
import genbound.privacy_mechanisms
from genbound.cli import main
from genbound.covering import CoverKind


PUBLIC_NAMES = [
    "BoundId", "BoundReport", "CoverKind", "CoverSpec", "ExperimentConfig",
    "GenboundError", "InputError", "Mechanism", "PrivacyKind",
    "PrivacyParams", "ResourceLimitError", "SourceDistribution",
    "asymptotic_report", "build_full_grid_cover",
    "build_simplex_grid_cover", "build_typical_cover", "catalog_entries",
    "exact_expected_gen_error", "exponential_mechanism_over_types",
    "gdp_param_noisy_sgd", "gen_error_from_mi", "identity_mechanism",
    "kl_bound_cover_dp", "kl_bound_cover_gdp", "kl_bound_refined",
    "kl_bound_simple", "kl_stability_bound", "load_experiment_config",
    "mc_expected_gen_error", "mi_bound_typical", "num_types",
    "optimal_grid_parameter", "pac_bayes_gen_bound", "run_verification",
    "sigma_sub_gaussian", "simplex_hypercube_count", "typical_epsilon",
    "verify_cover", "verify_kl_stability",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 39 and PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert genbound.__all__ == PUBLIC_NAMES


def test_divergence_core_exports_only_the_matrix_layer():
    # the audit's KL between kernel rows, and nothing the package
    # re-exports
    assert genbound.divergence_core.__all__ == ["kl_row_blocks"]
    assert not {"divergence_core"} & set(
        genbound._MODULE_OF[name] for name in genbound.__all__)


# a fresh interpreter runs one command, then says whether the KL layer
# was loaded
KL_LAYER_LOADED = """
import sys
from genbound.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print("genbound.divergence_core" in sys.modules)
"""


@pytest.mark.parametrize("args, loaded", [
    (["verify-mi", "--config", "exp.cfg"], False),
    (["simulate", "--config", "exp.cfg"], False),
    (["stability", "--alphabet-size", "2", "--n", "6", "--epsilon", "0.5"], True),
], ids=["verify-mi", "simulate", "stability"])
def test_only_the_audit_loads_the_kl_layer(tmp_path, args, loaded):
    (tmp_path / "exp.cfg").write_text(
        "alphabet_size = 2\nn = 6\nsource = 0.5, 0.5\n"
        "mechanism = exponential\nepsilon = 0.5\nmc_samples = 200\n")
    src = str(Path(genbound.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", KL_LAYER_LOADED, *args],
                         capture_output=True, text=True, check=True, cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.splitlines()[-1] == str(loaded)


@pytest.mark.parametrize("layer", [
    "types_core", "divergence_core", "covering", "privacy_mechanisms",
    "oracle_harness",
])
def test_one_row_block_size(layer):
    # every blocked pass takes its rows from types_core.row_blocks: only
    # types_core binds or names a block bound, and every other layer
    # imports the helper
    import genbound.types_core as core

    module = importlib.import_module(f"genbound.{layer}")
    bounds = [attr for attr in vars(module) if attr.startswith("BLOCK_")]
    if layer == "types_core":
        assert bounds == ["BLOCK_ROWS", "BLOCK_CELLS"]
        assert (core.BLOCK_ROWS, core.BLOCK_CELLS) == (256, 256 * 8192)
        assert {"BLOCK_ROWS", "BLOCK_CELLS", "row_blocks"} <= set(core.__all__)
    else:
        assert bounds == []
        assert "BLOCK_" not in Path(module.__file__).read_text()
        assert module.row_blocks is core.row_blocks


TESTS = Path(__file__).parent


def imported_modules(path: Path) -> list[str]:
    """Every module name an import statement in the file names, with the
    imported names of each `from` import."""
    modules = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
            modules += [alias.name for alias in node.names]
    return modules


def test_package_never_imports_a_test_reference():
    # the references in tests/ check the package, never feed it
    references = {"config_reference", "divergence_reference", "lattice_reference"}
    sources = sorted(Path(genbound.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for module in imported_modules(path):
            assert not references & set(module.split(".")), (path.name, module)
    # and the converse: a one-row reference that ran the package's code
    # would check that code against itself; only the errors are shared
    for name in ("divergence_reference", "lattice_reference"):
        package = [module for module in imported_modules(TESTS / f"{name}.py")
                   if module.split(".")[0] == "genbound"]
        assert set(package) <= {"genbound.errors"}, (name, package)


@pytest.mark.parametrize("name", genbound.__all__)
def test_public_name_is_its_defining_modules_object(name):
    obj = getattr(genbound, name)
    assert obj.__module__.startswith("genbound.")
    assert obj is getattr(importlib.import_module(obj.__module__), name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from genbound import *", namespace)
    for name in genbound.__all__:
        assert namespace[name] is getattr(genbound, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        genbound.no_such_name  # noqa: B018
    assert not hasattr(genbound, "_no_such_private")


def test_privacy_params_is_one_object_everywhere():
    assert (genbound.PrivacyParams
            is genbound.privacy_mechanisms.PrivacyParams
            is genbound.bounds_catalog.PrivacyParams)
    assert (genbound.PrivacyKind
            is genbound.privacy_mechanisms.PrivacyKind
            is genbound.bounds_catalog.PrivacyKind)


def test_cover_kind_choices_match_the_enum():
    kind = next(kwargs for flags, kwargs in main.commands["cover"].options
                if flags == ("--kind",))
    assert list(kind["choices"]) == [k.value for k in CoverKind]
