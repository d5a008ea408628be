"""Public API surface tests: everything documented must import and work."""

import importlib
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

#: Every module in the package, read off the source tree so that adding
#: or deleting a module needs no edit here.
SUBMODULES = sorted(
    ".".join(("repro",) + path.relative_to(SRC).with_suffix("").parts)
    .removesuffix(".__init__")
    for path in SRC.rglob("*.py") if path.name != "__main__.py")

#: Modules of the sharded and pre-forked topologies and of the in-package
#: load driver, deleted with them.
REMOVED_MODULES = [
    "repro.shard",
    "repro.shard.manifest",
    "repro.shard.partition",
    "repro.shard.stitch",
    "repro.service.router",
    "repro.service.workers",
    "repro.bench.serving",
    "repro.workload.traffic",
]


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_method_registry_complete(self):
        assert set(repro.METHODS) == {"DIJ", "FULL", "LDM", "HYP"}

    @pytest.mark.parametrize("module", SUBMODULES)
    def test_submodules_import(self, module):
        assert importlib.import_module(module) is not None

    @pytest.mark.parametrize("module", REMOVED_MODULES)
    def test_removed_modules_are_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_subpackage_all_exports_resolve(self):
        for module_name in ("repro.graph", "repro.order", "repro.merkle",
                            "repro.shortestpath", "repro.landmarks",
                            "repro.hiti", "repro.core", "repro.workload",
                            "repro.crypto", "repro.bench", "repro.service",
                            "repro.api"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.{name}"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_no_path_error_carries_endpoints(self):
        from repro.errors import NoPathError

        err = NoPathError(3, 9)
        assert err.source == 3 and err.target == 9
        assert "3" in str(err) and "9" in str(err)


class TestDocstrings:
    """Every public module and class documents itself."""

    def test_module_docstrings(self):
        for module_name in ("repro", "repro.core", "repro.merkle",
                            "repro.landmarks", "repro.hiti",
                            "repro.shortestpath", "repro.graph"):
            module = importlib.import_module(module_name)
            assert module.__doc__ and len(module.__doc__) > 40, module_name

    def test_public_class_docstrings(self):
        from repro import (
            Client,
            DataOwner,
            DijMethod,
            FullMethod,
            HypMethod,
            LdmMethod,
            Path,
            QueryResponse,
            ServiceProvider,
            SpatialGraph,
        )

        for cls in (Client, DataOwner, ServiceProvider, SpatialGraph, Path,
                    QueryResponse, DijMethod, FullMethod, LdmMethod, HypMethod):
            assert cls.__doc__, cls.__name__
