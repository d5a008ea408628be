"""Public API surface tests: everything documented must import and work."""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_method_registry_complete(self):
        assert set(repro.METHODS) == {"DIJ", "FULL", "LDM", "HYP"}

    @pytest.mark.parametrize("module", [
        "repro.api",
        "repro.api.codes",
        "repro.api.envelope",
        "repro.api.dispatcher",
        "repro.api.transport",
        "repro.api.client",
        "repro.encoding",
        "repro.errors",
        "repro.cli",
        "repro.crypto",
        "repro.crypto.hashing",
        "repro.crypto.primes",
        "repro.crypto.rsa",
        "repro.crypto.signer",
        "repro.graph",
        "repro.graph.graph",
        "repro.graph.tuples",
        "repro.graph.io",
        "repro.graph.synthetic",
        "repro.graph.components",
        "repro.order",
        "repro.merkle",
        "repro.shortestpath",
        "repro.landmarks",
        "repro.hiti",
        "repro.core",
        "repro.core.estimate",
        "repro.workload",
        "repro.bench",
        "repro.bench.serving",
        "repro.service",
        "repro.service.cache",
        "repro.service.metrics",
        "repro.service.server",
        "repro.service.aio",
        "repro.service.workers",
        "repro.service.router",
        "repro.shard",
        "repro.shard.partition",
        "repro.shard.manifest",
        "repro.shard.stitch",
        "repro.store",
        "repro.store.pack",
        "repro.store.artifact",
        "repro.core.state",
    ])
    def test_submodules_import(self, module):
        assert importlib.import_module(module) is not None

    def test_subpackage_all_exports_resolve(self):
        for module_name in ("repro.graph", "repro.order", "repro.merkle",
                            "repro.shortestpath", "repro.landmarks",
                            "repro.hiti", "repro.core", "repro.workload",
                            "repro.crypto", "repro.bench", "repro.service",
                            "repro.api", "repro.shard"):
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
