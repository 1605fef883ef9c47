"""Tests for the open backend registry and adapter lifecycle guarantees."""

from __future__ import annotations

import pytest

from repro.backends import (
    DuckDBBackend,
    SimulatedBackend,
    SQLiteBackend,
    backend_from_name,
    duckdb_available,
    register_backend,
    registered_backends,
)
from repro.backends import _BACKEND_FACTORIES
from repro.core import CampaignSpec, run_campaign
from repro.dsg import DSG, DSGConfig
from repro.errors import BackendError


class TestRegistry:
    def test_builtin_names_resolve(self):
        assert isinstance(backend_from_name("sqlite"), SQLiteBackend)
        assert isinstance(backend_from_name("duckdb"), DuckDBBackend)
        assert isinstance(backend_from_name("sim"), SimulatedBackend)
        sim = backend_from_name("sim:SimMySQL")
        assert isinstance(sim, SimulatedBackend)
        assert sim.dialect is not None and sim.dialect.name == "SimMySQL"

    def test_registered_backends_lists_prefixes(self):
        names = registered_backends()
        assert "sqlite" in names and "duckdb" in names
        assert "sim:*" in names

    def test_unknown_name_lists_known_backends(self):
        with pytest.raises(KeyError, match="registered backends"):
            backend_from_name("oracledb")

    def test_third_party_adapter_plugs_in_without_editing_the_package(self):
        class InHouseBackend(SimulatedBackend):
            pass

        register_backend("in-house", InHouseBackend)
        try:
            assert isinstance(backend_from_name("in-house"), InHouseBackend)
            assert "in-house" in registered_backends()
        finally:
            _BACKEND_FACTORIES.pop("in-house", None)

    def test_duckdb_constructs_without_driver_but_connect_is_gated(self):
        backend = backend_from_name("duckdb")
        if duckdb_available():
            pytest.skip("duckdb installed; the gated path is not reachable")
        with pytest.raises(BackendError, match="pip install duckdb"):
            backend.connect()


def run_registered(backend):
    """A differential campaign against *backend*, reached by a test-only name."""
    register_backend("test-close-safety", lambda: backend)
    try:
        return run_campaign(CampaignSpec(kind="differential",
                                         backend="test-close-safety",
                                         hours=1, queries_per_hour=2))
    finally:
        _BACKEND_FACTORIES.pop("test-close-safety", None)


class TestCloseSafety:
    def deployed_sqlite(self):
        dsg = DSG(DSGConfig(dataset="shopping", dataset_rows=80, seed=3))
        backend = SQLiteBackend()
        backend.deploy(dsg.database)
        return backend

    def test_sqlite_close_twice_is_safe(self):
        backend = self.deployed_sqlite()
        backend.close()
        backend.close()

    def test_simulated_close_twice_is_safe(self):
        backend = SimulatedBackend()
        backend.connect()
        backend.close()
        backend.close()

    def test_duckdb_close_without_connect_is_safe(self):
        backend = DuckDBBackend()
        backend.close()
        backend.close()

    def test_context_manager_close_after_explicit_close(self):
        backend = self.deployed_sqlite()
        with backend:
            backend.close()
        # __exit__ closed again; a third close is still fine.
        backend.close()

    def test_failed_deploy_does_not_leak_a_connection(self):
        """A backend whose deploy explodes is closed before the error surfaces."""
        closes = []

        class FailingLoad(SQLiteBackend):
            def load_schema(self, schema):
                raise BackendError("schema rejected")

            def close(self):
                closes.append(True)
                super().close()

        with pytest.raises(BackendError, match="schema rejected"):
            run_registered(FailingLoad())
        assert closes, "campaign error path must close the adapter"

    def test_campaign_closes_backend_on_success(self):
        backend = SQLiteBackend()
        run_registered(backend)
        with pytest.raises(BackendError):
            backend.connection  # noqa: B018 - property raises when closed
