"""Unit tests for repro.core.registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import DeterministicScanProtocol, UniversalSweepProtocol
from repro.core import (
    AsyncFrameDiscovery,
    FlatSyncDiscovery,
    GrowingEstimateSyncDiscovery,
    StagedSyncDiscovery,
    make_async_factory,
    make_sync_factory,
)
from repro.core.mcdis import McDisDiscovery
from repro.core.registry import (
    ASYNCHRONOUS_PROTOCOLS,
    PROTOCOL_SPECS,
    SYNCHRONOUS_PROTOCOLS,
    VECTORIZED_PROTOCOLS,
    ProtocolSpec,
    protocol_spec,
)
from repro.core.robust import RobustFlatDiscovery, RobustStagedDiscovery
from repro.exceptions import ConfigurationError


def build(factory, channels=(0, 1)):
    return factory(0, frozenset(channels), np.random.default_rng(0))


class TestSyncFactory:
    def test_algorithm1(self):
        proto = build(make_sync_factory("algorithm1", delta_est=8))
        assert isinstance(proto, StagedSyncDiscovery)
        assert proto.delta_est == 8

    def test_algorithm2(self):
        proto = build(make_sync_factory("algorithm2"))
        assert isinstance(proto, GrowingEstimateSyncDiscovery)

    def test_algorithm3(self):
        proto = build(make_sync_factory("algorithm3", delta_est=4))
        assert isinstance(proto, FlatSyncDiscovery)

    def test_universal_sweep(self):
        proto = build(
            make_sync_factory(
                "universal_sweep", delta_est=4, universal_channels=[0, 1, 2]
            )
        )
        assert isinstance(proto, UniversalSweepProtocol)

    def test_deterministic_scan(self):
        proto = build(
            make_sync_factory(
                "deterministic_scan", universal_channels=[0, 1], id_space_size=8
            )
        )
        assert isinstance(proto, DeterministicScanProtocol)

    def test_missing_required_params(self):
        with pytest.raises(ConfigurationError, match="delta_est"):
            make_sync_factory("algorithm1")
        with pytest.raises(ConfigurationError, match="delta_est"):
            make_sync_factory("algorithm3")
        with pytest.raises(ConfigurationError, match="universal_channels"):
            make_sync_factory("universal_sweep", delta_est=4)
        with pytest.raises(ConfigurationError, match="id_space_size"):
            make_sync_factory("deterministic_scan", universal_channels=[0])

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown synchronous"):
            make_sync_factory("nope")

    def test_robust_staged(self):
        proto = build(make_sync_factory("robust_staged", delta_est=8))
        assert isinstance(proto, RobustStagedDiscovery)

    def test_robust_flat(self):
        proto = build(make_sync_factory("robust_flat", delta_est=8))
        assert isinstance(proto, RobustFlatDiscovery)

    def test_mcdis(self):
        proto = build(make_sync_factory("mcdis"))
        assert isinstance(proto, McDisDiscovery)

    def test_rivals_missing_delta_est(self):
        with pytest.raises(ConfigurationError, match="delta_est"):
            make_sync_factory("robust_staged")
        with pytest.raises(ConfigurationError, match="delta_est"):
            make_sync_factory("robust_flat")

    def test_async_name_rejected_by_sync_factory(self):
        with pytest.raises(ConfigurationError, match="unknown synchronous"):
            make_sync_factory("algorithm4", delta_est=4)


class TestSpecTable:
    def test_names_unique_and_constants_consistent(self):
        names = [spec.name for spec in PROTOCOL_SPECS]
        assert len(set(names)) == len(names)
        assert SYNCHRONOUS_PROTOCOLS == tuple(
            s.name for s in PROTOCOL_SPECS if s.kind == "sync"
        )
        assert ASYNCHRONOUS_PROTOCOLS == tuple(
            s.name for s in PROTOCOL_SPECS if s.kind == "async"
        )
        assert set(VECTORIZED_PROTOCOLS) <= set(SYNCHRONOUS_PROTOCOLS)

    def test_every_sync_spec_builds(self):
        # Registering a spec without a builder branch must be impossible
        # to miss: build every sync name with the uniform parameter set.
        for name in SYNCHRONOUS_PROTOCOLS:
            factory = make_sync_factory(
                name,
                delta_est=4,
                universal_channels=[0, 1],
                id_space_size=4,
            )
            assert build(factory) is not None, name

    def test_rivals_registered(self):
        assert {"mcdis", "robust_staged", "robust_flat"} <= set(
            SYNCHRONOUS_PROTOCOLS
        )
        assert protocol_spec("mcdis").vectorized is False
        assert protocol_spec("robust_flat").vectorized is True

    def test_protocol_spec_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            protocol_spec("warp_drive")

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ProtocolSpec("x", "quantum", "bad kind")


class TestAsyncFactory:
    def test_algorithm4(self):
        proto = build(make_async_factory("algorithm4", delta_est=4))
        assert isinstance(proto, AsyncFrameDiscovery)

    def test_missing_delta_est(self):
        with pytest.raises(ConfigurationError, match="delta_est"):
            make_async_factory("algorithm4")

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown asynchronous"):
            make_async_factory("bogus", delta_est=2)
