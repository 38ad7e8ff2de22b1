"""Engine-level fault-injection tests: zero-intensity byte identity,
Bernoulli/erasure bit equivalence, fault semantics, pool invariance."""

from __future__ import annotations

import pytest

from repro.faults import (
    BernoulliLoss,
    FaultPlan,
    FixedWindows,
    GilbertElliott,
    JammingBursts,
    NodeChurn,
    ClockGlitch,
    RenewalActivity,
)
from repro.net import M2HeWNetwork, NodeSpec
from repro.sim.batch import ExperimentSpec, run_batch
from repro.sim.parallel import pool_supported
from repro.sim.runner import run_asynchronous, run_synchronous
from repro.workloads.generator import WorkloadConfig


def mesh_net() -> M2HeWNetwork:
    nodes = [
        NodeSpec(0, frozenset({0, 1})),
        NodeSpec(1, frozenset({0, 1, 2})),
        NodeSpec(2, frozenset({1, 2})),
        NodeSpec(3, frozenset({0, 2})),
    ]
    return M2HeWNetwork(
        nodes, adjacency=[(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    )


def small_workload() -> WorkloadConfig:
    return WorkloadConfig(
        topology="clique",
        topology_params={"num_nodes": 5},
        channel_model="homogeneous",
        channel_params={"num_channels": 2},
    )


TRIVIAL_PLANS = [
    FaultPlan(),
    FaultPlan(models=(BernoulliLoss(0.0), NodeChurn())),
    FaultPlan(models=(JammingBursts(FixedWindows(())),)),
]


class TestZeroIntensityInvariance:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("plan", TRIVIAL_PLANS)
    def test_sync_identical_to_fault_free(self, engine, plan):
        net = mesh_net()
        kwargs = dict(
            seed=11, max_slots=5000, engine=engine, erasure_prob=0.1
        )
        base = run_synchronous(net, "algorithm2", **kwargs)
        faulted = run_synchronous(net, "algorithm2", faults=plan, **kwargs)
        assert base.to_dict() == faulted.to_dict()

    @pytest.mark.parametrize("plan", TRIVIAL_PLANS)
    def test_async_identical_to_fault_free(self, plan):
        net = mesh_net()
        kwargs = dict(
            seed=11,
            delta_est=4,
            max_frames_per_node=300,
            drift_bound=1e-4,
            erasure_prob=0.1,
        )
        base = run_asynchronous(net, **kwargs)
        faulted = run_asynchronous(net, faults=plan, **kwargs)
        assert base.to_dict() == faulted.to_dict()

    def test_archived_campaign_bytes_identical(self, tmp_path):
        """A campaign carrying a trivial plan archives the same bytes —
        manifest included — as one that never mentions faults."""
        def spec(params):
            return ExperimentSpec(
                name="inv",
                workload=small_workload(),
                protocol="algorithm3",
                trials=3,
                runner_params=params,
            )

        base_params = {"delta_est": 4, "max_slots": 20_000}
        d1, d2 = tmp_path / "plain", tmp_path / "trivial"
        run_batch([spec(dict(base_params))], base_seed=2, output_dir=d1)
        run_batch(
            [spec({**base_params, "faults": FaultPlan()})],
            base_seed=2,
            output_dir=d2,
        )
        for name in ("inv.json", "manifest.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def _strip_loss_config(result):
    d = result.to_dict()
    d["metadata"].pop("erasure_prob", None)
    d["metadata"].pop("faults", None)
    return d


class TestBernoulliErasureEquivalence:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_sync_bitwise_equal(self, engine):
        net = mesh_net()
        plan = FaultPlan(models=(BernoulliLoss(0.2),))
        a = run_synchronous(
            net, "algorithm2", seed=7, max_slots=8000, engine=engine,
            erasure_prob=0.2,
        )
        b = run_synchronous(
            net, "algorithm2", seed=7, max_slots=8000, engine=engine,
            faults=plan,
        )
        assert _strip_loss_config(a) == _strip_loss_config(b)

    def test_async_bitwise_equal(self):
        net = mesh_net()
        plan = FaultPlan(models=(BernoulliLoss(0.25),))
        kwargs = dict(
            seed=5, delta_est=4, max_frames_per_node=400, drift_bound=1e-4
        )
        a = run_asynchronous(net, erasure_prob=0.25, **kwargs)
        b = run_asynchronous(net, faults=plan, **kwargs)
        assert _strip_loss_config(a) == _strip_loss_config(b)


class TestFaultSemantics:
    def test_total_jamming_stalls_discovery(self):
        """Jamming every channel over [0, 200) forbids any coverage
        before slot 200, on both synchronous engines."""
        net = mesh_net()
        plan = FaultPlan(
            models=(JammingBursts(FixedWindows(((0.0, 200.0),))),)
        )
        for engine in ("fast", "reference"):
            r = run_synchronous(
                net, "algorithm2", seed=1, max_slots=5000, engine=engine,
                faults=plan,
            )
            assert r.completed, engine
            assert all(t >= 200.0 for t in r.coverage.values()), engine

    def test_crashed_node_stops_participating(self):
        net = mesh_net()
        plan = FaultPlan(models=(NodeChurn(crashes={2: 0.0}),))
        for engine in ("fast", "reference"):
            r = run_synchronous(
                net, "algorithm2", seed=1, max_slots=3000, engine=engine,
                faults=plan,
            )
            assert not r.completed, engine
            for (u, v), t in r.coverage.items():
                if 2 in (u, v):
                    assert t is None, (engine, u, v)
                else:
                    assert t is not None, (engine, u, v)

    def test_late_join_delays_start(self):
        net = mesh_net()
        plan = FaultPlan(models=(NodeChurn(joins={0: 50.0}),))
        for engine in ("fast", "reference"):
            r = run_synchronous(
                net, "algorithm2", seed=1, max_slots=5000, engine=engine,
                faults=plan,
            )
            assert r.start_times[0] == 50.0, engine
            assert r.completed, engine
            covered_from_0 = [
                t for (u, v), t in r.coverage.items() if u == 0
            ]
            assert all(t >= 50.0 for t in covered_from_0), engine

    def test_engines_complete_under_deterministic_faults(self):
        """FixedWindows jamming + churn (no fault randomness): both
        synchronous engines respect the same windows and still finish
        (the engines draw protocol randomness from different streams, so
        only the fault constraints — not exact slots — must agree)."""
        net = mesh_net()
        plan = FaultPlan(
            models=(
                JammingBursts(FixedWindows(((30.0, 60.0),)), channels=(1,)),
                NodeChurn(joins={3: 20.0}, crashes={0: 900.0}),
            )
        )
        for engine in ("fast", "reference"):
            r = run_synchronous(
                net, "algorithm2", seed=4, max_slots=4000, engine=engine,
                faults=plan,
            )
            assert r.completed, engine
            assert r.start_times[3] == 20.0, engine
            assert all(
                t < 900.0
                for (u, v), t in r.coverage.items()
                if 0 in (u, v)
            ), engine

    def test_async_crash_and_glitch(self):
        net = mesh_net()
        plan = FaultPlan(
            models=(
                NodeChurn(crashes={2: 0.0}),
                ClockGlitch(
                    spike=0.05, activity=RenewalActivity(5.0, 15.0)
                ),
            )
        )
        r = run_asynchronous(
            net,
            seed=6,
            delta_est=4,
            max_frames_per_node=250,
            drift_bound=1e-3,
            faults=plan,
        )
        assert not r.completed
        for (u, v), t in r.coverage.items():
            if 2 in (u, v):
                assert t is None, (u, v)

    def test_gilbert_elliott_degrades_but_recovers(self):
        net = mesh_net()
        plan = FaultPlan(
            models=(
                GilbertElliott(
                    p_good=0.05, p_bad=0.9, mean_good=200.0, mean_bad=40.0
                ),
            )
        )
        base = run_synchronous(net, "algorithm2", seed=9, max_slots=50_000)
        lossy = run_synchronous(
            net, "algorithm2", seed=9, max_slots=50_000, faults=plan
        )
        assert lossy.completed  # loss alone never makes discovery impossible
        assert lossy.horizon >= base.horizon


@pytest.mark.skipif(not pool_supported(), reason="no process pool here")
class TestPoolInvariance:
    def test_faulted_campaign_worker_count_invariant(self, tmp_path):
        plan = FaultPlan(
            models=(
                JammingBursts(
                    RenewalActivity(50.0, 150.0), channels=(0,)
                ),
                GilbertElliott(
                    p_good=0.02, p_bad=0.6, mean_good=300.0, mean_bad=30.0
                ),
                NodeChurn(joins={1: 25.0}),
            )
        )
        spec = ExperimentSpec(
            name="faulted",
            workload=small_workload(),
            protocol="algorithm3",
            trials=4,
            runner_params={
                "delta_est": 4,
                "max_slots": 30_000,
                "faults": plan,
            },
        )
        d1, d2 = tmp_path / "serial", tmp_path / "pool"
        run_batch([spec], base_seed=3, output_dir=d1, max_workers=1)
        run_batch(
            [spec],
            base_seed=3,
            output_dir=d2,
            max_workers=4,
            chunk_size=1,
        )
        for name in ("faulted.json", "manifest.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
