"""Differential tests: independent implementations must agree.

Two cross-checks guard against silent divergence:

* **engine vs engine** — the vectorized ``FastSlottedSimulator`` and the
  object-per-node reference ``slotted`` engine implement the same
  protocols independently; over many seeds their mean completion slot
  must agree within a combined confidence interval (they consume
  randomness differently, so per-seed equality is not expected);
* **parallel vs serial** — the process-pool campaign executor must be a
  pure dispatch optimization: byte-identical archives, trial for trial;
* **batched vs reference** — the trial-batched vectorized engine must
  agree statistically with the object-per-node reference engine, the
  same Welch-CI check the fast engine passes (byte-level agreement with
  the *fast* engine is pinned separately in ``test_batched_engine.py``);
* **validation** — every synchronous engine rejects a start offset for
  an unknown node the same way;
* **fallback vs serial** — protocols without a vectorized schedule
  (``mcdis``, the baselines) must route through the batched entry point
  to results byte-identical with the serial trial loop, and must refuse
  ``engine="fast"`` loudly rather than run wrong.

Engine-vs-engine comparisons cover :data:`VECTORIZED_SYNC_PROTOCOLS`
(registry-derived — a protocol registered as vectorized is enrolled here
automatically); the identity/fallback checks cover every registered
synchronous protocol.
"""

from __future__ import annotations

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.net import M2HeWNetwork, NodeSpec, build_network, channels, topology
from repro.sim.batch import ExperimentSpec, run_batch
from repro.sim.parallel import run_spec_trials
from repro.sim.rng import derive_trial_seed
from repro.sim.runner import (
    SYNC_PROTOCOLS,
    VECTORIZED_SYNC_PROTOCOLS,
    experiment_runner_params,
    run_experiment_grid_batched,
    run_experiment_trial,
    run_synchronous,
)

SEEDS = 30
BASE_SEED = 1234

NON_VECTORIZED = tuple(
    p for p in SYNC_PROTOCOLS if p not in VECTORIZED_SYNC_PROTOCOLS
)


def diff_net() -> M2HeWNetwork:
    """5-node clique, 2 homogeneous channels — completes fast under
    every registered protocol on both engines."""
    topo = topology.clique(5)
    return build_network(topo, channels.homogeneous(5, 2))


def diff_params(net, protocol, delta_est=8, max_slots=100_000):
    """Registry-driven runner params (degree bound, baseline extras)."""
    return experiment_runner_params(
        protocol, net, delta_est=delta_est, max_slots=max_slots
    )


def completion_times(net, protocol, engine, delta_est):
    times = []
    params = diff_params(net, protocol, delta_est=delta_est)
    for t in range(SEEDS):
        result = run_synchronous(
            net,
            protocol,
            seed=derive_trial_seed(BASE_SEED, t),
            engine=engine,
            **params,
        )
        assert result.completed, (protocol, engine, t)
        times.append(float(result.completion_time))
    return times


def batched_completion_times(net, protocol, delta_est):
    seeds = [derive_trial_seed(BASE_SEED, t) for t in range(SEEDS)]
    (results,) = run_experiment_grid_batched(
        net, [(protocol, seeds, diff_params(net, protocol, delta_est=delta_est))]
    )
    for t, result in enumerate(results):
        assert result.completed, (protocol, "batched", t)
    return [float(r.completion_time) for r in results]


def mean_std(xs):
    m = sum(xs) / len(xs)
    var = sum((x - m) ** 2 for x in xs) / (len(xs) - 1)
    return m, math.sqrt(var)


@pytest.mark.slow
class TestEnginesAgreeStatistically:
    @pytest.mark.parametrize("protocol", VECTORIZED_SYNC_PROTOCOLS)
    def test_mean_completion_within_ci(self, protocol):
        net = diff_net()
        delta_est = 8
        fast = completion_times(net, protocol, "fast", delta_est)
        ref = completion_times(net, protocol, "reference", delta_est)
        mf, sf = mean_std(fast)
        mr, sr = mean_std(ref)
        # Welch CI at ~3 sigma: generous enough to be deterministic-safe
        # (seeds are fixed), tight enough to catch a semantics drift —
        # e.g. an off-by-one slot origin shifts the mean by ~1 while the
        # combined standard error here is a few slots.
        stderr = math.sqrt(sf**2 / len(fast) + sr**2 / len(ref))
        assert abs(mf - mr) <= 3.0 * stderr + 1e-9, (
            f"{protocol}: fast mean {mf:.2f} vs reference mean {mr:.2f} "
            f"(3*stderr = {3 * stderr:.2f})"
        )

    @pytest.mark.parametrize("protocol", VECTORIZED_SYNC_PROTOCOLS)
    def test_batched_mean_completion_within_ci(self, protocol):
        net = diff_net()
        delta_est = 8
        batched = batched_completion_times(net, protocol, delta_est)
        ref = completion_times(net, protocol, "reference", delta_est)
        mb, sb = mean_std(batched)
        mr, sr = mean_std(ref)
        stderr = math.sqrt(sb**2 / len(batched) + sr**2 / len(ref))
        assert abs(mb - mr) <= 3.0 * stderr + 1e-9, (
            f"{protocol}: batched mean {mb:.2f} vs reference mean {mr:.2f} "
            f"(3*stderr = {3 * stderr:.2f})"
        )

    @pytest.mark.parametrize("protocol", VECTORIZED_SYNC_PROTOCOLS)
    def test_both_engines_full_coverage_tables(self, protocol):
        net = diff_net()
        for engine in ("fast", "reference"):
            result = run_synchronous(
                net,
                protocol,
                seed=derive_trial_seed(BASE_SEED, 0),
                engine=engine,
                **diff_params(net, protocol),
            )
            # Identical semantic surface: every directed link covered
            # and every neighbor table complete.
            assert result.completed
            for owner, table in result.neighbor_tables.items():
                assert set(table) == set(net.hears(owner))


class TestParallelSerialIdentity:
    """Fast (non-statistical) half of the differential suite."""

    @pytest.mark.parametrize("protocol", SYNC_PROTOCOLS)
    def test_trials_bitwise_equal(self, protocol):
        net = M2HeWNetwork(
            [
                NodeSpec(0, frozenset({0, 1})),
                NodeSpec(1, frozenset({0, 1})),
            ],
            adjacency=[(0, 1)],
        )
        params = diff_params(net, protocol, delta_est=4, max_slots=50_000)
        serial = run_spec_trials(
            net, protocol, trials=4, base_seed=77, runner_params=params
        )
        pooled = run_spec_trials(
            net,
            protocol,
            trials=4,
            base_seed=77,
            runner_params=params,
            max_workers=2,
            chunk_size=1,
        )
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in pooled]

    def test_batch_outcome_summaries_equal(self, tmp_path):
        from repro.workloads.generator import WorkloadConfig

        spec = ExperimentSpec(
            name="diff",
            workload=WorkloadConfig(
                topology="ring",
                topology_params={"num_nodes": 6},
                channel_model="homogeneous",
                channel_params={"num_channels": 2},
            ),
            protocol="algorithm3",
            trials=5,
            runner_params={"delta_est": 4, "max_slots": 50_000},
        )
        serial = run_batch([spec], base_seed=5, max_workers=1)[0]
        pooled = run_batch([spec], base_seed=5, max_workers=2)[0]
        assert serial.as_row() == pooled.as_row()
        assert serial.network_params == pooled.network_params
        assert serial.completion.mean == pooled.completion.mean


class TestStartOffsetValidation:
    """Every synchronous engine rejects a start offset for a node the
    network does not have, naming the node."""

    @pytest.mark.parametrize("engine", ["reference", "fast", "grid"])
    def test_unknown_node_rejected(self, engine):
        net = diff_net()
        params = {"max_slots": 100, "delta_est": 4, "start_offsets": {99: 3}}
        with pytest.raises(ConfigurationError, match="unknown node 99"):
            if engine == "grid":
                run_experiment_grid_batched(net, [("algorithm3", [1], params)])
            else:
                run_synchronous(net, "algorithm3", seed=1, engine=engine, **params)


class TestNonVectorizedFallback:
    """Protocols without a vectorized schedule: explicit refusal on the
    fast engine, byte-identical serial fallback through the batched
    entry point — never a silently different code path."""

    def test_registry_has_non_vectorized_protocols(self):
        # The suite below is only meaningful while such protocols exist.
        assert "mcdis" in NON_VECTORIZED

    @pytest.mark.parametrize("protocol", NON_VECTORIZED)
    def test_fast_engine_refuses(self, protocol):
        net = diff_net()
        with pytest.raises(ConfigurationError, match="no vectorized schedule"):
            run_synchronous(
                net,
                protocol,
                seed=0,
                engine="fast",
                **diff_params(net, protocol, max_slots=1_000),
            )

    @pytest.mark.parametrize("protocol", NON_VECTORIZED)
    def test_auto_engine_selects_reference(self, protocol):
        net = diff_net()
        params = diff_params(net, protocol, max_slots=50_000)
        auto = run_synchronous(net, protocol, seed=3, engine="auto", **params)
        ref = run_synchronous(net, protocol, seed=3, engine="reference", **params)
        assert auto.to_dict() == ref.to_dict()

    @pytest.mark.parametrize("protocol", NON_VECTORIZED)
    def test_batched_entry_point_falls_back_bitwise(self, protocol):
        net = diff_net()
        params = diff_params(net, protocol, max_slots=50_000)
        seeds = [derive_trial_seed(BASE_SEED, t) for t in range(4)]
        (batched,) = run_experiment_grid_batched(net, [(protocol, seeds, params)])
        serial = [
            run_experiment_trial(net, protocol, seed=s, runner_params=params)
            for s in seeds
        ]
        assert [r.to_dict() for r in batched] == [r.to_dict() for r in serial]
