"""Tests for the trial-batched vectorized engine and sparse reception.

The load-bearing guarantee: a batched trial is byte-identical to the
same trial on the serial fast engine, for any batch size, with or
without faults/erasure/offsets — so batching is purely a dispatch
optimization, exactly like worker fan-out.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.net import build_network, channels, topology
from repro.sim.batch import ExperimentSpec, run_batch
from repro.sim.batched import BatchedSlottedSimulator
from repro.sim.fast_slotted import (
    FastSlottedSimulator,
    FlatSchedule,
    SparseReception,
)
from repro.sim.parallel import run_spec_trials
from repro.sim.rng import RngFactory, derive_trial_seed
from repro.sim.runner import (
    _vector_schedule,
    run_experiment_grid_batched,
    run_experiment_trial,
)
from repro.sim.stopping import StoppingCondition
from repro.workloads.generator import WorkloadConfig

BASE_SEED = 4242


def homogeneous_net(n: int = 10):
    rng = np.random.default_rng(7)
    topo = topology.random_geometric(n, 0.6, rng)
    return build_network(topo, channels.uniform_random_subsets(n, 5, 3, rng))


def heterogeneous_net(n: int = 10):
    rng = np.random.default_rng(11)
    topo = topology.random_geometric(n, 0.6, rng)
    assignment = channels.uniform_random_subsets(
        n, 6, 2, rng, set_size_max=5
    )
    assignment = channels.repair_pair_overlap(topo, assignment, rng)
    return build_network(topo, assignment)


def serial_results(net, schedule, batch, stopping, **kwargs):
    out = []
    for i in range(batch):
        factory = RngFactory(derive_trial_seed(BASE_SEED, i))
        sim = FastSlottedSimulator(net, schedule, factory, **kwargs)
        out.append(sim.run(stopping))
    return out


def batched_results(net, schedule, batch, stopping, **kwargs):
    factories = [
        RngFactory(derive_trial_seed(BASE_SEED, i)) for i in range(batch)
    ]
    return BatchedSlottedSimulator(net, schedule, factories, **kwargs).run(
        stopping
    )


class TestBatchedMatchesSerial:
    """Bit-for-bit agreement with the serial fast engine."""

    @pytest.mark.parametrize(
        "protocol", ["algorithm1", "algorithm2", "algorithm3"]
    )
    @pytest.mark.parametrize("hetero", [False, True])
    def test_all_protocols_both_channel_models(self, protocol, hetero):
        net = heterogeneous_net() if hetero else homogeneous_net()
        schedule = _vector_schedule(protocol, net, 10)
        stopping = StoppingCondition(max_slots=400, stop_on_full_coverage=True)
        assert serial_results(net, schedule, 5, stopping) == batched_results(
            net, schedule, 5, stopping
        )

    def test_with_erasure_offsets_and_faults(self):
        from repro.faults.presets import fault_preset

        net = homogeneous_net()
        schedule = _vector_schedule("algorithm2", net, None)
        stopping = StoppingCondition(max_slots=300, stop_on_full_coverage=True)
        for preset in ["jamming_light", "bursty_loss", "late_join", "crash_node0"]:
            kwargs = dict(
                start_offsets={0: 3, 4: 1},
                erasure_prob=0.15,
                faults=fault_preset(preset),
            )
            assert serial_results(
                net, schedule, 4, stopping, **kwargs
            ) == batched_results(net, schedule, 4, stopping, **kwargs), preset

    def test_no_early_stop_budget_exhaustion(self):
        net = homogeneous_net(6)
        schedule = _vector_schedule("algorithm3", net, 6)
        stopping = StoppingCondition(max_slots=50, stop_on_full_coverage=False)
        serial = serial_results(net, schedule, 3, stopping)
        batched = batched_results(net, schedule, 3, stopping)
        assert serial == batched
        assert all(r.horizon == 50.0 for r in batched)

    def test_metadata_reports_fast_engine(self):
        net = homogeneous_net(6)
        schedule = _vector_schedule("algorithm2", net, None)
        stopping = StoppingCondition(max_slots=200, stop_on_full_coverage=True)
        (result,) = batched_results(net, schedule, 1, stopping)
        assert result.metadata["engine"] == "slotted-fast"


class TestBatchSizeInvariance:
    """Archives cannot depend on how trials were grouped into batches."""

    WORKLOAD = WorkloadConfig(
        topology="clique",
        topology_params={"num_nodes": 6},
        channel_model="homogeneous",
        channel_params={"num_channels": 2},
    )
    PARAMS = {"max_slots": 5_000, "delta_est": None}

    def _archive(self, tmp_path, label, **kwargs):
        spec = ExperimentSpec(
            name="invariance",
            workload=self.WORKLOAD,
            protocol="algorithm2",
            trials=9,
            runner_params=dict(self.PARAMS),
        )
        out = tmp_path / label
        run_batch([spec], base_seed=77, output_dir=out, **kwargs)
        return (out / "invariance.json").read_bytes()

    @pytest.mark.parametrize("batch_size", [1, 4, 7, 32])
    def test_byte_identical_archives(self, tmp_path, batch_size):
        reference = self._archive(tmp_path, "serial", backend="serial")
        vectorized = self._archive(
            tmp_path,
            f"vec{batch_size}",
            backend="vectorized",
            batch_size=batch_size,
        )
        assert vectorized == reference

    def test_result_lists_match_serial_backend(self):
        from repro.workloads.generator import generate_network

        net = generate_network(self.WORKLOAD, seed=0)
        serial = run_spec_trials(
            net,
            "algorithm2",
            trials=9,
            base_seed=5,
            runner_params=self.PARAMS,
            backend="serial",
        )
        for batch_size in (1, 4, 7, 32):
            vectorized = run_spec_trials(
                net,
                "algorithm2",
                trials=9,
                base_seed=5,
                runner_params=self.PARAMS,
                backend="vectorized",
                batch_size=batch_size,
            )
            assert vectorized == serial


class TestVectorizedFallbacks:
    """Campaigns the batched engine cannot take fall back, byte-identically."""

    def test_algorithm4_falls_back(self):
        net = homogeneous_net(5)
        params = {"delta_est": 5, "max_frames_per_node": 30}
        serial = run_spec_trials(
            net,
            "algorithm4",
            trials=2,
            base_seed=3,
            runner_params=params,
            backend="serial",
        )
        vectorized = run_spec_trials(
            net,
            "algorithm4",
            trials=2,
            base_seed=3,
            runner_params=params,
            backend="vectorized",
        )
        assert vectorized == serial

    def test_reference_engine_falls_back(self):
        net = homogeneous_net(5)
        params = {"engine": "reference", "delta_est": 5, "max_slots": 2_000}
        seeds = [derive_trial_seed(9, i) for i in range(3)]
        expected = [
            run_experiment_trial(
                net, "algorithm1", seed=s, runner_params=params
            )
            for s in seeds
        ]
        (actual,) = run_experiment_grid_batched(
            net, [("algorithm1", seeds, params)]
        )
        assert actual == expected

    def test_unsupported_param_falls_back(self):
        net = homogeneous_net(5)
        params = {"max_slots": 2_000, "universal_channels": None}
        seeds = [derive_trial_seed(9, i) for i in range(2)]
        expected = [
            run_experiment_trial(
                net, "algorithm2", seed=s, runner_params=params
            )
            for s in seeds
        ]
        assert run_experiment_grid_batched(
            net, [("algorithm2", seeds, params)]
        ) == [expected]


class TestValidation:
    def test_needs_at_least_one_factory(self):
        net = homogeneous_net(5)
        schedule = _vector_schedule("algorithm2", net, None)
        with pytest.raises(ConfigurationError, match="at least one"):
            BatchedSlottedSimulator(net, schedule, [])

    def test_rejects_bad_erasure(self):
        net = homogeneous_net(5)
        schedule = _vector_schedule("algorithm2", net, None)
        with pytest.raises(ConfigurationError, match="erasure_prob"):
            BatchedSlottedSimulator(
                net, schedule, [RngFactory(0)], erasure_prob=1.0
            )

    def test_rejects_schedule_size_mismatch(self):
        net = homogeneous_net(5)
        other = _vector_schedule("algorithm2", homogeneous_net(6), None)
        with pytest.raises(ConfigurationError, match="covers"):
            BatchedSlottedSimulator(net, other, [RngFactory(0)])

    def test_rejects_negative_offset(self):
        net = homogeneous_net(5)
        schedule = _vector_schedule("algorithm2", net, None)
        with pytest.raises(ConfigurationError, match="offset"):
            BatchedSlottedSimulator(
                net, schedule, [RngFactory(0)], start_offsets={0: -1}
            )

    def test_batch_size_requires_vectorized_backend(self):
        net = homogeneous_net(5)
        with pytest.raises(ConfigurationError, match="vectorized"):
            run_spec_trials(
                net, "algorithm2", trials=2, backend="serial", batch_size=2
            )

    def test_conflicting_chunk_and_batch_size(self):
        net = homogeneous_net(5)
        with pytest.raises(ConfigurationError, match="chunk_size or batch_size"):
            run_spec_trials(
                net,
                "algorithm2",
                trials=4,
                backend="vectorized",
                batch_size=2,
                chunk_size=3,
            )


class TestScalarBoundPin:
    """The batched engine draws channel picks with a scalar bound when
    every node has the same |A(u)|; numpy must keep that bitstream-
    identical to the serial engine's array-bound call."""

    def test_scalar_and_array_bounds_agree(self):
        n, bound = 64, 5
        g1 = np.random.Generator(np.random.PCG64(12345))
        g2 = np.random.Generator(np.random.PCG64(12345))
        a = g1.integers(0, bound, n)
        b = g2.integers(0, np.full(n, bound, dtype=np.int64))
        assert np.array_equal(a, b)
        assert g1.bit_generator.state == g2.bit_generator.state


class TestSparseReceptionKernel:
    """The one reception kernel on a hand-checkable clique."""

    @staticmethod
    def slot(rows):
        """Flat ``(transmit, listen, chan)`` arrays from per-row
        ``{node: ("tx" | "rx", dense channel)}`` maps over 4 nodes."""
        transmit = np.zeros(4 * len(rows), dtype=bool)
        listen = np.zeros_like(transmit)
        chan = np.zeros(transmit.size, dtype=np.int64)
        for r, row in enumerate(rows):
            for node, (mode, k) in row.items():
                (transmit if mode == "tx" else listen)[4 * r + node] = True
                chan[4 * r + node] = k
        return transmit, listen, chan

    def test_resolve_counts_and_senders(self):
        # 4-node clique on channels {0, 1}: everyone hears everyone.
        net = build_network(topology.clique(4), channels.homogeneous(4, 2))
        kernel = SparseReception(net)
        link = {lk.key: e for e, lk in enumerate(net.links())}
        assert kernel.num_links == len(link) == 12

        def resolve(rows):
            transmit, listen, chan = self.slot(rows)
            return kernel.resolve(transmit.nonzero()[0], listen, chan)

        # Row 0: nodes 0 and 2 transmit on channel 0 -> node 1 there
        # hears a collision (count 2); node 3 listens on channel 1 and
        # hears nothing.
        row0 = {0: ("tx", 0), 2: ("tx", 0), 1: ("rx", 0), 3: ("rx", 1)}
        # Row 1: node 0 alone transmits on channel 0 -> nodes 1 and 3
        # there hear it clearly, over links 0->1 and 0->3; node 2 on
        # channel 1 hears nothing.
        row1 = {0: ("tx", 0), 1: ("rx", 0), 2: ("rx", 1), 3: ("rx", 0)}

        collided, clear, keys = resolve([row0])
        assert collided.tolist() == [1]
        assert clear.tolist() == [] and keys.tolist() == []

        collided, clear, keys = resolve([row1])
        assert collided.tolist() == []
        assert clear.tolist() == [1, 3]
        assert keys.tolist() == [link[(0, 1)], link[(0, 3)]]

        # Both rows in one call: row 0's transmitters stay out of row 1
        # (flat indices 4..7), each row resolves as it did alone, and a
        # row-1 key is offset by one row of links.
        collided, clear, keys = resolve([row0, row1])
        assert collided.tolist() == [1]
        assert clear.tolist() == [5, 7]
        assert keys.tolist() == [12 + link[(0, 1)], 12 + link[(0, 3)]]


class TestFlatScheduleReadOnly:
    def test_probabilities_view_rejects_writes(self):
        sizes = np.full(4, 2, dtype=np.int64)
        schedule = FlatSchedule(sizes, delta_est=4)
        p = schedule.probabilities(np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            p[0] = 0.5
