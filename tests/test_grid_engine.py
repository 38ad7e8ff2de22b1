"""Tests for the parameter-grid batched engine and its dispatch layers.

The grid generalizes the (B, N) trial batch to (G, B, N): one kernel
pass advances many spec points — different schedules, erasure rates,
offsets and fault plans — each spec point owning a contiguous row
slice. The load-bearing guarantee is unchanged from trial batching:
every (spec, trial) result is byte-identical to the same trial on the
serial fast engine, for any grid composition G and any batch size B,
so grid fusion is purely a dispatch optimization.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.faults.presets import fault_preset
from repro.net import build_network, channels, topology
from repro.sim.batch import ExperimentSpec, _grid_groups, run_batch
from repro.sim.batched import GridBatchedSimulator, GridCell
from repro.sim.fast_slotted import FastSlottedSimulator
from repro.sim.parallel import run_grid_spec_trials, run_spec_trials
from repro.sim.rng import RngFactory, derive_trial_seed
from repro.sim.runner import (
    _resolve_faults,
    _vector_schedule,
    grid_batchable,
    run_experiment_grid_batched,
    run_experiment_trial,
)
from repro.sim.stopping import StoppingCondition
from repro.workloads.generator import WorkloadConfig

BASE_SEED = 1717


def homogeneous_net(n: int = 10):
    rng = np.random.default_rng(7)
    topo = topology.random_geometric(n, 0.6, rng)
    return build_network(topo, channels.uniform_random_subsets(n, 5, 3, rng))


def heterogeneous_net(n: int = 10):
    rng = np.random.default_rng(11)
    topo = topology.random_geometric(n, 0.6, rng)
    assignment = channels.uniform_random_subsets(n, 6, 2, rng, set_size_max=5)
    assignment = channels.repair_pair_overlap(topo, assignment, rng)
    return build_network(topo, assignment)


def cell(net, protocol, batch, *, delta_est=10, seed_base=0, **kwargs):
    return GridCell(
        schedule=_vector_schedule(protocol, net, delta_est),
        rng_factories=[
            RngFactory(derive_trial_seed(BASE_SEED, seed_base + i))
            for i in range(batch)
        ],
        **kwargs,
    )


def serial_reference(net, grid_cell, stopping, *, seed_base=0):
    """Run each of a cell's rows on the serial fast engine.

    ``seed_base`` must match the one the cell was built with: the grid
    engine consumes the caller's factories, so the reference re-derives
    the same per-row seeds.
    """
    out = []
    for i in range(len(grid_cell.rng_factories)):
        sim = FastSlottedSimulator(
            net,
            grid_cell.schedule,
            RngFactory(derive_trial_seed(BASE_SEED, seed_base + i)),
            start_offsets=grid_cell.start_offsets,
            erasure_prob=grid_cell.erasure_prob,
            faults=grid_cell.faults,
        )
        out.append(sim.run(stopping))
    return out


class TestGridMatchesSerial:
    """Bit-for-bit agreement for every (G, B) composition."""

    @pytest.mark.parametrize("batch", [1, 4, 32])
    def test_single_cell_grid(self, batch):
        net = homogeneous_net()
        c = cell(net, "algorithm2", batch, delta_est=None)
        stopping = StoppingCondition(max_slots=300, stop_on_full_coverage=True)
        expected = serial_reference(net, c, stopping)
        sim = GridBatchedSimulator(net, [c])
        flat = sim.run(stopping)
        assert sim.cell_slices == [slice(0, batch)]
        assert flat == expected

    @pytest.mark.parametrize("batch", [1, 4, 32])
    def test_three_cell_grid_mixed_knobs(self, batch):
        net = heterogeneous_net()
        cells = [
            cell(net, "algorithm3", batch, delta_est=10),
            cell(net, "algorithm3", batch, delta_est=25, erasure_prob=0.2),
            cell(
                net,
                "algorithm1",
                batch,
                delta_est=10,
                start_offsets={0: 3, 4: 1},
            ),
        ]
        stopping = StoppingCondition(max_slots=400, stop_on_full_coverage=True)
        expected = [serial_reference(net, c, stopping) for c in cells]
        sim = GridBatchedSimulator(net, cells)
        flat = sim.run(stopping)
        for g, sl in enumerate(sim.cell_slices):
            assert flat[sl.start : sl.stop] == expected[g], f"cell {g}"

    def test_mixed_fault_plans_per_cell(self):
        net = homogeneous_net()
        cells = [
            cell(net, "algorithm2", 3, delta_est=None),
            cell(
                net,
                "algorithm2",
                3,
                delta_est=None,
                seed_base=3,
                faults=_resolve_faults(fault_preset("jamming_light")),
            ),
            cell(
                net,
                "algorithm2",
                2,
                delta_est=None,
                seed_base=6,
                erasure_prob=0.1,
                faults=_resolve_faults(fault_preset("crash_node0")),
            ),
        ]
        stopping = StoppingCondition(max_slots=300, stop_on_full_coverage=True)
        expected = [
            serial_reference(net, c, stopping, seed_base=base)
            for c, base in zip(cells, (0, 3, 6))
        ]
        sim = GridBatchedSimulator(net, cells)
        flat = sim.run(stopping)
        for g, sl in enumerate(sim.cell_slices):
            assert flat[sl.start : sl.stop] == expected[g], f"cell {g}"

    def test_ragged_batch_sizes(self):
        net = homogeneous_net(8)
        cells = [
            cell(net, "algorithm2", 1, delta_est=None),
            cell(net, "algorithm2", 5, delta_est=None, seed_base=1),
        ]
        stopping = StoppingCondition(max_slots=300, stop_on_full_coverage=True)
        expected = [
            serial_reference(net, c, stopping, seed_base=base)
            for c, base in zip(cells, (0, 1))
        ]
        sim = GridBatchedSimulator(net, cells)
        assert sim.batch_size == 6
        flat = sim.run(stopping)
        for g, sl in enumerate(sim.cell_slices):
            assert flat[sl.start : sl.stop] == expected[g], f"cell {g}"


class TestBudgetEdges:
    """Zero- and one-slot executions must agree with the serial engine."""

    def test_one_slot_budget(self):
        net = homogeneous_net(6)
        c = cell(net, "algorithm2", 3, delta_est=None)
        stopping = StoppingCondition(max_slots=1, stop_on_full_coverage=False)
        expected = serial_reference(net, c, stopping)
        assert GridBatchedSimulator(net, [c]).run(stopping) == expected
        assert all(r.horizon == 1.0 for r in expected)

    def test_zero_links_stop_before_first_slot(self):
        # A single node has no links: coverage is complete at slot 0, so
        # both engines must stop without executing anything.
        rng = np.random.default_rng(3)
        net = build_network(
            topology.clique(1), channels.uniform_random_subsets(1, 3, 2, rng)
        )
        c = cell(net, "algorithm2", 2, delta_est=None)
        stopping = StoppingCondition(max_slots=50, stop_on_full_coverage=True)
        expected = serial_reference(net, c, stopping)
        results = GridBatchedSimulator(net, [c]).run(stopping)
        assert results == expected
        assert all(r.completed for r in results)


class TestInternalBranches:
    """The specialized fast paths and their general fallbacks agree."""

    def test_scalar_size_fast_path_taken_and_equal(self):
        # Homogeneous |A(u)|: the scalar-bound channel draw is used.
        net = homogeneous_net()
        c = cell(net, "algorithm2", 4, delta_est=None)
        sim = GridBatchedSimulator(net, [c])
        assert sim._scalar_size is not None

    def test_scalar_size_none_branch(self):
        # Heterogeneous |A(u)| forces the array-bound draw.
        net = heterogeneous_net()
        c = cell(net, "algorithm2", 4, delta_est=None)
        stopping = StoppingCondition(max_slots=300, stop_on_full_coverage=True)
        sim = GridBatchedSimulator(net, [c])
        assert sim._scalar_size is None
        assert sim.run(stopping) == serial_reference(net, c, stopping)

    def test_shared_offsets_none_branch(self):
        # Different per-cell offsets: each cell evaluates its schedule
        # once, on its own shared offset row.
        net = homogeneous_net(8)
        cells = [
            cell(net, "algorithm2", 2, delta_est=None),
            cell(
                net,
                "algorithm2",
                2,
                delta_est=None,
                seed_base=2,
                start_offsets={1: 2},
            ),
        ]
        stopping = StoppingCondition(max_slots=300, stop_on_full_coverage=True)
        sim = GridBatchedSimulator(net, cells)
        first, second = sim._cell_shared
        assert first is not None and second is not None
        assert first.tolist() != second.tolist()
        expected = [
            serial_reference(net, c, stopping, seed_base=base)
            for c, base in zip(cells, (0, 2))
        ]
        flat = sim.run(stopping)
        for g, sl in enumerate(sim.cell_slices):
            assert flat[sl.start : sl.stop] == expected[g]

    def test_shared_offsets_present_when_uniform(self):
        net = homogeneous_net(8)
        cells = [
            cell(net, "algorithm2", 2, delta_est=None),
            cell(net, "algorithm2", 2, delta_est=None, seed_base=2),
        ]
        first, second = GridBatchedSimulator(net, cells)._cell_shared
        assert first is not None and second is not None
        assert first.tolist() == second.tolist()


def pow2_net(n: int = 12):
    """Even node count, |A(u)| = 4 everywhere: raw-pick eligible."""
    rng = np.random.default_rng(21)
    topo = topology.random_geometric(n, 0.6, rng)
    return build_network(topo, channels.uniform_random_subsets(n, 6, 4, rng))


class TestRawPickFastPath:
    """The raw-word channel draw: engaged only when provably identical."""

    def test_engaged_and_byte_identical(self):
        net = pow2_net()
        c = cell(net, "algorithm1", 4)
        stopping = StoppingCondition(max_slots=400, stop_on_full_coverage=True)
        sim = GridBatchedSimulator(net, [c])
        assert sim._raw_shift is not None
        assert sim.run(stopping) == serial_reference(net, c, stopping)

    def test_non_pow2_size_falls_back(self):
        net = homogeneous_net()  # |A(u)| = 3: masked draw has rejection
        sim = GridBatchedSimulator(
            net, [cell(net, "algorithm2", 2, delta_est=None)]
        )
        assert sim._scalar_size == 3
        assert sim._raw_shift is None

    def test_odd_node_count_falls_back(self):
        # An odd draw count leaves a buffered 32-bit half inside the
        # bit generator that raw words cannot replicate.
        rng = np.random.default_rng(23)
        topo = topology.random_geometric(11, 0.6, rng)
        net = build_network(
            topo, channels.uniform_random_subsets(11, 6, 4, rng)
        )
        sim = GridBatchedSimulator(
            net, [cell(net, "algorithm2", 2, delta_est=None)]
        )
        assert sim._scalar_size == 4
        assert sim._raw_shift is None

    def test_verifier_leaves_live_stream_untouched(self):
        from repro.sim.batched import _raw_pick_verified

        g = RngFactory(derive_trial_seed(BASE_SEED, 0)).stream("pick")
        before = g.bit_generator.state
        assert _raw_pick_verified(g, 4, 12)
        assert g.bit_generator.state == before


class TestProfiler:
    """Opt-in profiling: observational, never affects results."""

    def test_disabled_by_default(self):
        net = homogeneous_net(6)
        sim = GridBatchedSimulator(net, [cell(net, "algorithm2", 2, delta_est=None)])
        assert sim.profile() is None

    def test_profile_phases_and_byte_identity(self):
        net = homogeneous_net(6)
        stopping = StoppingCondition(max_slots=200, stop_on_full_coverage=True)
        plain = GridBatchedSimulator(
            net, [cell(net, "algorithm2", 3, delta_est=None)]
        ).run(stopping)
        profiled_sim = GridBatchedSimulator(
            net, [cell(net, "algorithm2", 3, delta_est=None)], profile=True
        )
        assert profiled_sim.run(stopping) == plain
        snap = profiled_sim.profile()
        assert snap is not None
        for phase in ("schedule", "rng", "channel", "reception", "delivery",
                      "result"):
            assert snap[phase]["laps"] >= 1
            assert snap[phase]["seconds"] >= 0.0
        assert abs(sum(p["share"] for p in snap.values()) - 1.0) < 1e-9

    @pytest.mark.parametrize("batch", [1, 3])
    def test_every_slot_laps_its_draws(self, batch):
        # A slot with no transmitter or no listener ends right after its
        # decision draws; it must still lap them. Without joins or churn
        # every slot evaluates the schedule, so the two lap counts match.
        net = homogeneous_net(6)
        stopping = StoppingCondition(max_slots=200, stop_on_full_coverage=True)
        if batch == 1:
            schedule = _vector_schedule("algorithm2", net, None)
            sim = FastSlottedSimulator(net, schedule, RngFactory(3), profile=True)
        else:
            c = cell(net, "algorithm2", batch, delta_est=None)
            sim = GridBatchedSimulator(net, [c], profile=True)
        sim.run(stopping)
        snap = sim.profile()
        assert snap["schedule"]["laps"] > snap["channel"]["laps"]
        assert snap["rng"]["laps"] == snap["schedule"]["laps"]

    def test_serial_engine_profiler(self):
        net = homogeneous_net(6)
        schedule = _vector_schedule("algorithm2", net, None)
        stopping = StoppingCondition(max_slots=200, stop_on_full_coverage=True)
        plain = FastSlottedSimulator(net, schedule, RngFactory(3)).run(stopping)
        sim = FastSlottedSimulator(net, schedule, RngFactory(3), profile=True)
        assert sim.run(stopping) == plain
        snap = sim.profile()
        assert snap is not None and snap["reception"]["laps"] >= 1


class TestRunnerGridDispatch:
    """run_experiment_grid_batched groups, falls back and stamps."""

    def test_mixed_eligible_and_fallback_entries(self):
        net = homogeneous_net(6)
        seeds = [derive_trial_seed(5, i) for i in range(3)]
        entries = [
            ("algorithm2", seeds, {"max_slots": 2_000}),
            ("algorithm1", seeds, {"max_slots": 2_000, "delta_est": 8}),
            # engine=reference is not grid-eligible: per-trial fallback.
            ("algorithm1", seeds, {"engine": "reference", "delta_est": 8,
                                   "max_slots": 2_000}),
        ]
        per_entry = run_experiment_grid_batched(net, entries)
        for (protocol, entry_seeds, params), results in zip(entries, per_entry):
            expected = [
                run_experiment_trial(
                    net, protocol, seed=s, runner_params=params
                )
                for s in entry_seeds
            ]
            assert results == expected

    def test_stopping_condition_groups_stay_correct(self):
        net = homogeneous_net(6)
        seeds = [derive_trial_seed(5, i) for i in range(2)]
        entries = [
            ("algorithm2", seeds, {"max_slots": 1_000}),
            ("algorithm2", seeds, {"max_slots": 50,
                                   "stop_on_full_coverage": False}),
        ]
        per_entry = run_experiment_grid_batched(net, entries)
        for (protocol, entry_seeds, params), results in zip(entries, per_entry):
            expected = [
                run_experiment_trial(
                    net, protocol, seed=s, runner_params=params
                )
                for s in entry_seeds
            ]
            assert results == expected

    def test_empty_entry_returns_empty(self):
        net = homogeneous_net(5)
        per_entry = run_experiment_grid_batched(
            net, [("algorithm2", [], {"max_slots": 100})]
        )
        assert per_entry == [[]]

    def test_grid_batchable_predicate(self):
        assert grid_batchable("algorithm2", {"max_slots": 10})
        assert grid_batchable("algorithm3", {"delta_est": 9})
        assert not grid_batchable("algorithm4", {})
        assert not grid_batchable("algorithm2", {"engine": "reference"})
        assert not grid_batchable("algorithm2", {"universal_channels": None})


class TestParallelGridDispatch:
    """run_grid_spec_trials: chunked, pooled, byte-identical."""

    PARAMS = {"max_slots": 3_000, "delta_est": None}

    def _network(self):
        return homogeneous_net(6)

    def _serial(self, net, trials):
        return run_spec_trials(
            net,
            "algorithm2",
            trials=trials,
            base_seed=21,
            runner_params=self.PARAMS,
            backend="serial",
        )

    @pytest.mark.parametrize("batch_size", [1, 4, 32])
    def test_matches_per_spec_serial(self, batch_size):
        net = self._network()
        entries = [
            ("algorithm2", 7, self.PARAMS),
            ("algorithm2", 3, {**self.PARAMS, "erasure_prob": 0.15}),
        ]
        per_entry = run_grid_spec_trials(
            net, entries, base_seed=21, batch_size=batch_size
        )
        assert per_entry[0] == self._serial(net, 7)
        expected_b = run_spec_trials(
            net,
            "algorithm2",
            trials=3,
            base_seed=21,
            runner_params={**self.PARAMS, "erasure_prob": 0.15},
            backend="serial",
        )
        assert per_entry[1] == expected_b

    def test_pooled_matches_serial_dispatch(self):
        net = self._network()
        entries = [("algorithm2", 6, self.PARAMS)]
        serial_dispatch = run_grid_spec_trials(net, entries, base_seed=21)
        pooled = run_grid_spec_trials(
            net, entries, base_seed=21, max_workers=2, chunk_size=2
        )
        assert pooled == serial_dispatch

    def test_progress_callback_fires_per_entry(self):
        net = self._network()
        seen = []
        run_grid_spec_trials(
            net,
            [("algorithm2", 5, self.PARAMS), ("algorithm2", 2, self.PARAMS)],
            base_seed=21,
            batch_size=2,
            on_progress=lambda j, done, total: seen.append((j, done, total)),
        )
        assert (0, 5, 5) in seen and (1, 2, 2) in seen
        firsts = [e for e in seen if e[0] == 0]
        assert firsts == sorted(firsts, key=lambda e: e[1])

    def test_rejects_empty_grid_and_bad_trials(self):
        net = self._network()
        with pytest.raises(ConfigurationError, match="at least one"):
            run_grid_spec_trials(net, [])
        with pytest.raises(ConfigurationError, match="trials"):
            run_grid_spec_trials(net, [("algorithm2", 0, self.PARAMS)])


class TestBatchGridFusion:
    """run_batch fuses same-network vectorized specs; archives agree."""

    WORKLOAD = WorkloadConfig(
        topology="clique",
        topology_params={"num_nodes": 6},
        channel_model="homogeneous",
        channel_params={"num_channels": 2},
    )

    def _specs(self):
        return [
            ExperimentSpec(
                name="base",
                workload=self.WORKLOAD,
                protocol="algorithm2",
                trials=5,
                runner_params={"max_slots": 5_000, "delta_est": None},
            ),
            ExperimentSpec(
                name="erased",
                workload=self.WORKLOAD,
                protocol="algorithm2",
                trials=5,
                runner_params={
                    "max_slots": 5_000,
                    "delta_est": None,
                    "erasure_prob": 0.2,
                },
            ),
            ExperimentSpec(
                name="alg3",
                workload=self.WORKLOAD,
                protocol="algorithm3",
                trials=3,
                runner_params={"max_slots": 5_000, "delta_est": 12},
            ),
        ]

    def test_specs_group_for_vectorized_backend_only(self):
        specs = self._specs()
        assert _grid_groups(specs, "vectorized") == [[0, 1, 2]]
        assert _grid_groups(specs, "serial") == []
        assert _grid_groups(specs, "process") == []

    def test_network_seed_splits_groups(self):
        specs = self._specs()
        moved = ExperimentSpec(
            name="other_net",
            workload=self.WORKLOAD,
            protocol="algorithm2",
            trials=2,
            network_seed=9,
            runner_params={"max_slots": 5_000, "delta_est": None},
        )
        assert _grid_groups([*specs, moved], "vectorized") == [[0, 1, 2]]

    @pytest.mark.parametrize("batch_size", [1, 4, 32])
    def test_archives_byte_identical_to_serial(self, tmp_path, batch_size):
        specs = self._specs()
        run_batch(specs, base_seed=77, output_dir=tmp_path / "serial",
                  backend="serial")
        run_batch(specs, base_seed=77, output_dir=tmp_path / "grid",
                  backend="vectorized", batch_size=batch_size)
        for name in ("base", "erased", "alg3", "manifest"):
            serial = (tmp_path / "serial" / f"{name}.json").read_bytes()
            grid = (tmp_path / "grid" / f"{name}.json").read_bytes()
            assert grid == serial, name

    def test_progress_reports_per_experiment(self):
        seen = []
        run_batch(
            self._specs(),
            base_seed=77,
            backend="vectorized",
            on_progress=lambda name, done, total: seen.append(
                (name, done, total)
            ),
        )
        names = {name for name, _, _ in seen}
        assert names == {"base", "erased", "alg3"}
        assert ("alg3", 3, 3) in seen


class TestGridValidation:
    def test_needs_at_least_one_cell(self):
        net = homogeneous_net(5)
        with pytest.raises(ConfigurationError, match="at least one cell"):
            GridBatchedSimulator(net, [])

    def test_cell_needs_factories(self):
        net = homogeneous_net(5)
        bad = GridCell(
            schedule=_vector_schedule("algorithm2", net, None),
            rng_factories=[],
        )
        with pytest.raises(ConfigurationError, match="RngFactory"):
            GridBatchedSimulator(net, [bad])

    def test_cell_schedule_must_cover_network(self):
        net = homogeneous_net(5)
        other = _vector_schedule("algorithm2", homogeneous_net(6), None)
        bad = GridCell(schedule=other, rng_factories=[RngFactory(0)])
        with pytest.raises(ConfigurationError, match="covers"):
            GridBatchedSimulator(net, [bad])

    def test_cell_erasure_range(self):
        net = homogeneous_net(5)
        bad = cell(net, "algorithm2", 1, delta_est=None, erasure_prob=1.0)
        with pytest.raises(ConfigurationError, match="erasure_prob"):
            GridBatchedSimulator(net, [bad])
