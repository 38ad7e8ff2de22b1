"""Unit tests for the asynchronous engine (frames, drift, reception)."""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from repro.core.base import AsynchronousProtocol, FrameDecision, Mode
from repro.core.registry import make_async_factory
from repro.exceptions import ConfigurationError, SimulationError
from repro.faults import ClockGlitch, FaultPlan, NodeChurn
from repro.faults.activity import RenewalActivity
from repro.net import M2HeWNetwork, NodeSpec
from repro.sim.async_engine import AsyncSimulator
from repro.sim.clock import Clock, ConstantDriftClock, PerfectClock
from repro.sim.rng import RngFactory
from repro.sim.runner import make_clocks, run_asynchronous
from repro.sim.stopping import StoppingCondition
from repro.sim.trace import ExecutionTrace
from repro.workloads import scenario


class ScriptedAsyncProtocol(AsynchronousProtocol):
    """Plays back fixed frame decisions, then listens on channel 0."""

    scripts: Dict[int, List[FrameDecision]] = {}

    def __init__(self, node_id, channels, rng):
        super().__init__(node_id, channels, rng)
        self._script = list(self.scripts.get(node_id, []))

    def decide_frame(self, local_frame):
        if local_frame < len(self._script):
            return self._script[local_frame]
        return FrameDecision(Mode.LISTEN, min(self.channels))


def pair_network():
    return M2HeWNetwork(
        [NodeSpec(0, frozenset({0})), NodeSpec(1, frozenset({0}))],
        adjacency=[(0, 1)],
    )


def triple_network():
    return M2HeWNetwork(
        [
            NodeSpec(0, frozenset({0})),
            NodeSpec(1, frozenset({0})),
            NodeSpec(2, frozenset({0})),
        ],
        adjacency=[(0, 1), (0, 2)],
    )


def run_scripted(
    network,
    scripts,
    frames=4,
    clocks=None,
    starts=None,
    erasure=0.0,
    trace=None,
    stop_on_cov=False,
):
    ScriptedAsyncProtocol.scripts = scripts
    sim = AsyncSimulator(
        network,
        lambda nid, chs, rng: ScriptedAsyncProtocol(nid, chs, rng),
        RngFactory(0),
        frame_length=3.0,
        clocks=clocks,
        start_times=starts,
        erasure_prob=erasure,
        trace=trace,
    )
    return sim.run(
        StoppingCondition(
            max_frames_per_node=frames, stop_on_full_coverage=stop_on_cov
        )
    )


class SteppingClock(Clock):
    """Identity clock whose inverse jumps back by ``step`` from local
    time ``at`` on: a broken clock, to probe the engine's checks."""

    def __init__(self, at, step):
        super().__init__(0.0)
        self._at = at
        self._step = step

    def local_from_real(self, real):
        return real

    def real_from_local(self, local):
        return local - self._step if local >= self._at else local


T = FrameDecision(Mode.TRANSMIT, 0)
L = FrameDecision(Mode.LISTEN, 0)
Q = FrameDecision(Mode.QUIET, None)


class TestAlignedReception:
    def test_aligned_frames_deliver(self):
        result = run_scripted(pair_network(), {0: [L], 1: [T]})
        # Perfect clocks, same start: frames perfectly aligned.
        assert result.coverage[(1, 0)] is not None
        assert result.coverage[(0, 1)] is None

    def test_misaligned_but_contained_slot_delivers(self):
        # Node 1 starts 1.0s late: its slots [1,2), [2,3), [3,4) —
        # the first two fall inside node 0's listening frame [0, 3), and
        # coverage is stamped at the end of the first clear slot.
        result = run_scripted(
            pair_network(),
            {0: [L, L], 1: [T]},
            starts={0: 0.0, 1: 1.0},
        )
        assert result.coverage[(1, 0)] == pytest.approx(2.0)

    def test_slot_spanning_listen_boundary_lost(self):
        # Node 1 starts at 2.5: slots [2.5, 3.5), [3.5, 4.5), [4.5, 5.5).
        # Node 0 listens [0, 3) then transmits [3, 6): no slot of node 1
        # fits inside a listening frame of node 0.
        result = run_scripted(
            pair_network(),
            {0: [L, T, Q], 1: [T, Q, Q]},
            starts={0: 0.0, 1: 2.5},
        )
        assert result.coverage[(1, 0)] is None

    def test_collision_at_receiver(self):
        result = run_scripted(triple_network(), {0: [L], 1: [T], 2: [T]})
        assert result.coverage[(1, 0)] is None
        assert result.coverage[(2, 0)] is None

    def test_interferer_out_of_range_harmless(self):
        net = M2HeWNetwork(
            [
                NodeSpec(0, frozenset({0})),
                NodeSpec(1, frozenset({0})),
                NodeSpec(2, frozenset({0})),
            ],
            adjacency=[(0, 1)],  # node 2 out of range of 0
        )
        result = run_scripted(net, {0: [L], 1: [T], 2: [T]})
        assert result.coverage[(1, 0)] is not None

    def test_partial_overlap_interference_kills_slot(self):
        # Node 2 starts 0.5 late so its transmission slots straddle node
        # 1's slots — every slot of node 1 overlaps a slot of node 2, so
        # node 0 never hears a clean copy.
        result = run_scripted(
            triple_network(),
            {0: [L, L], 1: [T], 2: [T]},
            starts={0: 0.0, 1: 0.0, 2: 0.5},
        )
        assert result.coverage[(1, 0)] is None

    def test_slots_touching_at_a_boundary_do_not_collide(self):
        # Node 0 listens [2, 5). Node 1's last slot [2, 3) ends exactly
        # when node 2's first slot [3, 4) starts; both are clear, so
        # each link is stamped at its touching slot's end.
        result = run_scripted(
            triple_network(),
            {0: [L], 1: [T], 2: [T]},
            starts={0: 2.0, 1: 0.0, 2: 3.0},
        )
        assert result.coverage[(1, 0)] == 3.0
        assert result.coverage[(2, 0)] == 4.0

    def test_other_channel_harmless(self):
        net = M2HeWNetwork(
            [
                NodeSpec(0, frozenset({0, 1})),
                NodeSpec(1, frozenset({0})),
                NodeSpec(2, frozenset({0, 1})),
            ],
            adjacency=[(0, 1), (0, 2)],
        )
        result = run_scripted(
            net, {0: [L], 1: [T], 2: [FrameDecision(Mode.TRANSMIT, 1)]}
        )
        assert result.coverage[(1, 0)] == 1.0
        assert result.coverage[(2, 0)] is None

    def test_transmitting_listener_misses(self):
        result = run_scripted(pair_network(), {0: [T], 1: [T]})
        assert result.coverage[(1, 0)] is None
        assert result.coverage[(0, 1)] is None

    def test_erasure_blocks(self):
        result = run_scripted(
            pair_network(), {0: [L, L], 1: [T, T]}, erasure=0.999999
        )
        assert result.coverage[(1, 0)] is None


class TestDriftingClocks:
    def test_fast_clock_shrinks_real_frames(self):
        trace = ExecutionTrace()
        clocks = {0: ConstantDriftClock(1 / 7, drift_bound=1 / 7), 1: PerfectClock()}
        run_scripted(pair_network(), {}, clocks=clocks, trace=trace, frames=3)
        fast_frames = trace.frames_of(0)
        slow_frames = trace.frames_of(1)
        assert fast_frames[0].duration == pytest.approx(3.0 / (1 + 1 / 7))
        assert slow_frames[0].duration == pytest.approx(3.0)

    def test_slow_clock_stretches_real_frames(self):
        trace = ExecutionTrace()
        clocks = {0: ConstantDriftClock(-1 / 7, drift_bound=1 / 7)}
        run_scripted(pair_network(), {}, clocks=clocks, trace=trace, frames=3)
        assert trace.frames_of(0)[0].duration == pytest.approx(3.0 / (1 - 1 / 7))

    def test_discovery_still_works_with_drift(self):
        clocks = {
            0: ConstantDriftClock(0.1, drift_bound=1 / 7),
            1: ConstantDriftClock(-0.1, drift_bound=1 / 7),
        }
        result = run_scripted(
            pair_network(),
            {0: [L] * 8 + [T] * 8, 1: [T] * 8 + [L] * 8},
            clocks=clocks,
            frames=16,
            stop_on_cov=True,
        )
        assert result.completed


class TestRunControl:
    def test_frame_budget_counts_full_frames_after_ts(self):
        result = run_scripted(
            pair_network(), {}, frames=5, starts={0: 0.0, 1: 7.0}
        )
        counts = result.metadata["full_frames_since_ts"]
        assert min(counts.values()) == 5

    def test_stop_on_full_coverage(self):
        result = run_scripted(
            pair_network(),
            {0: [L, T], 1: [T, L]},
            frames=50,
            stop_on_cov=True,
        )
        assert result.completed
        assert result.horizon < 10.0

    def test_max_real_time(self):
        ScriptedAsyncProtocol.scripts = {}
        sim = AsyncSimulator(
            pair_network(),
            lambda nid, chs, rng: ScriptedAsyncProtocol(nid, chs, rng),
            RngFactory(0),
            frame_length=3.0,
        )
        result = sim.run(
            StoppingCondition(max_real_time=10.0, stop_on_full_coverage=False)
        )
        assert result.horizon <= 10.0

    def test_run_ends_when_no_event_remains(self):
        # Both nodes crash-stop at their frame starting at 6.0; nothing
        # is left to run, so the horizon is that last event's time.
        ScriptedAsyncProtocol.scripts = {}
        sim = AsyncSimulator(
            pair_network(),
            lambda nid, chs, rng: ScriptedAsyncProtocol(nid, chs, rng),
            RngFactory(0),
            frame_length=3.0,
            faults=FaultPlan(models=(NodeChurn(crashes=((0, 4.0), (1, 4.0))),)),
        )
        result = sim.run(
            StoppingCondition(max_real_time=100.0, stop_on_full_coverage=False)
        )
        assert result.horizon == 6.0

    def test_needs_async_budget(self):
        sim = AsyncSimulator(
            pair_network(),
            lambda nid, chs, rng: ScriptedAsyncProtocol(nid, chs, rng),
            RngFactory(0),
        )
        with pytest.raises(ConfigurationError, match="asynchronous"):
            sim.run(StoppingCondition(max_slots=5))

    def test_t_s_is_last_start(self):
        ScriptedAsyncProtocol.scripts = {}
        sim = AsyncSimulator(
            pair_network(),
            lambda nid, chs, rng: ScriptedAsyncProtocol(nid, chs, rng),
            RngFactory(0),
            start_times={0: 1.0, 1: 4.0},
        )
        assert sim.all_started_time == 4.0

    def test_invalid_params(self):
        factory = lambda nid, chs, rng: ScriptedAsyncProtocol(nid, chs, rng)
        with pytest.raises(ConfigurationError, match="frame_length"):
            AsyncSimulator(pair_network(), factory, RngFactory(0), frame_length=0.0)
        with pytest.raises(ConfigurationError, match="start time"):
            AsyncSimulator(
                pair_network(), factory, RngFactory(0), start_times={0: -1.0}
            )


class TestTraceRecording:
    def test_frames_recorded_with_slots(self):
        trace = ExecutionTrace()
        run_scripted(pair_network(), {0: [T]}, trace=trace, frames=2)
        frames = trace.frames_of(0)
        assert frames[0].mode is Mode.TRANSMIT
        assert frames[0].num_slots == 3
        assert frames[0].slot_bounds == (0.0, 1.0, 2.0, 3.0)


class TestBrokenClocks:
    def test_inverse_stepping_into_the_past_raises(self):
        # Frame 1 of node 0 would end at real time 2, before its start 3.
        with pytest.raises(SimulationError, match="before now"):
            run_scripted(pair_network(), {}, clocks={0: SteppingClock(5.5, 4.0)})

    def test_tiny_step_into_the_past_is_clamped(self):
        # Frame 1 ends 5e-13 before it starts: within the 1e-12
        # tolerance, the end is clamped to now and the run goes on.
        result = run_scripted(
            pair_network(), {}, clocks={0: SteppingClock(5.5, 3.0 + 5e-13)}
        )
        assert min(result.metadata["full_frames_since_ts"].values()) == 4
        assert result.horizon == 12.0

    def test_zero_length_slot_raises(self):
        # Frame 1's slot boundaries 4 and 5 both map to real time 4.
        with pytest.raises(SimulationError, match="non-positive duration"):
            run_scripted(
                pair_network(), {0: [L, T]}, clocks={0: SteppingClock(4.5, 1.0)}
            )


class TestFirstFrameStartsAtNodeStart:
    """A node's first frame begins at its start time, not at the clock's
    inverse of its local start: bisected inverses stop at a relative
    tolerance (~1e-9 s at offsets near 1,000) and exact ones can lose an
    ulp, so the inverse could land before the start and the run died
    scheduling into the past."""

    @pytest.mark.parametrize(
        "name, clock_model, spread, faults",
        [
            ("campus_cr", "sinusoidal", 3.0, None),
            ("rural_sparse", "constant", 5.0, "glitch"),
            ("rural_sparse", "perfect", 5.0, "glitch"),
        ],
    )
    def test_seed_sweep_runs(self, name, clock_model, spread, faults):
        s = scenario(name)
        net = s.build(0)
        plan = None
        if faults == "glitch":
            plan = FaultPlan(
                models=(ClockGlitch(spike=0.05, activity=RenewalActivity(5.0, 15.0)),)
            )
        for seed in range(10):
            result = run_asynchronous(
                net,
                seed=seed,
                delta_est=s.delta_est,
                max_frames_per_node=5,
                drift_bound=0.12 if clock_model == "sinusoidal" else 0.1,
                clock_model=clock_model,
                start_spread=spread,
                stop_on_full_coverage=False,
                faults=plan,
            )
            assert min(result.metadata["full_frames_since_ts"].values()) == 5

    def test_late_start_whose_round_trip_undershoots(self):
        s = scenario("rural_sparse")
        net = s.build(0)
        start = 50_000.0
        clocks = make_clocks(net, "constant", 0.1, np.random.default_rng(1))
        assert any(
            c.real_from_local(c.local_from_real(start)) < start - 1e-12
            for c in clocks.values()
        )
        trace = ExecutionTrace()
        AsyncSimulator(
            net,
            make_async_factory("algorithm4", delta_est=s.delta_est),
            RngFactory(1),
            clocks=clocks,
            start_times={nid: start for nid in net.node_ids},
            trace=trace,
        ).run(StoppingCondition(max_frames_per_node=5, stop_on_full_coverage=False))
        for nid in net.node_ids:
            first = trace.frames_of(nid)[0]
            assert first.start == first.slot_bounds[0] == start
