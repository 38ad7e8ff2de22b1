"""Tests for the ASCII timeline renderer."""

from __future__ import annotations

import pytest

from repro.analysis.alignment import synthesize_frames
from repro.analysis.timeline import render_timeline, render_trace
from repro.exceptions import ConfigurationError
from repro.sim.clock import ConstantDriftClock


def frames(node_id=0, drift=0.0, count=5, L=3.0):
    clock = ConstantDriftClock(drift, drift_bound=max(abs(drift), 1e-9))
    return synthesize_frames(clock, L, 0.0, count, node_id=node_id)


class TestRenderTimeline:
    def test_one_line_per_node_plus_axis(self):
        out = render_timeline(
            {0: frames(0), 1: frames(1)}, start=0.0, end=10.0, width=60
        )
        lines = out.splitlines()
        assert len(lines) == 4  # two nodes + axis + labels
        assert lines[0].startswith("node   0")
        assert lines[1].startswith("node   1")

    def test_boundaries_marked(self):
        out = render_timeline({0: frames(0)}, start=0.0, end=6.0, width=60)
        row = out.splitlines()[0]
        assert "|" in row
        assert "." in row  # slot boundaries

    def test_quiet_fill(self):
        out = render_timeline({0: frames(0)}, start=0.0, end=6.0, width=60)
        assert "q" in out  # synthesized frames are QUIET

    def test_window_clips_frames(self):
        out = render_timeline({0: frames(0, count=10)}, 0.0, 3.0, width=40)
        row = out.splitlines()[0]
        assert len(row) == len("node   0 ") + 40

    def test_drifted_frames_shorter(self):
        fast = render_timeline({0: frames(0, drift=1 / 7)}, 0.0, 12.0, width=84)
        slow = render_timeline({0: frames(0, drift=-1 / 7)}, 0.0, 12.0, width=84)
        # The fast clock packs more frame boundaries into the window.
        assert fast.splitlines()[0].count("|") >= slow.splitlines()[0].count("|")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            render_timeline({0: frames()}, 5.0, 5.0)
        with pytest.raises(ConfigurationError):
            render_timeline({0: frames()}, 0.0, 5.0, width=3)
        with pytest.raises(ConfigurationError):
            render_timeline({}, 0.0, 5.0)


class TestRenderTrace:
    def test_from_engine_trace(self):
        from repro.net import build_network, channels, topology
        from repro.sim.runner import run_asynchronous
        from repro.sim.trace import ExecutionTrace

        net = build_network(topology.clique(3), channels.homogeneous(3, 2))
        trace = ExecutionTrace()
        run_asynchronous(
            net,
            seed=1,
            delta_est=4,
            max_frames_per_node=20,
            drift_bound=0.1,
            stop_on_full_coverage=False,
            trace=trace,
        )
        out = render_trace(trace, 0.0, 10.0, width=80)
        lines = out.splitlines()
        assert len(lines) == 3 + 2
        assert any("T" in line or "L" in line for line in lines[:3])

    def test_node_selection(self):
        out = render_timeline({0: frames(0), 5: frames(5)}, 0.0, 6.0)
        assert "node   5" in out
