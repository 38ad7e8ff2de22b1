"""Unit tests for repro.analysis.alignment (Lemmas 4, 7, 8)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import alignment
from repro.exceptions import ConfigurationError
from repro.sim.clock import ConstantDriftClock, PerfectClock


def frames(drift=0.0, offset_real=0.0, count=100, L=1.0, node_id=0, bound=None):
    clock = ConstantDriftClock(drift, drift_bound=bound if bound is not None else max(abs(drift), 0.0))
    return alignment.synthesize_frames(clock, L, offset_real, count, node_id=node_id)


class TestSynthesizeFrames:
    def test_contiguous(self):
        fs = frames(count=5)
        for a, b in zip(fs, fs[1:]):
            assert b.start == pytest.approx(a.end)

    def test_perfect_clock_frame_length(self):
        fs = frames(count=3, L=2.0)
        assert all(f.duration == pytest.approx(2.0) for f in fs)

    def test_drifted_real_duration(self):
        fs = frames(drift=1 / 7, count=3, L=1.0)
        assert all(f.duration == pytest.approx(1.0 / (1 + 1 / 7)) for f in fs)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            alignment.synthesize_frames(PerfectClock(), 1.0, 0.0, 0)
        with pytest.raises(ConfigurationError):
            alignment.synthesize_frames(PerfectClock(), 0.0, 0.0, 5)


class TestOverlapAndAligned:
    def test_overlapping_frames_open_interval(self):
        a = frames(count=3, node_id=0)
        b = frames(count=3, node_id=1)
        # Identical geometry: frame i overlaps exactly frame i (boundaries
        # touch neighbors but open-interval semantics exclude them).
        assert alignment.overlapping_frames(a[1], b) == [b[1]]

    def test_is_aligned_identical_frames(self):
        a, b = frames(count=1)[0], frames(count=1, node_id=1)[0]
        assert alignment.is_aligned(a, b)

    def test_is_aligned_detects_contained_slot(self):
        a = frames(count=2, node_id=0)  # frames [0,1), [1,2)
        b = frames(count=2, node_id=1, offset_real=0.9)  # [0.9, 1.9) ...
        # Slot [1.0, 1.333) of a[1]... check slot of b inside a or vice versa:
        # slots of a[1]: [1, 4/3), [4/3, 5/3), [5/3, 2). Frame b[0] = [0.9, 1.9):
        # slot [1, 4/3) of a[1] is inside b[0] -> aligned(a[1], b[0]).
        assert alignment.is_aligned(a[1], b[0])

    def test_not_aligned_when_slots_straddle(self):
        # Frame g shorter than one slot of f cannot contain any slot.
        f = frames(count=1, L=3.0)[0]
        g = frames(count=1, L=0.5, node_id=1, offset_real=1.1)[0]
        assert not alignment.is_aligned(f, g)


class TestLemma4:
    def test_holds_for_small_drift(self):
        by_node = {
            0: frames(drift=0.1, bound=0.1, count=60),
            1: frames(drift=-0.1, bound=0.1, count=60, offset_real=0.37, node_id=1),
        }
        report = alignment.check_lemma4(by_node)
        assert report.holds
        assert report.max_overlap <= 3
        assert report.frames_checked > 0

    def test_violated_beyond_one_third(self):
        # delta = 0.6 means rates 1.6 vs 0.4: a slow frame spans four
        # fast frames -> overlap > 3.
        by_node = {
            0: frames(drift=0.6, bound=0.6, count=200),
            1: frames(drift=-0.6, bound=0.6, count=40, node_id=1),
        }
        report = alignment.check_lemma4(by_node)
        assert not report.holds
        assert report.max_overlap > 3
        assert report.violations

    def test_exactly_three_achievable(self):
        # Even perfect clocks with phase offset give 2; mild drift gives 3.
        by_node = {
            0: frames(drift=1 / 7, bound=1 / 7, count=300),
            1: frames(drift=-1 / 7, bound=1 / 7, count=300, offset_real=0.1, node_id=1),
        }
        report = alignment.check_lemma4(by_node)
        assert report.holds
        assert report.max_overlap == 3


class TestLemma7:
    def test_holds_at_assumption_boundary(self):
        fv = frames(drift=1 / 7, bound=1 / 7, count=400)
        gu = frames(drift=-1 / 7, bound=1 / 7, count=400, offset_real=0.53, node_id=1)
        holds, checked, failures = alignment.scan_lemma7(
            fv, gu, np.linspace(0, 150, 400)
        )
        assert checked > 0
        assert holds == checked
        assert not failures

    def test_vacuous_when_frames_missing(self):
        fv = frames(count=1)
        gu = frames(count=1, node_id=1)
        report = alignment.check_lemma7_at(fv, gu, 0.0)
        assert not report.candidates_available

    def test_reports_aligned_pair_indices(self):
        fv = frames(count=10)
        gu = frames(count=10, node_id=1)
        report = alignment.check_lemma7_at(fv, gu, 2.5)
        assert report.holds
        fi, gj = report.aligned_pair
        assert fv[0].frame_index <= fi
        assert gu[0].frame_index <= gj

    def test_can_fail_with_extreme_drift(self):
        # Way beyond 1/7: a very slow transmitter clock (rate 0.1) makes
        # every transmitted slot 10/3 real seconds long, while a very
        # fast receiver clock (rate 1.9) makes listening frames ~0.53
        # seconds — no slot ever fits inside a frame, so the Lemma 7
        # guarantee is lost outside the assumption.
        fv = frames(drift=-0.9, bound=0.9, count=40)
        gu = frames(drift=0.9, bound=0.9, count=400, node_id=1, offset_real=0.4)
        holds, checked, failures = alignment.scan_lemma7(
            fv, gu, np.linspace(0, 60, 50)
        )
        assert checked > 0
        assert holds == 0
        assert failures  # the guarantee is indeed lost out of assumption


class TestLemma8:
    def test_sequence_admissible_and_long_enough(self):
        fv = frames(drift=0.1, bound=1 / 7, count=240)
        gu = frames(drift=-0.1, bound=1 / 7, count=240, offset_real=0.7, node_id=1)
        report = alignment.build_admissible_sequence(
            fv, gu, {0: fv, 1: gu}, t_s=0.0
        )
        assert report.all_aligned
        assert report.disjoint_overlap
        assert report.satisfies_bound
        assert len(report.pairs) >= report.full_frames // 6 - 2

    def test_pairs_strictly_precede(self):
        fv = frames(count=100)
        gu = frames(count=100, node_id=1, offset_real=0.3)
        report = alignment.build_admissible_sequence(
            fv, gu, {0: fv, 1: gu}, t_s=0.0
        )
        for (f1, g1), (f2, g2) in zip(report.pairs, report.pairs[1:]):
            assert f1.start < f2.start
            assert g1.start < g2.start
