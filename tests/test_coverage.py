"""Unit tests for repro.analysis.coverage (Monte-Carlo estimators)."""

from __future__ import annotations

import pytest

from repro.analysis import coverage
from repro.core import bounds
from repro.exceptions import ConfigurationError
from repro.net import build_network, channels, topology


@pytest.fixture
def star_hom():
    """Hub + 4 leaves, homogeneous 4 channels: controlled Δ and S."""
    topo = topology.star(4)
    return build_network(topo, channels.homogeneous(topo.num_nodes, 4))


class TestHelpers:
    def test_matched_slot_index(self):
        assert coverage.matched_slot_index(1) == 1
        assert coverage.matched_slot_index(2) == 1
        assert coverage.matched_slot_index(3) == 2
        assert coverage.matched_slot_index(4) == 2
        assert coverage.matched_slot_index(5) == 3

    def test_probability_helpers(self):
        assert coverage.alg1_slot_probability(4, 1) == 0.5
        assert coverage.alg1_slot_probability(1, 3) == pytest.approx(1 / 8)
        assert coverage.alg3_slot_probability(2, 8) == pytest.approx(0.25)
        assert coverage.alg4_frame_probability(2, 4) == pytest.approx(1 / 6)

    def test_matched_slot_invalid(self):
        with pytest.raises(ConfigurationError):
            coverage.matched_slot_index(0)


class TestCoverageEstimate:
    def test_from_counts(self):
        est = coverage.CoverageEstimate.from_counts(50, 100)
        assert est.probability == 0.5
        assert est.ci_low < 0.5 < est.ci_high

    def test_at_least(self):
        est = coverage.CoverageEstimate.from_counts(50, 100)
        assert est.at_least(0.4)
        assert not est.at_least(0.9)


class TestLinkCoverage:
    def test_estimate_beats_alg3_bound(self, star_hom, rng):
        delta_est = 8
        probs = {
            nid: coverage.alg3_slot_probability(
                len(star_hom.channels_of(nid)), delta_est
            )
            for nid in star_hom.node_ids
        }
        link = star_hom.link(1, 0)  # leaf -> hub (hub has degree 4)
        est = coverage.estimate_link_coverage(star_hom, link, probs, 8000, rng)
        bound = bounds.slot_coverage_alg3(
            star_hom.max_channel_set_size, delta_est, star_hom.min_span_ratio
        )
        # The analytic value is a LOWER bound; the estimate must not
        # contradict it.
        assert est.at_least(bound)

    def test_isolated_receiver_high_coverage(self, rng):
        # Pair with one channel: coverage = p_v * (1 - p_u).
        topo = topology.line(2)
        net = build_network(topo, channels.homogeneous(2, 1))
        probs = {0: 0.5, 1: 0.5}
        est = coverage.estimate_link_coverage(net, net.link(1, 0), probs, 8000, rng)
        assert est.probability == pytest.approx(0.25, abs=0.02)

    def test_trials_validated(self, star_hom, rng):
        with pytest.raises(ConfigurationError):
            coverage.estimate_link_coverage(
                star_hom, star_hom.link(1, 0), {}, 0, rng
            )


class TestEventEstimates:
    def test_events_match_analysis(self, star_hom, rng):
        # One channel of 4, p = 1/2 cap: Pr{A} = p/|A| = 1/8.
        delta_est = 8
        probs = {
            nid: coverage.alg3_slot_probability(
                len(star_hom.channels_of(nid)), delta_est
            )
            for nid in star_hom.node_ids
        }
        link = star_hom.link(1, 0)
        est = coverage.estimate_event_probabilities(
            star_hom, link, channel=0, probabilities=probs, trials=8000, rng=rng
        )
        # p_v = min(1/2, 4/8) = 1/2; Pr{A} = 1/2 * 1/4 = 1/8.
        assert est.pr_transmit.probability == pytest.approx(1 / 8, abs=0.02)
        # Pr{B} = (1 - 1/2) * 1/4 = 1/8.
        assert est.pr_listen.probability == pytest.approx(1 / 8, abs=0.02)
        # Analytic lower bounds hold.
        assert est.pr_transmit.at_least(
            bounds.pr_transmit_event_alg3(star_hom.max_channel_set_size, delta_est)
        )
        assert est.pr_listen.at_least(bounds.pr_listen_event(4))
        assert est.pr_no_interference.at_least(bounds.pr_no_interference_event())

    def test_channel_must_be_in_span(self, star_hom, rng):
        with pytest.raises(ConfigurationError, match="span"):
            coverage.estimate_event_probabilities(
                star_hom, star_hom.link(1, 0), channel=99,
                probabilities={}, trials=10, rng=rng,
            )


class TestAlignedPairCoverage:
    def test_beats_lemma5_bound(self, star_hom, rng):
        delta_est = 4
        link = star_hom.link(1, 0)
        est = coverage.estimate_aligned_pair_coverage(
            star_hom, link, delta_est, trials=20_000, rng=rng
        )
        bound = bounds.lemma5_pair_coverage(
            star_hom.max_channel_set_size, delta_est, star_hom.min_span_ratio
        )
        assert est.at_least(bound)
        assert est.probability > 0

    def test_no_interferers_simple_product(self, rng):
        # Two-node network, one channel: coverage = p * (1 - p), p = 1/(3*4).
        topo = topology.line(2)
        net = build_network(topo, channels.homogeneous(2, 1))
        est = coverage.estimate_aligned_pair_coverage(
            net, net.link(1, 0), delta_est=4, trials=30_000, rng=rng
        )
        p = 1 / 12
        assert est.probability == pytest.approx(p * (1 - p), abs=0.01)

    def test_validation(self, star_hom, rng):
        with pytest.raises(ConfigurationError):
            coverage.estimate_aligned_pair_coverage(
                star_hom, star_hom.link(1, 0), 4, trials=0, rng=rng
            )
        with pytest.raises(ConfigurationError):
            coverage.estimate_aligned_pair_coverage(
                star_hom, star_hom.link(1, 0), 4, trials=10, rng=rng, overlap_frames=0
            )
