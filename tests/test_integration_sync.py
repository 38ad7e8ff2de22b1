"""Integration tests: the synchronous algorithms end to end.

These run full discovery on assorted networks and check the paper-level
guarantees: every node discovers exactly its true neighbors with exactly
the shared channel sets, under each algorithm and both engines.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import mean
from repro.core import bounds
from repro.net import build_network, channels, topology
from repro.sim.rng import RngFactory
from repro.sim.runner import random_start_offsets, run_synchronous, run_trials


def assert_tables_exact(network, result):
    """Discovered tables must equal ground truth exactly."""
    for nid in network.node_ids:
        expected = {
            v: network.span(v, nid) for v in network.discoverable_neighbors(nid)
        }
        assert result.neighbor_tables[nid] == expected, f"node {nid}"


def heterogeneous_net(seed=0):
    rng = np.random.default_rng(seed)
    topo = topology.random_geometric(
        15, radius=0.42, rng=rng, require_connected=True
    )
    assignment = channels.common_channel_plus_random(
        topo.num_nodes, universal_size=8, set_size=3, rng=rng
    )
    return build_network(topo, assignment)


class TestAlgorithm1:
    def test_full_discovery_and_exact_tables(self):
        net = heterogeneous_net()
        result = run_synchronous(
            net, "algorithm1", seed=1, max_slots=100_000, delta_est=16
        )
        assert result.completed
        assert_tables_exact(net, result)

    def test_reference_engine_same_guarantee(self):
        net = heterogeneous_net()
        result = run_synchronous(
            net,
            "algorithm1",
            seed=1,
            max_slots=100_000,
            delta_est=16,
            engine="reference",
        )
        assert result.completed
        assert_tables_exact(net, result)

    def test_completes_within_theorem1_budget(self):
        net = heterogeneous_net()
        epsilon = 0.1
        budget = bounds.theorem1_slot_budget(
            net.max_channel_set_size,
            net.max_degree,
            net.min_span_ratio,
            net.num_nodes,
            epsilon,
            delta_est=16,
        )
        results = run_trials(
            lambda seed: run_synchronous(
                net, "algorithm1", seed=seed, max_slots=budget, delta_est=16,
            ),
            num_trials=10,
            base_seed=42,
        )
        # Theorem 1: failure probability <= eps; with 10 trials expect
        # at least 9 empirical successes (and typically 10 — the bound
        # is loose).
        assert sum(r.completed for r in results) >= 9

    def test_loose_delta_est_costs_only_log(self):
        net = heterogeneous_net()

        def mean_time(delta_est):
            results = run_trials(
                lambda seed: run_synchronous(
                    net, "algorithm1", seed=seed, max_slots=200_000,
                    delta_est=delta_est,
                ),
                num_trials=8,
                base_seed=7,
            )
            return mean([r.completion_time for r in results])

    # A 16x larger estimate costs well under 16x the time (log factor).
        t16, t256 = mean_time(16), mean_time(256)
        assert t256 < 6 * t16


class TestAlgorithm2:
    def test_full_discovery_without_degree_knowledge(self):
        net = heterogeneous_net()
        result = run_synchronous(net, "algorithm2", seed=3, max_slots=200_000)
        assert result.completed
        assert_tables_exact(net, result)

    def test_no_knowledge_premium_over_algorithm1(self):
        net = heterogeneous_net()

        def mean_time(protocol, **kwargs):
            results = run_trials(
                lambda seed: run_synchronous(
                    net, protocol, seed=seed, max_slots=400_000, **kwargs
                ),
                num_trials=8,
                base_seed=11,
            )
            assert all(r.completed for r in results)
            return mean([r.completion_time for r in results])

        t1 = mean_time("algorithm1", delta_est=8)
        t2 = mean_time("algorithm2")
        # Algorithm 2 must eventually finish but pays for the growing
        # estimate phase.
        assert t2 > 0.5 * t1  # sanity: same order of magnitude range


class TestAlgorithm3:
    def test_full_discovery_with_staggered_starts(self):
        net = heterogeneous_net()
        offsets = random_start_offsets(
            net, 500, RngFactory(5).stream("offsets")
        )
        result = run_synchronous(
            net,
            "algorithm3",
            seed=5,
            max_slots=200_000,
            delta_est=8,
            start_offsets=offsets,
        )
        assert result.completed
        assert_tables_exact(net, result)

    def test_completes_within_theorem3_budget_after_ts(self):
        net = heterogeneous_net()
        epsilon = 0.1
        delta_est = 8
        budget = bounds.theorem3_slot_budget(
            net.max_channel_set_size,
            delta_est,
            net.min_span_ratio,
            net.num_nodes,
            epsilon,
        )

        def trial(seed):
            offsets = random_start_offsets(
                net, 200, RngFactory(seed).stream("offsets")
            )
            return run_synchronous(
                net,
                "algorithm3",
                seed=seed,
                max_slots=200 + 2 * budget,
                delta_est=delta_est,
                start_offsets=offsets,
            )

        results = run_trials(trial, num_trials=10, base_seed=23)
        ok = sum(
            1
            for r in results
            if r.completed and r.completion_after_all_started <= budget
        )
        assert ok >= 9

    def test_flat_beats_staged_with_tight_estimate(self):
        # With a tight degree bound, Algorithm 3 should beat Algorithm 1
        # (no log Delta_est stage factor) — the paper's Theorem 1 vs 3
        # comparison.
        net = heterogeneous_net()
        delta_est = max(2, net.max_degree)

        def mean_time(protocol):
            results = run_trials(
                lambda seed: run_synchronous(
                    net, protocol, seed=seed, max_slots=200_000, delta_est=delta_est
                ),
                num_trials=10,
                base_seed=31,
            )
            return mean([r.completion_time for r in results])

        assert mean_time("algorithm3") < mean_time("algorithm1")


class TestEngineAgreement:
    """Fast and reference engines implement identical semantics."""

    def test_statistical_agreement_on_completion_time(self):
        net = heterogeneous_net()

        def mean_time(engine, base_seed):
            results = run_trials(
                lambda seed: run_synchronous(
                    net,
                    "algorithm3",
                    seed=seed,
                    max_slots=100_000,
                    delta_est=8,
                    engine=engine,
                ),
                num_trials=12,
                base_seed=base_seed,
            )
            assert all(r.completed for r in results)
            return mean([r.completion_time for r in results])

        fast = mean_time("fast", 100)
        ref = mean_time("reference", 200)
        # Means agree within 35% — same distribution, different streams.
        assert abs(fast - ref) / max(fast, ref) < 0.35

    def test_same_tables_both_engines(self):
        net = heterogeneous_net()
        fast = run_synchronous(
            net, "algorithm3", seed=9, max_slots=100_000, delta_est=8
        )
        ref = run_synchronous(
            net,
            "algorithm3",
            seed=9,
            max_slots=100_000,
            delta_est=8,
            engine="reference",
        )
        assert fast.completed and ref.completed
        assert fast.neighbor_tables == ref.neighbor_tables


class TestHeterogeneityScaling:
    def test_time_grows_as_rho_shrinks(self):
        # Paper Section II: running time inversely proportional to rho.
        topo = topology.grid(3, 3)
        times = {}
        for overlap, set_size in ((4, 4), (1, 4)):
            rng = np.random.default_rng(0)
            assignment = channels.adversarial_min_overlap(
                topo, set_size=set_size, overlap=overlap, rng=rng
            )
            net = build_network(topo, assignment)
            results = run_trials(
                lambda seed: run_synchronous(
                    net, "algorithm3", seed=seed, max_slots=300_000, delta_est=8
                ),
                num_trials=8,
                base_seed=3,
            )
            assert all(r.completed for r in results)
            times[overlap] = mean([r.completion_time for r in results])
        # rho = 1 vs rho = 1/4: heterogeneous case clearly slower.
        assert times[1] > 1.5 * times[4]


class TestUnreliableChannels:
    def test_erasures_slow_but_do_not_break_discovery(self):
        net = heterogeneous_net()

        def mean_time(erasure):
            results = run_trials(
                lambda seed: run_synchronous(
                    net,
                    "algorithm3",
                    seed=seed,
                    max_slots=400_000,
                    delta_est=8,
                    erasure_prob=erasure,
                ),
                num_trials=6,
                base_seed=17,
            )
            assert all(r.completed for r in results)
            return mean([r.completion_time for r in results])

        clean = mean_time(0.0)
        lossy = mean_time(0.5)
        assert lossy > clean
