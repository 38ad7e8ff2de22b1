"""Integration tests for the baseline protocols vs the paper's algorithms."""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import mean
from repro.net import build_network, channels, topology
from repro.sim.runner import run_synchronous, run_trials


def clique_common_channel(num_nodes=8, universal=25, set_size=3, seed=0):
    """Clique where all pairs share exactly channel 0 (the §I scenario)."""
    rng = np.random.default_rng(seed)
    topo = topology.clique(num_nodes)
    assignment = channels.single_common_channel(
        num_nodes, universal, set_size, rng
    )
    return build_network(topo, assignment)


class TestDeterministicScan:
    def test_one_epoch_discovers_everything(self):
        net = clique_common_channel()
        universal = sorted(net.universal_channel_set)
        epoch = len(universal) * net.num_nodes
        result = run_synchronous(
            net,
            "deterministic_scan",
            seed=0,
            max_slots=epoch,
            engine="reference",
            universal_channels=universal,
            id_space_size=net.num_nodes,
        )
        assert result.completed
        for nid in net.node_ids:
            expected = {
                v: net.span(v, nid) for v in net.discoverable_neighbors(nid)
            }
            assert result.neighbor_tables[nid] == expected

    def test_randomized_beats_deterministic_product_bound(self):
        # Deterministic scan needs Theta(N_max * |U|) slots where N_max
        # is the agreed *maximum* network size ([20]-[22] schedule by id
        # space, not by who actually showed up). With a realistic
        # N_max >> N and the shared channel not conveniently first in
        # the agreed order, Algorithm 3 finishes far sooner.
        net = clique_common_channel()
        universal = sorted(net.universal_channel_set - {0}) + [0]
        id_space = 128
        epoch = len(universal) * id_space

        det = run_synchronous(
            net,
            "deterministic_scan",
            seed=0,
            max_slots=epoch,
            engine="reference",
            universal_channels=universal,
            id_space_size=id_space,
        )
        rand_results = run_trials(
            lambda seed: run_synchronous(
                net, "algorithm3", seed=seed, max_slots=epoch * 10, delta_est=8
            ),
            num_trials=8,
            base_seed=5,
        )
        assert det.completed
        assert all(r.completed for r in rand_results)
        rand_mean = mean([r.completion_time for r in rand_results])
        # Every link's span is {0}, the last block of the sweep: the
        # deterministic schedule cannot cover anything before slot
        # (|U| - 1) * N_max.
        assert det.completion_time >= (len(universal) - 1) * id_space
        assert rand_mean < det.completion_time


class TestUniversalSweep:
    def test_discovers_with_identical_starts(self):
        net = clique_common_channel(num_nodes=6, universal=19, set_size=3)
        universal = sorted(net.universal_channel_set)
        result = run_synchronous(
            net,
            "universal_sweep",
            seed=1,
            max_slots=100_000,
            delta_est=8,
            engine="reference",
            universal_channels=universal,
        )
        assert result.completed

    def test_pays_universal_size_despite_common_channel(self):
        # Section I's second disadvantage: the sweep's time scales with
        # |U| even though one common channel would suffice. Algorithm 3
        # only tracks the available sets.
        net = clique_common_channel(num_nodes=6, universal=19, set_size=3)
        universal = sorted(net.universal_channel_set)

        def mean_time(protocol, **kwargs):
            results = run_trials(
                lambda seed: run_synchronous(
                    net,
                    protocol,
                    seed=seed,
                    max_slots=200_000,
                    delta_est=8,
                    engine="reference",
                    **kwargs,
                ),
                num_trials=6,
                base_seed=9,
            )
            assert all(r.completed for r in results)
            return mean([r.completion_time for r in results])

        sweep = mean_time("universal_sweep", universal_channels=universal)
        alg3 = mean_time("algorithm3")
        assert alg3 < sweep

    def test_staggered_starts_break_the_sweep(self):
        # Section I's third disadvantage: nodes must start simultaneously
        # or they disagree on each slot's channel. With a one-slot
        # relative offset on a two-node network with disjoint-but-for-
        # one-channel sets, the sweep never lines up on the common
        # channel in the same slot.
        rng = np.random.default_rng(0)
        topo = topology.clique(2)
        assignment = channels.single_common_channel(2, 5, 3, rng)
        net = build_network(topo, assignment)
        universal = sorted(net.universal_channel_set)  # size 5

        result = run_synchronous(
            net,
            "universal_sweep",
            seed=3,
            max_slots=20_000,
            delta_est=2,
            engine="reference",
            universal_channels=universal,
            # Offset of 1 slot: when node 0 is on U[t], node 1 is on
            # U[t-1]; they meet on the common channel only if the sweep
            # length divides the offset difference — never here.
            start_offsets={0: 0, 1: 1},
        )
        assert not result.completed

    def test_algorithm3_immune_to_stagger(self):
        rng = np.random.default_rng(0)
        topo = topology.clique(2)
        assignment = channels.single_common_channel(2, 5, 3, rng)
        net = build_network(topo, assignment)
        result = run_synchronous(
            net,
            "algorithm3",
            seed=3,
            max_slots=20_000,
            delta_est=2,
            start_offsets={0: 0, 1: 1},
        )
        assert result.completed


class TestBirthdayPrimitive:
    def test_single_channel_discovery(self):
        topo = topology.clique(5)
        net = build_network(topo, channels.homogeneous(5, 1))
        from repro.baselines import BirthdayProtocol
        from repro.sim.rng import RngFactory
        from repro.sim.slotted import SlottedSimulator
        from repro.sim.stopping import StoppingCondition

        sim = SlottedSimulator(
            net,
            lambda nid, chs, rng: BirthdayProtocol(
                nid, chs, rng, channel=0, delta_est=4
            ),
            RngFactory(2),
        )
        result = sim.run(StoppingCondition.slots(10_000))
        assert result.completed
