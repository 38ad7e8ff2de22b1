"""The grid engine's blocks of K slots against blocks of one slot.

The schedules are oblivious, so ``GridBatchedSimulator`` decodes K slots
of every row's draws from raw words at once, resolves the block's
receptions together and takes coverage per row in slot order. Whatever
the block composition, every result must equal the one-slot run byte for
byte, metadata and fault events included, and both must equal the
generator calls the decode replaces (its proof forced to fail). The
stacked fault state (spectrum timelines, Gilbert–Elliott link arrays)
is pinned against the scalar hooks the reference engines use.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.sim.batched as batched
from repro.core.registry import VECTORIZED_PROTOCOLS
from repro.faults.activity import FixedWindows, RenewalActivity, realize
from repro.faults.models import BernoulliLoss, GilbertElliott, JammingBursts, NodeChurn
from repro.faults.plan import FaultPlan
from repro.faults.runtime import StackedFaults, compile_plan
from repro.net import build_network, channels, topology
from repro.sim.batched import GridBatchedSimulator, GridCell, _decode_proven, _scalar_picks
from repro.sim.rng import RngFactory, derive_trial_seed
from repro.sim.runner import _vector_schedule
from repro.sim.stopping import StoppingCondition

BASE_SEED = 4242

#: A PCG64 stream position whose next word's high 32-bit half is
#: rejected by Lemire's bounded draw at size 61, found once by a
#: vectorized scan of raw words (rejections at such sizes occur about
#: once in 10⁸ halves).
REJECTING_SEED, REJECTING_WORD, REJECTING_SIZE = 2024, 31_425_117, 61


@contextlib.contextmanager
def engine_constants(block: int = batched._MAX_BLOCK, proven: bool = True) -> Iterator[None]:
    """Force the block length cap, or the proof's failure, for a while."""
    saved = batched._MAX_BLOCK, batched._decode_proven
    batched._MAX_BLOCK = block
    if not proven:
        batched._decode_proven = lambda stream, sizes: None
    try:
        yield
    finally:
        batched._MAX_BLOCK, batched._decode_proven = saved


@st.composite
def networks(draw):
    nodes = draw(st.integers(3, 9))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    topo = topology.random_geometric(nodes, 0.7, rng)
    # |A(u)| from 1 to 4 of 5 channels: odd and even sizes, singletons.
    assignment = channels.uniform_random_subsets(nodes, 5, 1, rng, set_size_max=4)
    return build_network(topo, channels.repair_pair_overlap(topo, assignment, rng))


@st.composite
def fault_plans(draw, net):
    models = []
    ids = list(net.node_ids)
    universal = sorted(net.universal_channel_set)
    if draw(st.booleans()):
        node = draw(st.sampled_from(ids))
        models.append(
            NodeChurn(
                joins={node: float(draw(st.integers(0, 30)))},
                crashes={draw(st.sampled_from(ids)): float(draw(st.integers(20, 200)))},
            )
        )
    jam = draw(st.sampled_from([None, "windows", "renewal"]))
    if jam is not None:
        chans = tuple(draw(st.lists(st.sampled_from(universal), min_size=1, max_size=2, unique=True)))
        if jam == "windows":
            start = draw(st.integers(0, 40))
            activity = FixedWindows(((start, start + draw(st.integers(1, 30))), (100.0, 130.5)))
        else:
            activity = RenewalActivity(mean_on=draw(st.sampled_from([3.0, 20.0])), mean_off=25.0)
        models.append(JammingBursts(activity, channels=chans))
    ge = draw(st.sampled_from([None, 0.0, 0.1]))
    if ge is not None:
        models.append(GilbertElliott(p_good=ge, p_bad=0.7, mean_good=40.0, mean_bad=10.0))
    if draw(st.integers(0, 3)) == 0:
        models.append(BernoulliLoss(p=0.2))
    return FaultPlan(models=tuple(models)) if models else None


@st.composite
def grids(draw):
    net = draw(networks())
    cells = []
    for g in range(draw(st.integers(1, 3))):
        protocol = draw(st.sampled_from(VECTORIZED_PROTOCOLS))
        offsets = None
        if draw(st.booleans()):
            offsets = {nid: draw(st.integers(0, 25)) for nid in net.node_ids}
        cells.append(
            dict(
                protocol=protocol,
                trials=draw(st.integers(1, 3)),
                seed_base=10 * g,
                start_offsets=offsets,
                erasure_prob=draw(st.sampled_from([0.0, 0.0, 0.15])),
                faults=draw(fault_plans(net)),
            )
        )
    budget = draw(st.sampled_from([60, 250]))
    oracle = draw(st.booleans())
    return net, cells, StoppingCondition(max_slots=budget, stop_on_full_coverage=oracle)


def run_grid(net, cells, stopping):
    return GridBatchedSimulator(
        net,
        [
            GridCell(
                schedule=_vector_schedule(c["protocol"], net, len(net.node_ids) + 2),
                rng_factories=[
                    RngFactory(derive_trial_seed(BASE_SEED, c["seed_base"] + i))
                    for i in range(c["trials"])
                ],
                start_offsets=c["start_offsets"],
                erasure_prob=c["erasure_prob"],
                faults=c["faults"],
            )
            for c in cells
        ],
    ).run(stopping)


class TestBlocksMatchOneSlot:
    @settings(max_examples=40, deadline=None)
    @given(grids(), st.sampled_from([2, 5, 64]))
    def test_any_block_length_gives_the_same_results(self, grid, block):
        net, cells, stopping = grid
        with engine_constants(block=1):
            one_slot = run_grid(net, cells, stopping)
        with engine_constants(block=block):
            blocked = run_grid(net, cells, stopping)
        with engine_constants(proven=False):
            calls = run_grid(net, cells, stopping)
        assert blocked == one_slot
        assert one_slot == calls


def clique_with_sizes(sizes):
    rng = np.random.default_rng(0)
    n = len(sizes)
    topo = topology.clique(n)
    universal = max(sizes)
    assignment = {
        i: frozenset(rng.choice(universal, size=s, replace=False).tolist())
        for i, s in enumerate(sizes)
    }
    return build_network(topo, assignment)


class TestRejection:
    """Lemire's rejection, which takes an extra half for one pick."""

    def rejecting_generator(self, skip: int = 0) -> np.random.Generator:
        bg = np.random.PCG64(REJECTING_SEED)
        bg.advance(REJECTING_WORD - skip)
        return np.random.Generator(bg)

    def test_position_rejects(self):
        word = int(self.rejecting_generator().bit_generator.random_raw())
        threshold = ((1 << 32) - REJECTING_SIZE) % REJECTING_SIZE
        assert ((word >> 32) * REJECTING_SIZE) & 0xFFFFFFFF < threshold
        assert ((word & 0xFFFFFFFF) * REJECTING_SIZE) & 0xFFFFFFFF >= threshold

    def test_scalar_decode_matches_numpy_through_a_rejection(self):
        sizes = np.array([REJECTING_SIZE, 1, REJECTING_SIZE, 3], dtype=np.int64)
        ref, raw = self.rejecting_generator(), self.rejecting_generator()
        expected = ref.integers(0, sizes)
        picks, has_spare, spare = _scalar_picks(raw.bit_generator.random_raw, sizes, 0, 0)
        assert picks.tolist() == expected.tolist()
        # Three picks took four halves: no spare left, both in step.
        end = ref.bit_generator.state
        assert (end["has_uint32"], has_spare) == (0, 0)
        assert end["state"] == raw.bit_generator.state["state"]
        assert _decode_proven(self.rejecting_generator(), sizes) is not None

    @pytest.mark.parametrize("erasure", [0.0, 0.3])
    def test_engine_handles_a_rejecting_slot(self, erasure):
        # Slot 0 of a 4-node clique draws 4 uniforms, then picks whose
        # second half rejects: with erasure the one-slot path decodes
        # it, without it the block decode redoes the row exactly.
        net = clique_with_sizes([REJECTING_SIZE] * 4)
        schedule = _vector_schedule("algorithm3", net, 4)
        n = len(net.node_ids)
        probe = self.rejecting_generator(skip=n).random(n)
        tx = int((probe < 0.5).sum())
        assert 0 < tx < n, "the pinned slot must draw picks"

        def run(**constants):
            factory = RngFactory(7)
            stream = factory.stream("fast-engine")
            stream.bit_generator.state = self.rejecting_generator(skip=n).bit_generator.state
            with engine_constants(**constants):
                sim = GridBatchedSimulator(
                    net, [GridCell(schedule, [factory], erasure_prob=erasure)]
                )
                return sim.run(StoppingCondition(max_slots=40, stop_on_full_coverage=False))

        assert run() == run(proven=False)


class TestThresholds:
    def test_integer_thresholds_match_the_uniform_comparison(self):
        # word < T exactly when (word >> 11)·2⁻⁵³ < p: T/2¹¹ is the
        # least x with x·2⁻⁵³ ≥ p, checked at the boundary words.
        net = clique_with_sizes([1, 2, 3, 5, 7])
        for delta_est in (3, 7, 10, 13):
            schedule = _vector_schedule("algorithm3", net, delta_est)
            sim = GridBatchedSimulator(net, [GridCell(schedule, [RngFactory(0)])])
            bound, shifted = sim._thresholds(0, 1)
            assert not shifted
            p = schedule.probabilities(np.zeros(len(net.node_ids), dtype=np.int64))
            for threshold, prob in zip(bound.reshape(-1).tolist(), p.tolist()):
                x = threshold >> 11
                assert threshold == x << 11
                assert (x - 1) * 2.0**-53 < prob <= x * 2.0**-53


class TestProofFailure:
    def test_generator_fallback_is_identical(self):
        rng = np.random.default_rng(5)
        topo = topology.random_geometric(9, 0.6, rng)
        assignment = channels.uniform_random_subsets(9, 5, 1, rng, set_size_max=4)
        net = build_network(topo, channels.repair_pair_overlap(topo, assignment, rng))
        cells = [
            dict(protocol=p, trials=2, seed_base=10 * g, start_offsets=None,
                 erasure_prob=0.0, faults=None)
            for g, p in enumerate(("algorithm1", "robust_staged"))
        ]
        stopping = StoppingCondition(max_slots=500, stop_on_full_coverage=True)
        with engine_constants(proven=False):
            fallback = GridBatchedSimulator(net, [GridCell(_vector_schedule("algorithm1", net, 11), [RngFactory(1)])])
            assert not fallback._proven
            calls = run_grid(net, cells, stopping)
        assert run_grid(net, cells, stopping) == calls


class TestNextChange:
    def test_window_ends_are_half_open(self):
        timeline = realize(FixedWindows(((2.0, 5.0), (7.0, 9.5))))
        assert timeline.next_change(0.0) == 2.0
        assert timeline.next_change(2.0) == 5.0
        assert timeline.next_change(4.9) == 5.0
        assert timeline.active_at(4.9) and not timeline.active_at(5.0)
        assert timeline.next_change(5.0) == 7.0
        assert timeline.next_change(9.0) == 9.5
        assert timeline.next_change(9.5) == math.inf
        assert realize(FixedWindows()).next_change(3.0) == math.inf

    def test_renewal_boundaries(self):
        timeline = realize(
            RenewalActivity(mean_on=4.0, mean_off=6.0), np.random.default_rng(3)
        )
        t = 0.0
        for _ in range(30):
            nxt = timeline.next_change(t)
            assert nxt > t
            state = timeline.active_at(t)
            # Constant up to the boundary, switched at it.
            assert timeline.active_at((t + nxt) / 2) == state
            assert timeline.active_at(nxt) != state
            t = nxt
        assert timeline.next_change(-1.0) == 0.0

    def test_begin_slot_skips_until_the_next_change(self):
        rng = np.random.default_rng(1)
        net = build_network(topology.clique(3), channels.uniform_random_subsets(3, 3, 2, rng))
        plan = FaultPlan(models=(JammingBursts(FixedWindows(((3.0, 6.5),)), channels=(0,)),))
        runtime = compile_plan(plan, net, RngFactory(0), "slots")
        flips = [runtime.begin_slot(t) for t in range(10)]
        assert flips == [False, False, False, True, False, False, False, True, False, False]
        assert runtime.next_spectrum_change == math.inf
        assert [e["time"] for e in runtime.describe()["events"]] == [3.0, 7.0]


class TestStackedGilbertElliott:
    @pytest.mark.parametrize("p_good", [0.0, 0.05])
    def test_same_keeps_and_stream_end_as_keep_delivery(self, p_good):
        rng = np.random.default_rng(2)
        net = build_network(topology.clique(4), channels.uniform_random_subsets(4, 3, 2, rng))
        plan = FaultPlan(
            models=(GilbertElliott(p_good=p_good, p_bad=0.6, mean_good=30.0, mean_bad=8.0),)
        )
        links = net.links()
        deliveries = []
        draws = np.random.default_rng(9)
        for slot in range(0, 400, 3):
            # One block of a few slots: distinct links per slot, some
            # links again in later slots of the block.
            for j in range(3):
                for e in sorted(draws.choice(len(links), size=3, replace=False).tolist()):
                    deliveries.append((slot + j, e))
        scalar = compile_plan(plan, net, RngFactory(11), "slots")
        expected = [
            scalar.keep_delivery(
                links[e].transmitter, links[e].receiver, float(slot), np.random.default_rng(0)
            )
            for slot, e in deliveries
        ]
        stacked_runtime = compile_plan(plan, net, RngFactory(11), "slots")
        stacked = StackedFaults(
            [stacked_runtime], net.node_ids, {}, 0, len(links)
        )
        kept = []
        for block in range(0, 400, 3):
            part = [(s, e) for s, e in deliveries if block <= s < block + 3]
            keys = np.array([e for _, e in part], dtype=np.int64)
            slots = np.array([s for s, _ in part], dtype=np.int64)
            kept += stacked.keep(keys, slots, []).tolist()
        assert kept == expected
        assert (
            stacked_runtime._loss[0]._rng.bit_generator.state
            == scalar._loss[0]._rng.bit_generator.state
        )
