"""Algorithm 4's frame decisions, decoded a block at a time from raw words.

``AsyncSimulator`` draws each Algorithm 4 node's channel picks and
transmit coins a block of frames ahead (``_draw_frames``): one
``random_raw`` call per block, decoded with array operations, and decoded
again one frame at a time when some pick hits Lemire's rejection. The
decisions must equal ``AsyncFrameDiscovery.decide_frame`` on a twin
generator for every channel-set size, block length and pending spare
half, and the generator fallback (the proof forced to fail) must leave
every async golden digest unchanged.
"""

from __future__ import annotations

import contextlib
from itertools import islice
from typing import Iterator, List, Optional, Tuple

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import repro.sim.async_engine as async_engine
from repro.core.algorithm4 import AsyncFrameDiscovery
from repro.core.base import Mode
from repro.core.registry import make_async_factory
from repro.core.termination import SelfTerminatingAsyncProtocol
from repro.net import build_network, topology
from repro.sim.async_engine import AsyncSimulator, _draw_frames, _frame_decode_proven
from repro.sim.batched import _decode_proven
from repro.sim.rng import RngFactory
from repro.sim.stopping import StoppingCondition
from tests import test_async_goldens

SIZES = (1, 2, 3, 6, 7, 12, 16)


@contextlib.contextmanager
def frame_block(block: int) -> Iterator[None]:
    """Set the frames one block decodes, for a while."""
    saved = async_engine._FRAME_BLOCK
    async_engine._FRAME_BLOCK = block
    try:
        yield
    finally:
        async_engine._FRAME_BLOCK = saved


def twin_generators(
    seed: int, spare: Optional[int]
) -> Tuple[np.random.Generator, np.random.Generator]:
    """Two generators in one state, with ``spare`` as a pending half."""
    state = np.random.default_rng(seed).bit_generator.state
    if spare is not None:
        state["has_uint32"], state["uinteger"] = 1, spare
    pair = []
    for _ in range(2):
        rng = np.random.default_rng(0)
        rng.bit_generator.state = state
        pair.append(rng)
    return pair[0], pair[1]


def decided(rng: np.random.Generator, channels: List[int], delta_est: int, frames: int):
    protocol = AsyncFrameDiscovery(0, channels, rng, delta_est)
    return [
        (decision.mode is Mode.TRANSMIT, decision.channel)
        for decision in map(protocol.decide_frame, range(frames))
    ]


def decoded(rng: np.random.Generator, channels: List[int], delta_est: int, frames: int, block: int):
    probe = AsyncFrameDiscovery(0, channels, np.random.default_rng(0), delta_est)
    p = probe.frame_transmit_probability
    with frame_block(block):
        return list(islice(_draw_frames(rng, sorted(channels), p), frames))


class TestDecodeMatchesDecideFrame:
    @settings(max_examples=120, deadline=None)
    @given(
        size=st.sampled_from(SIZES),
        delta_est=st.integers(2, 40),
        block=st.sampled_from([1, 2, 3, 5, 64]),
        seed=st.integers(0, 2**32 - 1),
        spare=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        frames=st.integers(1, 150),
    )
    def test_decisions_equal_decide_frame(self, size, delta_est, block, seed, spare, frames):
        channels = np.random.default_rng(seed).choice(20, size=size, replace=False).tolist()
        ref, raw = twin_generators(seed, spare)
        assert decoded(raw, channels, delta_est, frames, block) == decided(
            ref, channels, delta_est, frames
        )


class TestRejection:
    """Lemire's rejection, which takes an extra half for one pick."""

    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_rejecting_block_is_decoded_exactly(self, block, monkeypatch):
        # A pending spare half of 0 is rejected at |A(u)| = 6: the low 32
        # bits of 0·6 fall below (2³² − 6) mod 6 = 4.
        assert (0 * 6) & 0xFFFFFFFF < ((1 << 32) - 6) % 6
        calls = []
        exact = async_engine._exact_frames

        def spy(*args):
            calls.append(args[2])
            return exact(*args)

        monkeypatch.setattr(async_engine, "_exact_frames", spy)
        channels = [3, 5, 8, 9, 11, 14]
        ref, raw = twin_generators(seed=11, spare=0)
        frames = 3 * block + 1
        assert decoded(raw, channels, 4, frames, block) == decided(ref, channels, 4, frames)
        # The first block's pick rejects the spare half; with one-frame
        # blocks it then needs a word the layout gave to its coin.
        assert calls[:1] == [block]


class TestStandingProof:
    """The decode holds on the installed NumPy: a NumPy change fails here
    instead of silently falling back to the generator calls."""

    @pytest.mark.parametrize("size", range(1, 17))
    def test_frame_decode_proven(self, size):
        for seed in range(3):
            for spare in (None, 0, 2**32 - 1):
                rng, _ = twin_generators(seed, spare)
                before = rng.bit_generator.state
                assert _frame_decode_proven(rng, size) is not None
                assert rng.bit_generator.state == before

    @pytest.mark.parametrize("size", range(1, 17))
    def test_grid_decode_proven(self, size):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            assert _decode_proven(rng, np.full(5, size, dtype=np.int64)) is not None
            assert _decode_proven(rng, np.arange(1, size + 1, dtype=np.int64)) is not None

    def test_algorithm4_nodes_take_the_block_path(self):
        net = heterogeneous_network()
        sim = AsyncSimulator(net, make_async_factory("algorithm4", delta_est=6), RngFactory(1))
        assert all(state.draws is not None for state in sim._states.values())

    def test_other_protocols_decide_each_frame(self):
        net = heterogeneous_network()
        inner = make_async_factory("algorithm4", delta_est=6)

        def terminating(nid, channels, rng):
            return SelfTerminatingAsyncProtocol(inner(nid, channels, rng), quiet_threshold=5)

        sim = AsyncSimulator(net, terminating, RngFactory(1))
        assert all(state.draws is None for state in sim._states.values())


def heterogeneous_network():
    """A 7-node clique with |A(u)| from 1 to 7 over 7 channels."""
    sizes = [1, 2, 3, 4, 5, 6, 7]
    assignment = {i: frozenset(range(7 - s, 7)) for i, s in enumerate(sizes)}
    return build_network(topology.clique(len(sizes)), assignment)


class TestEngineBlocks:
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_block_length_leaves_the_run_unchanged(self, block, monkeypatch):
        net = heterogeneous_network()
        stopping = StoppingCondition(max_frames_per_node=300, stop_on_full_coverage=False)

        def run():
            factory = make_async_factory("algorithm4", delta_est=6)
            return AsyncSimulator(net, factory, RngFactory(5)).run(stopping)

        with frame_block(block):
            blocked = run()
        monkeypatch.setattr(async_engine, "_frame_decode_proven", lambda stream, size: None)
        assert blocked == run()


@pytest.mark.parametrize("name", sorted(test_async_goldens.CASES))
def test_generator_fallback_keeps_golden_digest(name, monkeypatch):
    monkeypatch.setattr(async_engine, "_frame_decode_proven", lambda stream, size: None)
    run = test_async_goldens.CASES[name].run()
    assert test_async_goldens.run_digest(*run) == test_async_goldens.GOLDEN_DIGESTS[name]
