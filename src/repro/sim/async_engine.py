"""Asynchronous continuous-time engine (paper §IV).

Each node owns a drifting :class:`~repro.sim.clock.Clock` and divides its
*local* time into frames of length ``L``, each split into three
equal-local-length slots. Because clocks drift, a frame's *real* length
varies within ``[L/(1+δ), L/(1−δ)]`` (eq. (10)) and frames of different
nodes are arbitrarily misaligned — exactly the regime Lemmas 4-8 reason
about.

Per frame, a node's protocol decides transmit-or-listen and a channel
(Algorithm 4). A transmitter emits its hello in each of its three slots;
a listener listens for the whole frame. Reception rule: a listener ``u``
decodes the copy carried by a slot-length transmission from ``v`` on
channel ``c`` iff

* ``v`` is audible to ``u`` and ``c ∈ A(u) ∩ A(v)``,
* ``u``'s listening frame (on ``c``) contains the *entire* slot, and
* no transmission from another node audible to ``u`` overlapped the slot
  on ``c``.

This is the conservative packet-level rule under which the paper's
aligned-frame-pair analysis guarantees delivery. Interference comes only
from nodes ``u`` can hear (paper §II: there is no physical-SINR model),
and slots that merely touch at a boundary do not overlap.

The engine is one heap of ``(time, seq, action, arg)`` events: node
starts, frame ends and slot ends. ``seq`` counts scheduling calls, so
simultaneous events run in the order they were scheduled. A
transmitting frame puts its slots on its channel's on-air list when it
begins, so a slot's end event finds every slot that overlapped it
there: any slot that started earlier belongs to a frame that began
earlier.

Decisions come a block of frames at a time. A node whose protocol
declares the uniform-channel template
(:attr:`~repro.core.base.AsynchronousProtocol.frame_transmit_probability`)
has its channel picks and transmit coins decoded from one ``random_raw``
call per block of frames of its stream (:func:`_draw_frames`), exactly
the values ``decide_frame`` would draw; the decode is proven on copies
of a stream's state first (:func:`_frame_decode_proven`). Every other node, and every
node whose proof fails, calls ``decide_frame`` each frame. Clock
inversions stay per frame: a random-walk clock extends itself from the
environment stream that all nodes share, so evaluating frames ahead
would reorder those draws.

The engine records an :class:`~repro.sim.trace.ExecutionTrace` of frame
geometry when asked, which :mod:`repro.analysis.alignment` uses to
verify Lemmas 4 and 7 on actual executions.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..core.algorithm4 import SLOTS_PER_FRAME
from ..core.base import AsynchronousProtocol, Mode
from ..core.messages import HelloMessage
from ..exceptions import ConfigurationError, SimulationError
from ..net.network import M2HeWNetwork
from .clock import Clock, PerfectClock
from .draws import (
    _HIGH,
    _LOW32,
    _TO_DOUBLE,
    _pending_half,
    _prove_decode,
    _scalar_picks,
    _uniforms,
)
from .results import DiscoveryResult
from .rng import RngFactory
from .stopping import StoppingCondition
from .trace import ExecutionTrace, FrameRecord

if TYPE_CHECKING:  # imported lazily at runtime to keep sim/faults decoupled
    from ..faults.plan import FaultPlan

__all__ = ["AsyncFactory", "AsyncSimulator"]

AsyncFactory = Callable[[int, frozenset, np.random.Generator], AsynchronousProtocol]

#: Most frames one block decodes per node (see :func:`_draw_frames`).
#: Blocks of any length give the same decisions; tests lower this to
#: move the block boundaries.
_FRAME_BLOCK = 64


def _frame_decode_proven(
    stream: np.random.Generator, size: int
) -> Optional[Tuple[int, int]]:
    """Prove the frame decode on a copy of ``stream``'s state over three
    frames of ``decide_frame``'s generator calls, ``integers(0, size)``
    then ``random()`` (:func:`~repro.sim.draws._prove_decode`).

    Returns the stream's pending spare half, or ``None`` when the proof
    fails (the node then keeps calling ``decide_frame``).
    """
    return _prove_decode(stream, (("integers", size), ("random", None)) * 3)


@lru_cache(maxsize=None)
def _frame_layout(
    frames: int, has_spare: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Where ``frames`` frames find their draws among one block's words
    when no pick is rejected.

    A frame's pick takes the next 32-bit half: the pending spare half
    first, else the low half of a new word, whose high half becomes the
    spare. Its coin takes the next full word. So new pick words fall
    every third word, from word ``has_spare`` on. Returns each frame's
    coin word, pick word and whether the pick is that word's high half,
    then the block's word count and the word whose high half is left
    spare (``-1``: none).
    """
    frame = np.arange(frames)
    half = frame - has_spare  # index among new halves; -1 is the spare
    coin_at = frame + half // 2 + 1
    pick_at = np.maximum(has_spare + 3 * (half // 2), 0)
    high = half % 2 == 1
    new_halves = frames - has_spare
    count = frames + (new_halves + 1) // 2
    spare_at = has_spare + 3 * (new_halves // 2) if new_halves % 2 else -1
    return coin_at, pick_at, high, count, spare_at


def _exact_frames(
    raw: Callable[[int], np.ndarray],
    words: np.ndarray,
    frames: int,
    size: int,
    p: float,
    has_spare: int,
    spare: int,
) -> Tuple[List[bool], List[int], int, int]:
    """``frames`` frames decoded one generator call at a time
    (:func:`~repro.sim.draws._scalar_picks`), reading ``words`` first and
    the stream after them: the path for a block in which a pick hit
    Lemire's rejection and took more halves than the layout gave it.

    Returns the coins, the pick indices and the spare half left.
    """
    queue = words.tolist()[::-1]

    def take(count: int) -> List[int]:
        return [queue.pop() if queue else int(raw(1)[0])]

    sizes = np.array([size], dtype=np.int64)
    coins: List[bool] = []
    picks: List[int] = []
    for _ in range(frames):
        pick, has_spare, spare = _scalar_picks(take, sizes, has_spare, spare)
        picks.append(int(pick[0]))
        coins.append((take(1)[0] >> 11) * _TO_DOUBLE < p)
    # A rejection only ever takes more halves, so the block's words are
    # all read.
    assert not queue
    return coins, picks, has_spare, spare


def _draw_frames(
    stream: np.random.Generator, channels: Sequence[int], p: float
) -> Iterator[Tuple[bool, int]]:
    """A node's frame decisions ``(transmit, channel)``, decoded a block
    of :data:`_FRAME_BLOCK` frames at a time from raw words.

    ``stream`` is the generator the engine handed to the node's protocol
    factory. Drawing a block ahead is safe because that stream has one
    consumer, the node's protocol, whose ``decide_frame`` the decisions
    replace. Each frame's values are those of ``decide_frame``: the
    channel ``channels[integers(0, |A(u)|)]`` (``channels`` sorted, as
    the protocol's channel list is) and ``random() < p``. One
    ``random_raw`` call and a few array operations decode a block
    (:func:`_frame_layout`), and a block in which some pick hits
    Lemire's rejection is decoded again from the same words, one frame
    at a time (:func:`_exact_frames`). A one-channel node takes no half,
    only its coins, and the spare half carries across blocks.
    """
    size = len(channels)
    raw = stream.bit_generator.random_raw
    has_spare, spare = _pending_half(stream)
    if size == 1:
        only = itertools.repeat(channels[0])
        while True:
            yield from zip((_uniforms(raw(_FRAME_BLOCK)) < p).tolist(), only)
    lookup = np.array(channels, dtype=np.int64)
    multiplier = np.uint64(size)
    threshold = np.uint64(((1 << 32) - size) % size)
    while True:
        frames = _FRAME_BLOCK
        coin_at, pick_at, high, count, spare_at = _frame_layout(frames, has_spare)
        words = raw(count)
        picked = words[pick_at]
        halves = np.where(high, picked >> _HIGH, picked & _LOW32)
        if has_spare:
            halves[0] = spare
        product = halves * multiplier
        if threshold and bool(((product & _LOW32) < threshold).any()):
            coins, picks, has_spare, spare = _exact_frames(
                raw, words, frames, size, p, has_spare, spare
            )
            chosen = lookup[picks]
        else:
            coins = (_uniforms(words[coin_at]) < p).tolist()
            chosen = lookup[product >> _HIGH]
            has_spare = int(spare_at >= 0)
            if has_spare:
                spare = int(words[spare_at]) >> 32
        yield from zip(coins, chosen.tolist())


class _Slot(NamedTuple):
    """One slot-length transmission by ``sender`` on ``channel``."""

    sender: int
    channel: int
    start: float
    end: float


@dataclass
class _NodeState:
    protocol: AsynchronousProtocol
    clock: Clock
    start_real: float
    local_start: float
    frame_index: int = 0
    frame_start: float = 0.0
    full_frames_since_ts: int = 0
    listening_channel: Optional[int] = None
    listen_start: float = 0.0
    listen_end: float = 0.0
    tx_seconds: float = 0.0
    rx_seconds: float = 0.0
    quiet_seconds: float = 0.0
    #: Block-decoded ``(transmit, channel)`` decisions, or ``None`` when
    #: the node's protocol decides each frame itself.
    draws: Optional[Iterator[Tuple[bool, int]]] = None


class AsyncSimulator:
    """Event-driven asynchronous discovery simulator.

    Args:
        network: The M2HeW network instance.
        protocol_factory: ``(node_id, channels, rng) -> protocol``.
        rng_factory: Source of per-node random streams.
        frame_length: ``L`` — frame length in *local* time, identical
            for all nodes (paper §IV).
        clocks: Per-node clock; missing nodes get a :class:`PerfectClock`.
        start_times: Real time each node begins the protocol (its first
            frame starts then); missing nodes start at 0.
        erasure_prob: Per-copy loss probability (unreliable channels).
        trace: Optional trace receiving a :class:`FrameRecord` per frame.
        faults: Optional :class:`~repro.faults.plan.FaultPlan`; a
            trivial plan compiles away and leaves the run bit-identical
            to a fault-free one.
    """

    def __init__(
        self,
        network: M2HeWNetwork,
        protocol_factory: AsyncFactory,
        rng_factory: RngFactory,
        frame_length: float = 1.0,
        clocks: Optional[Mapping[int, Clock]] = None,
        start_times: Optional[Mapping[int, float]] = None,
        erasure_prob: float = 0.0,
        trace: Optional[ExecutionTrace] = None,
        faults: Optional["FaultPlan"] = None,
    ) -> None:
        if frame_length <= 0:
            raise ConfigurationError(
                f"frame_length must be positive, got {frame_length}"
            )
        if not 0.0 <= erasure_prob < 1.0:
            raise ConfigurationError(
                f"erasure_prob must be in [0, 1), got {erasure_prob}"
            )
        self._network = network
        self._L = float(frame_length)
        # Local offsets of a frame's slot boundaries from its start.
        self._slot_offsets = [
            j * self._L / SLOTS_PER_FRAME for j in range(SLOTS_PER_FRAME + 1)
        ]
        self._erasure_prob = erasure_prob
        self._erasure_rng = rng_factory.stream("erasure")
        self._trace = trace
        self._faults = None
        if faults is not None:
            from ..faults.runtime import compile_plan

            self._faults = compile_plan(
                faults, network, rng_factory, time_unit="seconds"
            )

        clocks = dict(clocks or {})
        starts = dict(start_times or {})
        self._states: Dict[int, _NodeState] = {}
        self._hellos: Dict[int, HelloMessage] = {}
        streams: Dict[int, np.random.Generator] = {}
        for nid in network.node_ids:
            clock = clocks.get(nid) or PerfectClock()
            start_real = float(starts.get(nid, 0.0))
            if start_real < 0:
                raise ConfigurationError(
                    f"start time of node {nid} must be >= 0, got {start_real}"
                )
            if self._faults is not None:
                start_real = max(start_real, self._faults.join_time(nid))
                if self._faults.has_clock_faults:
                    clock = self._faults.wrap_clock(nid, clock)
            streams[nid] = rng_factory.node_stream(nid)
            protocol = protocol_factory(nid, network.channels_of(nid), streams[nid])
            if protocol.node_id != nid:
                raise SimulationError(
                    f"protocol factory returned node id {protocol.node_id} "
                    f"for node {nid}"
                )
            self._states[nid] = _NodeState(
                protocol=protocol,
                clock=clock,
                start_real=start_real,
                local_start=clock.local_from_real(start_real),
            )
            self._hellos[nid] = protocol.hello()
        self._start_block_draws(streams)

        self._t_s = max(st.start_real for st in self._states.values())
        # Per-channel hearing sets (also carries the channel-dependent
        # propagation extension).
        self._hears_on: Dict[int, Dict[int, frozenset]] = {
            nid: {
                c: network.hears_on(nid, c)
                for c in network.channels_of(nid)
            }
            for nid in network.node_ids
        }
        self._listeners_on: Dict[int, Set[int]] = {}
        # Slots registered per channel, in registration order; an entry
        # is dropped once no pending slot can overlap it.
        self._on_air: Dict[int, Deque[_Slot]] = {}
        self._longest_slot = 0.0

        self._heap: List[Tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._stop_requested = False

        self._coverage: Dict[Tuple[int, int], Optional[float]] = {
            link.key: None for link in network.links()
        }
        self._uncovered = len(self._coverage)
        self._stopping: Optional[StoppingCondition] = None
        self._nodes_short_of_frames = len(self._states)

    def _start_block_draws(self, streams: Mapping[int, np.random.Generator]) -> None:
        """Decode the decisions of every node whose protocol declares the
        uniform-channel template a block of frames at a time.

        The decode is proven once per ``|A(u)|``, on copies of the first
        such node's stream state; nodes of a size whose proof fails keep
        calling ``decide_frame``.
        """
        proven: Dict[int, bool] = {}
        for nid, state in self._states.items():
            p = state.protocol.frame_transmit_probability
            if p is None:
                continue
            stream = streams[nid]
            size = state.protocol.channel_count
            if size not in proven:
                proven[size] = _frame_decode_proven(stream, size) is not None
            if proven[size]:
                state.draws = _draw_frames(stream, sorted(state.protocol.channels), p)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def all_started_time(self) -> float:
        """``T_s`` — the real time by which every node has started."""
        return self._t_s

    def run(self, stopping: StoppingCondition) -> DiscoveryResult:
        """Run until the stopping condition fires; return the result."""
        stopping.require_async_budget()
        self._stopping = stopping
        if stopping.max_frames_per_node is None:
            self._nodes_short_of_frames = 0

        for nid, state in self._states.items():
            self._schedule(state.start_real, self._begin_frame, nid)

        horizon = self._run_events(stopping.max_real_time)

        completed = all(t is not None for t in self._coverage.values())
        metadata: Dict[str, object] = {
            "engine": "async",
            "frame_length": self._L,
            "erasure_prob": self._erasure_prob,
            "t_s": self._t_s,
            "full_frames_since_ts": {
                nid: st.full_frames_since_ts
                for nid, st in self._states.items()
            },
            "radio_activity": {
                nid: {
                    "tx": st.tx_seconds,
                    "rx": st.rx_seconds,
                    "quiet": st.quiet_seconds,
                }
                for nid, st in self._states.items()
            },
        }
        if self._faults is not None:
            metadata["faults"] = self._faults.describe()
        return DiscoveryResult(
            time_unit="seconds",
            coverage=dict(self._coverage),
            horizon=float(horizon),
            completed=completed,
            neighbor_tables={
                nid: st.protocol.neighbor_table.as_dict()
                for nid, st in self._states.items()
            },
            start_times={nid: st.start_real for nid, st in self._states.items()},
            network_params=self._network.parameter_summary(),
            metadata=metadata,
        )

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------

    def _schedule(
        self, time: float, action: Callable[[Any], None], arg: Any
    ) -> None:
        """Queue ``action(arg)`` at ``time``.

        Raises:
            SimulationError: If ``time`` precedes the current time by
                more than 1e-12 — scheduling into the past means the
                model is broken. Smaller gaps are clamped to now.
        """
        if time < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule an event at {time} before now {self._now}"
            )
        heapq.heappush(
            self._heap, (max(time, self._now), next(self._seq), action, arg)
        )

    def _run_events(self, until: Optional[float]) -> float:
        """Run events in ``(time, seq)`` order until the heap empties, a
        stop is requested, or the next event lies after ``until``;
        return the time the run stopped at."""
        heap = self._heap
        pop = heapq.heappop
        while heap and not self._stop_requested:
            if until is not None and heap[0][0] > until:
                return until
            time, _, action, arg = pop(heap)
            self._now = time
            action(arg)
        return self._now

    # ------------------------------------------------------------------
    # frame lifecycle
    # ------------------------------------------------------------------

    def _begin_frame(self, nid: int) -> None:
        state = self._states[nid]
        k = state.frame_index
        base = state.local_start + k * self._L
        to_real = state.clock.real_from_local
        bounds = [to_real(base + off) for off in self._slot_offsets]
        if k == 0:
            # The first frame begins when the node starts. Inverting the
            # clock at its start can land before it: bisected inverses
            # stop at a relative tolerance, exact ones lose an ulp.
            bounds[0] = state.start_real
        state.frame_start = bounds[0]
        if (
            self._faults is not None
            and self._faults.crash_time(nid) <= bounds[0] + 1e-12
        ):
            self._halt_crashed_node(state)
            return
        channel: Optional[int]
        if state.draws is not None:
            transmit, channel = next(state.draws)
            mode = Mode.TRANSMIT if transmit else Mode.LISTEN
        else:
            decision = state.protocol.decide_frame(k)
            mode, channel = decision.mode, decision.channel
            if mode is Mode.TRANSMIT and channel not in state.protocol.channels:
                raise SimulationError(
                    f"node {nid} transmitted on unavailable channel {channel}"
                )

        frame_duration = bounds[-1] - bounds[0]
        if mode is Mode.TRANSMIT:
            state.tx_seconds += frame_duration
            assert channel is not None
            self._register_slots(nid, channel, bounds)
        elif mode is Mode.LISTEN:
            state.rx_seconds += frame_duration
            assert channel is not None
            state.listening_channel = channel
            state.listen_start = bounds[0]
            state.listen_end = bounds[-1]
            self._listeners_on.setdefault(channel, set()).add(nid)
        else:
            # QUIET frames: transceiver off, nothing to register.
            state.quiet_seconds += frame_duration

        if self._trace is not None:
            self._trace.add_frame(
                FrameRecord(
                    node_id=nid,
                    frame_index=k,
                    start=bounds[0],
                    end=bounds[-1],
                    slot_bounds=tuple(bounds),
                    mode=mode,
                    channel=channel,
                )
            )

        self._schedule(bounds[-1], self._end_frame, nid)

    def _register_slots(self, nid: int, channel: int, bounds: List[float]) -> None:
        """Put a transmitting frame's slots on the air and schedule
        their ends."""
        on_air = self._on_air.setdefault(channel, deque())
        # A pending slot ends at or after now and lasts at most the
        # longest slot so far, and a slot registered from now on starts
        # at about now: none can overlap an entry that ended by the cutoff.
        cutoff = self._now - self._longest_slot
        while on_air and on_air[0].end <= cutoff:
            on_air.popleft()
        for start, end in zip(bounds, bounds[1:]):
            if self._faults is not None and self._faults.blocked_during(
                nid, channel, start, end
            ):
                # The transmitter senses the blocker (PU / jammer)
                # during this slot and defers; the slot is wasted.
                continue
            if end <= start:
                raise SimulationError(
                    f"transmission by {nid} has non-positive duration [{start}, {end}]"
                )
            slot = _Slot(nid, channel, start, end)
            on_air.append(slot)
            self._longest_slot = max(self._longest_slot, end - start)
            self._schedule(end, self._end_slot, slot)

    def _halt_crashed_node(self, state: _NodeState) -> None:
        """Crash-stop: the node schedules no further frames. If it had
        not yet met a frame budget it never will, so the frame-budget
        stopping rule must stop counting on it."""
        assert self._stopping is not None
        budget = self._stopping.max_frames_per_node
        if budget is not None and state.full_frames_since_ts < budget:
            self._nodes_short_of_frames -= 1
            if self._nodes_short_of_frames == 0:
                self._stop_requested = True

    def _end_frame(self, nid: int) -> None:
        state = self._states[nid]
        if state.listening_channel is not None:
            listeners = self._listeners_on.get(state.listening_channel)
            if listeners is not None:
                listeners.discard(nid)
            state.listening_channel = None

        if state.frame_start >= self._t_s - 1e-12:
            state.full_frames_since_ts += 1
            assert self._stopping is not None
            budget = self._stopping.max_frames_per_node
            if (
                budget is not None
                and state.full_frames_since_ts == budget
            ):
                self._nodes_short_of_frames -= 1
                if self._nodes_short_of_frames == 0:
                    self._stop_requested = True
                    return

        state.frame_index += 1
        self._begin_frame(nid)

    # ------------------------------------------------------------------
    # reception
    # ------------------------------------------------------------------

    def _end_slot(self, slot: _Slot) -> None:
        channel = slot.channel
        listeners = self._listeners_on.get(channel)
        if not listeners:
            return
        rivals: Optional[Set[int]] = None
        for u in listeners:
            state = self._states[u]
            audible = self._hears_on[u].get(channel, frozenset())
            if slot.sender not in audible:
                continue
            if channel not in state.protocol.channels:
                # Listener registration guarantees this, but keep the
                # model check: u only tunes to channels in A(u).
                raise SimulationError(
                    f"node {u} listening on unavailable channel {channel}"
                )
            if not (
                state.listen_start <= slot.start + 1e-12
                and slot.end <= state.listen_end + 1e-12
            ):
                continue  # slot not wholly inside u's listening frame
            if rivals is None:
                # Other senders whose slots strictly overlap this one.
                rivals = {
                    other.sender
                    for other in self._on_air[channel]
                    if other.sender != slot.sender
                    and other.start < slot.end
                    and slot.start < other.end
                }
            if rivals and not rivals.isdisjoint(audible):
                continue  # collision at u
            if self._faults is not None and self._faults.blocked_during(
                u, channel, slot.start, slot.end
            ):
                continue  # u hears only the blocker's signal
            if (
                self._erasure_prob > 0.0
                and self._erasure_rng.random() < self._erasure_prob
            ):
                continue
            if (
                self._faults is not None
                and self._faults.has_loss
                and not self._faults.keep_delivery(
                    slot.sender, u, slot.end, self._erasure_rng
                )
            ):
                continue
            state.protocol.on_receive(
                self._hellos[slot.sender], float(state.frame_index), channel
            )
            key = (slot.sender, u)
            if self._coverage.get(key, 0.0) is None:
                self._coverage[key] = slot.end
                self._uncovered -= 1
                assert self._stopping is not None
                if self._stopping.stop_on_full_coverage and self._uncovered == 0:
                    self._stop_requested = True
