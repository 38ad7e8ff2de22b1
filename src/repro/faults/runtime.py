"""Per-trial realization of a :class:`~repro.faults.plan.FaultPlan`.

:func:`compile_plan` turns a plan into a :class:`FaultRuntime` for one
trial — or into ``None`` when the plan is trivial, in which case the
engines follow their fault-free code path untouched (the zero-intensity
invariance the tests pin at archive-byte level).

Determinism contract: every random element of a runtime draws from a
dedicated, stably named stream of the trial's
:class:`~repro.sim.rng.RngFactory` (``"faults-jam-…"``, ``"faults-pu-…"``,
``"faults-ge-…"``, ``"faults-glitch-…"``). Streams are keyed by model
index within the plan plus entity (channel / user / node), never by
query order, so trajectories are identical wherever the trial runs.
Loss models are the one deliberate exception: :class:`BernoulliLoss`
draws from the *engine's* erasure stream in exactly the legacy pattern,
which is what makes a Bernoulli-only plan bit-identical to the engines'
``erasure_prob`` parameter.

Engine integration surface (all cheap no-ops for absent families):

* the reference slotted engine calls :meth:`FaultRuntime.begin_slot`
  once per slot, then :meth:`blocked`, :meth:`alive`,
  :meth:`join_offset` and :meth:`keep_delivery`;
* the vectorized grid engine (:mod:`repro.sim.batched`) reads
  :meth:`join_offset` and :meth:`crash_time` of each row's runtime at
  construction and consults all of its rows at once through one
  :class:`StackedFaults`: :meth:`StackedFaults.begin_block` once per
  block of slots (a block ends before the next spectrum change any live
  row may see) and :meth:`StackedFaults.keep` once per block with the
  block's clear deliveries;
* the asynchronous engine uses :meth:`blocked_during` (interval
  queries), :meth:`join_time`, :meth:`crash_time`, :meth:`wrap_clock`
  and :meth:`keep_delivery`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ClockModelError, ConfigurationError
from ..net.network import M2HeWNetwork
from ..sim.clock import Clock
from ..sim.rng import RngFactory
from .activity import OnOffTimeline, realize
from .models import (
    BernoulliLoss,
    ClockGlitch,
    DynamicPrimaryUsers,
    GilbertElliott,
    JammingBursts,
    NodeChurn,
)
from .plan import FaultPlan

__all__ = [
    "FaultRuntime",
    "GlitchedClock",
    "StackedFaults",
    "TIME_UNITS",
    "compile_plan",
]

#: Engine time units a runtime can be compiled for.
TIME_UNITS = ("slots", "seconds")

#: Cap on logged spectrum on/off events per trial (archives stay small;
#: the drop count is recorded alongside).
_EVENT_CAP = 200


class GlitchedClock(Clock):
    """A clock whose rate gains ``spike`` while a glitch timeline is on.

    ``C'(t) = C(t) + spike · on_time_before(t)`` — the base mapping plus
    the integral of the spike over glitch-on time. Strictly increasing
    because the combined drift bound stays below 1 (validated here).
    The inverse is computed by bisection, like
    :class:`~repro.sim.clock.SinusoidalDriftClock`.
    """

    def __init__(self, base: Clock, timeline: OnOffTimeline, spike: float) -> None:
        bound = base.drift_bound + abs(spike)
        if bound >= 1.0:
            raise ClockModelError(
                f"glitched clock drift bound {bound} >= 1 (base "
                f"{base.drift_bound} + |spike| {abs(spike)}); the clock "
                "would not be strictly increasing"
            )
        super().__init__(bound)
        self._base = base
        self._timeline = timeline
        self._spike = float(spike)

    def local_from_real(self, real: float) -> float:
        return (
            self._base.local_from_real(real)
            + self._spike * self._timeline.on_time_before(real)
        )

    def real_from_local(self, local: float) -> float:
        origin = self.local_from_real(0.0)
        if local < origin - 1e-9:
            raise ClockModelError(
                f"local time {local} precedes clock origin {origin}"
            )
        # Rate >= 1 − drift_bound > 0 brackets the root in [0, hi].
        hi = max(local - origin, 0.0) / (1.0 - self.drift_bound) + 1e-9
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.local_from_real(mid) < local:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * max(1.0, abs(local)):
                break
        return 0.5 * (lo + hi)


class _SpectrumEmitter:
    """One realized blocker: a channel, an affected node set, a timeline."""

    __slots__ = ("kind", "label", "channel", "nodes", "timeline")

    def __init__(
        self,
        kind: str,
        label: str,
        channel: int,
        nodes: Optional[frozenset],
        timeline: OnOffTimeline,
    ) -> None:
        self.kind = kind
        self.label = label
        self.channel = channel
        self.nodes = nodes  # None = affects every node
        self.timeline = timeline

    def affects(self, node_id: int) -> bool:
        return self.nodes is None or node_id in self.nodes


class _BernoulliLossRuntime:
    """Draws from the *engine's* erasure stream, legacy shapes exactly."""

    __slots__ = ("p",)

    def __init__(self, p: float) -> None:
        self.p = p

    def keep(
        self,
        sender: int,
        receiver: int,
        time: float,
        engine_rng: np.random.Generator,
    ) -> bool:
        return not engine_rng.random() < self.p


class _GilbertElliottRuntime:
    """Lazy per-link two-state chain, dedicated stream.

    State is advanced only at delivery instants using the exact chain
    transient ``P(bad at t+Δ) = π_b + (1{bad} − π_b)·e^{−(α+β)Δ}``; one
    uniform resolves the state, a second (skipped when the state's loss
    probability is 0) resolves the drop.
    """

    __slots__ = ("_model", "_rng", "_pi_bad", "_rate", "_states")

    def __init__(self, model: GilbertElliott, rng: np.random.Generator) -> None:
        self._model = model
        self._rng = rng
        self._pi_bad = model.stationary_bad
        self._rate = 1.0 / model.mean_good + 1.0 / model.mean_bad
        self._states: Dict[Tuple[int, int], Tuple[float, bool]] = {}

    def keep(
        self,
        sender: int,
        receiver: int,
        time: float,
        engine_rng: np.random.Generator,
    ) -> bool:
        link = (sender, receiver)
        previous = self._states.get(link)
        if previous is None:
            p_bad = self._pi_bad
        else:
            last_time, was_bad = previous
            decay = math.exp(-self._rate * (time - last_time))
            p_bad = self._pi_bad + ((1.0 if was_bad else 0.0) - self._pi_bad) * decay
        is_bad = bool(self._rng.random() < p_bad)
        self._states[link] = (float(time), is_bad)
        p_loss = self._model.p_bad if is_bad else self._model.p_good
        if p_loss <= 0.0:
            return True
        return not self._rng.random() < p_loss


class FaultRuntime:
    """One trial's realized fault trajectories (see module docstring).

    Build via :func:`compile_plan`; constructing a runtime for a trivial
    plan is an error — the engines rely on ``runtime is None`` to mean
    "fault-free path".
    """

    def __init__(
        self,
        plan: FaultPlan,
        network: M2HeWNetwork,
        rng_factory: RngFactory,
        time_unit: str,
    ) -> None:
        if time_unit not in TIME_UNITS:
            raise ConfigurationError(
                f"unknown time unit {time_unit!r}; choose from {TIME_UNITS}"
            )
        if plan.is_trivial:
            raise ConfigurationError(
                "trivial FaultPlan must not be compiled; compile_plan "
                "returns None for it"
            )
        self._plan = plan
        self._time_unit = time_unit
        self._rng_factory = rng_factory
        node_ids = set(network.node_ids)

        self._emitters: List[_SpectrumEmitter] = []
        self._loss: List[Any] = []
        self._glitches: List[Tuple[int, ClockGlitch]] = []
        self._joins: Dict[int, float] = {}
        self._crashes: Dict[int, float] = {}

        for m_idx, model in enumerate(plan.models):
            if model.is_trivial:
                continue
            if isinstance(model, JammingBursts):
                self._add_jamming(m_idx, model, network)
            elif isinstance(model, DynamicPrimaryUsers):
                self._add_primary_users(m_idx, model, network)
            elif isinstance(model, BernoulliLoss):
                self._loss.append(_BernoulliLossRuntime(model.p))
            elif isinstance(model, GilbertElliott):
                self._loss.append(
                    _GilbertElliottRuntime(
                        model, rng_factory.stream(f"faults-ge-{m_idx}")
                    )
                )
            elif isinstance(model, NodeChurn):
                self._add_churn(model, node_ids)
            elif isinstance(model, ClockGlitch):
                if model.nodes is not None:
                    unknown = [n for n in model.nodes if n not in node_ids]
                    if unknown:
                        raise ConfigurationError(
                            f"ClockGlitch targets unknown nodes {unknown}"
                        )
                self._glitches.append((m_idx, model))

        self.has_spectrum = bool(self._emitters)
        self.has_loss = bool(self._loss)
        self.has_churn = bool(self._joins or self._crashes)
        self.has_clock_faults = bool(self._glitches)

        # Spectrum state cache for the slot-synchronous engines: the
        # flags hold at every instant before _next_change.
        self._active_flags = [False] * len(self._emitters)
        self._next_change = -math.inf
        self._events: List[Dict[str, Any]] = []
        self._events_dropped = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _add_jamming(
        self, m_idx: int, model: JammingBursts, network: M2HeWNetwork
    ) -> None:
        universal = sorted(network.universal_channel_set)
        if model.channels is None:
            channels: Sequence[int] = universal
        else:
            unknown = [c for c in model.channels if c not in set(universal)]
            if unknown:
                raise ConfigurationError(
                    f"JammingBursts targets channels {unknown} outside the "
                    f"network's universal set {universal}"
                )
            channels = model.channels
        for c in channels:
            timeline = realize(
                model.activity,
                self._rng_factory.stream(f"faults-jam-{m_idx}-ch{c}"),
            )
            self._emitters.append(
                _SpectrumEmitter("jamming", f"jam-{m_idx}-ch{c}", c, None, timeline)
            )

    def _add_primary_users(
        self, m_idx: int, model: DynamicPrimaryUsers, network: M2HeWNetwork
    ) -> None:
        positions = {
            nid: network.node(nid).position for nid in network.node_ids
        }
        if all(p is None for p in positions.values()):
            raise ConfigurationError(
                "DynamicPrimaryUsers requires node positions (geometric "
                "topologies); this network has none"
            )
        for u_idx, user in enumerate(model.users):
            affected = frozenset(
                nid
                for nid, pos in positions.items()
                if pos is not None and user.blocks(pos)
            )
            timeline = realize(
                model.activity,
                self._rng_factory.stream(f"faults-pu-{m_idx}-{u_idx}"),
            )
            self._emitters.append(
                _SpectrumEmitter(
                    "primary_user",
                    f"pu-{m_idx}-{u_idx}",
                    user.channel,
                    affected,
                    timeline,
                )
            )

    def _add_churn(self, model: NodeChurn, node_ids: set) -> None:
        for nid, _ in model.joins + model.crashes:
            if nid not in node_ids:
                raise ConfigurationError(
                    f"NodeChurn references unknown node {nid}"
                )
        for nid, t in model.joins:
            self._joins[nid] = max(self._joins.get(nid, 0.0), t)
        for nid, t in model.crashes:
            self._crashes[nid] = min(self._crashes.get(nid, math.inf), t)

    # ------------------------------------------------------------------
    # spectrum — synchronous (slot) interface
    # ------------------------------------------------------------------

    def begin_slot(self, t: int) -> bool:
        """Advance spectrum state to slot ``t``; log on/off transitions.

        Slots must not decrease between calls. Until
        :attr:`next_spectrum_change` the state cannot change, so a call
        before that instant returns at once. Returns whether any emitter
        switched on or off.
        """
        if not self.has_spectrum or t < self._next_change:
            return False
        now = float(t)
        changed = False
        upcoming = math.inf
        for i, emitter in enumerate(self._emitters):
            on = emitter.timeline.active_at(now)
            if on != self._active_flags[i]:
                self._active_flags[i] = on
                changed = True
                self._log_event(now, emitter, on)
            upcoming = min(upcoming, emitter.timeline.next_change(now))
        self._next_change = upcoming
        return changed

    @property
    def next_spectrum_change(self) -> float:
        """The earliest instant after the last :meth:`begin_slot` at which
        any emitter may switch (``inf`` when none ever will)."""
        return self._next_change if self.has_spectrum else math.inf

    def blocked(self, node_id: int, channel: int) -> bool:
        """Whether ``(node, channel)`` is unusable in the current slot."""
        for emitter, on in zip(self._emitters, self._active_flags):
            if on and emitter.channel == channel and emitter.affects(node_id):
                return True
        return False

    # ------------------------------------------------------------------
    # spectrum — asynchronous (interval) interface
    # ------------------------------------------------------------------

    def blocked_during(
        self, node_id: int, channel: int, start: float, end: float
    ) -> bool:
        """Whether any blocker covers part of ``(start, end)`` on
        ``channel`` for ``node_id`` (asynchronous engine)."""
        if not self.has_spectrum:
            return False
        for emitter in self._emitters:
            if (
                emitter.channel == channel
                and emitter.affects(node_id)
                and emitter.timeline.overlaps_on(start, end)
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------

    def join_time(self, node_id: int) -> float:
        """Earliest time the node may start (0 when unaffected)."""
        return self._joins.get(node_id, 0.0)

    def join_offset(self, node_id: int) -> int:
        """:meth:`join_time` rounded up to a whole slot."""
        return int(math.ceil(self._joins.get(node_id, 0.0)))

    def crash_time(self, node_id: int) -> float:
        """Crash-stop instant (``inf`` when the node never crashes)."""
        return self._crashes.get(node_id, math.inf)

    def alive(self, node_id: int, time: float) -> bool:
        """Whether the node has not yet crashed at ``time``."""
        return time < self._crashes.get(node_id, math.inf)

    # ------------------------------------------------------------------
    # loss
    # ------------------------------------------------------------------

    def keep_delivery(
        self,
        sender: int,
        receiver: int,
        time: float,
        engine_rng: np.random.Generator,
    ) -> bool:
        """Whether a clear delivery survives every loss model."""
        for loss in self._loss:
            if not loss.keep(sender, receiver, time, engine_rng):
                return False
        return True

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------

    def wrap_clock(self, node_id: int, clock: Clock) -> Clock:
        """Apply every clock-glitch model targeting ``node_id``."""
        for m_idx, model in self._glitches:
            if model.nodes is not None and node_id not in model.nodes:
                continue
            timeline = realize(
                model.activity,
                self._rng_factory.stream(f"faults-glitch-{m_idx}-node{node_id}"),
            )
            clock = GlitchedClock(clock, timeline, model.spike)
        return clock

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def _log_event(self, time: float, emitter: _SpectrumEmitter, on: bool) -> None:
        if len(self._events) >= _EVENT_CAP:
            self._events_dropped += 1
            return
        self._events.append(
            {
                "time": time,
                "kind": emitter.kind,
                "entity": emitter.label,
                "channel": emitter.channel,
                "on": on,
            }
        )

    def describe(self) -> Dict[str, Any]:
        """JSON-ready record for result metadata: the plan plus the
        spectrum on/off events observed so far (synchronous engines)."""
        return {
            "plan": self._plan.describe(),
            "time_unit": self._time_unit,
            "events": [dict(e) for e in self._events],
            "events_dropped": self._events_dropped,
        }


class _BernoulliLayer:
    """Rows whose plan has a :class:`BernoulliLoss` at one position.

    Its coins come from each row's engine stream, one batch per row over
    every delivery the row got (the legacy ``erasure_prob`` shape), so
    the grid engine advances such rows one slot at a time.
    """

    def __init__(self, p: float, num_rows: int) -> None:
        self.p = p
        self.member = np.zeros(num_rows, dtype=bool)
        self.everyone = False

    def add(self, row: int, loss: _BernoulliLossRuntime) -> None:
        self.member[row] = True

    def apply(
        self,
        keep: np.ndarray,
        rows: Optional[np.ndarray],
        keys: np.ndarray,
        slots: Any,
        selected: Optional[np.ndarray],
        engines: Sequence[np.random.Generator],
    ) -> None:
        if rows is None:
            keep &= engines[0].random(keys.size) >= self.p
            return
        idx = np.arange(keys.size) if selected is None else selected.nonzero()[0]
        # One slot per call: deliveries ascend by row.
        of = rows[idx]
        cuts = (np.flatnonzero(of[1:] != of[:-1]) + 1).tolist()
        for lo, hi in zip([0] + cuts, cuts + [idx.size]):
            part = idx[lo:hi]
            keep[part] &= engines[int(of[lo])].random(hi - lo) >= self.p


class _GilbertElliottLayer:
    """Rows whose plan has one :class:`GilbertElliott` model at one position.

    Link state is stacked over coverage keys ``r·L + e``: ``_last`` holds
    the slot of the link's previous delivery (−1 before the first) and
    ``_bad`` the state drawn then. Each row's coins come from its own
    ``faults-ge-…`` stream in (slot, node) order, exactly the sequence
    :meth:`_GilbertElliottRuntime.keep` draws delivery by delivery.
    """

    def __init__(self, loss: _GilbertElliottRuntime, num_keys: int, num_rows: int) -> None:
        model = loss._model
        self._pi = loss._pi_bad
        self._rate = loss._rate
        self._p_good = model.p_good
        self._p_bad = model.p_bad
        # Both states draw a loss coin, so every delivery costs exactly
        # two coins and a block's coins can be drawn in one call.
        self._two_coins = model.p_good > 0.0 and model.p_bad > 0.0
        self.member = np.zeros(num_rows, dtype=bool)
        self.everyone = False
        self._rngs: Dict[int, np.random.Generator] = {}
        self._last = np.full(num_keys, -1, dtype=np.int64)
        self._bad = np.zeros(num_keys, dtype=bool)
        self._decay = np.empty(0)

    def add(self, row: int, loss: _GilbertElliottRuntime) -> None:
        self.member[row] = True
        self._rngs[row] = loss._rng

    def _decay_of(self, delta: np.ndarray) -> np.ndarray:
        """``math.exp(-rate·Δ)`` for integer gaps, from a growing table
        (``np.exp`` need not round like ``math.exp``)."""
        top = int(delta.max())
        if top >= self._decay.size:
            size = max(64, 1 << top.bit_length())
            grown = [math.exp(-self._rate * float(d)) for d in range(self._decay.size, size)]
            self._decay = np.concatenate([self._decay, np.array(grown)])
        return self._decay[delta]

    def apply(
        self,
        keep: np.ndarray,
        rows: Optional[np.ndarray],
        keys: np.ndarray,
        slots: Any,
        selected: Optional[np.ndarray],
        engines: Sequence[np.random.Generator],
    ) -> None:
        # Only deliveries every earlier loss model kept draw coins.
        idx = (keep if selected is None else selected & keep).nonzero()[0]
        if not idx.size:
            return
        rows = np.zeros(idx.size, dtype=np.int64) if rows is None else rows[idx]
        keys = keys[idx]
        slots = np.full(idx.size, slots) if np.ndim(slots) == 0 else slots[idx]
        # Per row in (slot, node) order: deliveries come slot-major.
        order = np.argsort(rows, kind="stable")
        if self._two_coins:
            keep[idx] = self._resolve_pairs(rows, keys, slots, order)
        else:
            keep[idx] = self._resolve_each(rows, keys, slots, order)

    def _resolve_pairs(
        self, rows: np.ndarray, keys: np.ndarray, slots: np.ndarray, order: np.ndarray
    ) -> np.ndarray:
        by_row = rows[order]
        cuts = (np.flatnonzero(np.diff(by_row)) + 1).tolist()
        coins = np.concatenate(
            [
                self._rngs[int(by_row[lo])].random(2 * (hi - lo))
                for lo, hi in zip([0] + cuts, cuts + [by_row.size])
            ]
        ).reshape(-1, 2)
        pairs = np.empty_like(coins)
        pairs[order] = coins
        kept = np.empty(keys.size, dtype=bool)
        # A link delivered on more than once resolves in occurrence
        # rounds: round o takes every link's o-th delivery, after the
        # state its (o−1)-th one left.
        by_key = np.argsort(keys, kind="stable")
        sorted_keys = keys[by_key]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        position = np.arange(keys.size)
        rank = np.empty(keys.size, dtype=np.int64)
        rank[by_key] = position - np.maximum.accumulate(np.where(first, position, 0))
        rounds = int(rank.max()) + 1
        for occurrence in range(rounds):
            sub = position if rounds == 1 else (rank == occurrence).nonzero()[0]
            key, slot = keys[sub], slots[sub]
            last = self._last[key]
            p_bad = np.full(sub.size, self._pi)
            seen = last >= 0
            if seen.any():
                was_bad = self._bad[key[seen]].astype(np.float64)
                p_bad[seen] = self._pi + (was_bad - self._pi) * self._decay_of(
                    slot[seen] - last[seen]
                )
            is_bad = pairs[sub, 0] < p_bad
            kept[sub] = ~(pairs[sub, 1] < np.where(is_bad, self._p_bad, self._p_good))
            self._last[key] = slot
            self._bad[key] = is_bad
        return kept

    def _resolve_each(
        self, rows: np.ndarray, keys: np.ndarray, slots: np.ndarray, order: np.ndarray
    ) -> np.ndarray:
        # A state whose loss probability is 0 draws no loss coin, so the
        # coin count depends on the drawn state: one delivery at a time.
        kept = np.empty(keys.size, dtype=bool)
        for i in order.tolist():
            key, slot = int(keys[i]), int(slots[i])
            rng = self._rngs[int(rows[i])]
            last = int(self._last[key])
            if last < 0:
                p_bad = self._pi
            else:
                decay = math.exp(-self._rate * float(slot - last))
                p_bad = self._pi + ((1.0 if self._bad[key] else 0.0) - self._pi) * decay
            is_bad = bool(rng.random() < p_bad)
            self._last[key] = slot
            self._bad[key] = is_bad
            p_loss = self._p_bad if is_bad else self._p_good
            kept[i] = True if p_loss <= 0.0 else not rng.random() < p_loss
        return kept


class StackedFaults:
    """Every row's :class:`FaultRuntime`, stacked for the grid engine.

    The grid engine (:mod:`repro.sim.batched`) lays ``R`` trial rows out
    flat: node ``i`` of row ``r`` is index ``r·N + i`` and link ``e`` of
    row ``r`` is coverage key ``r·L + e``. This view keeps the rows'
    spectrum and link-loss state over that layout, so the engine consults
    all rows with a few array operations per block of slots:

    * one ``(R·N·C)`` blocked mask, rewritten for a row only when one of
      its emitters switches (:meth:`begin_block`);
    * Gilbert–Elliott link state in ``(R·L)`` arrays, its coins drawn in
      one call per row per block from the row's own stream (:meth:`keep`).

    Rows and their random streams stay independent: row ``r`` draws
    exactly what its runtime's scalar hooks would draw for the same
    deliveries, so blocking never changes a row's trajectory. Bernoulli
    loss draws from the engine stream after reception, so rows that have
    it (:attr:`engine_rows`) must be advanced one slot per block.
    """

    def __init__(
        self,
        runtimes: Sequence[Optional[FaultRuntime]],
        node_ids: Sequence[int],
        dense_of_channel: Mapping[int, int],
        num_dense: int,
        num_links: int,
    ) -> None:
        index = {nid: i for i, nid in enumerate(node_ids)}
        n = len(node_ids)
        num_rows = len(runtimes)
        self._runtimes = runtimes
        self._num_links = num_links

        # Spectrum: each emitter as (dense channel, node indices).
        self._emitters: Dict[int, List[Optional[Tuple[int, np.ndarray]]]] = {}
        for r, runtime in enumerate(runtimes):
            if runtime is None or not runtime.has_spectrum:
                continue
            bound: List[Optional[Tuple[int, np.ndarray]]] = []
            for emitter in runtime._emitters:
                k = dense_of_channel.get(emitter.channel)
                if k is None:
                    bound.append(None)
                elif emitter.nodes is None:
                    bound.append((k, np.arange(n)))
                else:
                    nodes = sorted(index[nid] for nid in emitter.nodes if nid in index)
                    bound.append((k, np.array(nodes, dtype=np.int64)))
            self._emitters[r] = bound
        #: Rows with at least one spectrum emitter, ascending.
        self.spectrum_rows: List[int] = sorted(self._emitters)
        self._blocked = np.zeros(
            (num_rows if self._emitters else 0, n, num_dense), dtype=bool
        )
        self._on = [False] * num_rows
        #: ``gather_base[r·N + i] + k`` indexes (row r, node i, channel k)
        #: in the flat mask :meth:`begin_block` returns.
        self.gather_base = np.arange(num_rows * n) * num_dense

        # Loss: one layer per (position in the plan's loss list, model),
        # applied in position order, as each row's runtime applies them.
        layers: Dict[Tuple[int, Any], Any] = {}
        for r, runtime in enumerate(runtimes):
            for position, loss in enumerate(runtime._loss if runtime else ()):
                if isinstance(loss, _BernoulliLossRuntime):
                    key: Tuple[int, Any] = (position, loss.p)
                    if key not in layers:
                        layers[key] = _BernoulliLayer(loss.p, num_rows)
                else:
                    key = (position, loss._model)
                    if key not in layers:
                        layers[key] = _GilbertElliottLayer(
                            loss, num_rows * num_links, num_rows
                        )
                layers[key].add(r, loss)
        self._layers = [layers[key] for key in sorted(layers, key=lambda k: k[0])]
        for layer in self._layers:
            layer.everyone = bool(layer.member.all())
        # One row: every delivery is row 0's.
        self._many_rows = num_rows > 1
        #: Whether any row has a loss model.
        self.has_loss = bool(self._layers)
        #: Rows whose loss coins come from the engine stream.
        self.engine_rows = frozenset(
            r
            for layer in self._layers
            if isinstance(layer, _BernoulliLayer)
            for r in layer.member.nonzero()[0].tolist()
        )

    def begin_block(
        self, t: int, rows: Sequence[int]
    ) -> Tuple[float, Optional[np.ndarray]]:
        """Advance ``rows``' spectrum to slot ``t``.

        Returns the earliest instant after ``t`` at which any of those
        rows' spectrum may change, and the flat ``(R·N·C)`` blocked mask
        (see :attr:`gather_base`), or ``None`` while none of those rows
        has an emitter on.
        """
        upcoming = math.inf
        on = False
        for r in rows:
            runtime = self._runtimes[r]
            assert runtime is not None
            if runtime.begin_slot(t):
                self._paint(r, runtime)
            upcoming = min(upcoming, runtime.next_spectrum_change)
            on = on or self._on[r]
        return upcoming, (self._blocked.reshape(-1) if on else None)

    def _paint(self, r: int, runtime: FaultRuntime) -> None:
        mask = self._blocked[r]
        mask[:] = False
        on = False
        for bound, active in zip(self._emitters[r], runtime._active_flags):
            if active and bound is not None:
                k, nodes = bound
                mask[nodes, k] = True
                on = True
        self._on[r] = on

    def keep(
        self,
        keys: np.ndarray,
        slots: Any,
        engines: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Which clear deliveries survive every row's loss models.

        Args:
            keys: Coverage keys ``r·L + e`` of the deliveries, slot-major
                (slot, then row, then receiver, the order reception
                reports them in).
            slots: Each delivery's slot, or one slot for them all.
            engines: Each row's engine stream (Bernoulli coins).
        """
        rows = keys // self._num_links if self._many_rows else None
        keep = np.ones(keys.size, dtype=bool)
        for layer in self._layers:
            if layer.everyone:
                layer.apply(keep, rows, keys, slots, None, engines)
                continue
            selected = layer.member[rows]
            if selected.any():
                layer.apply(keep, rows, keys, slots, selected, engines)
        return keep


def compile_plan(
    plan: FaultPlan,
    network: M2HeWNetwork,
    rng_factory: RngFactory,
    time_unit: str,
) -> Optional[FaultRuntime]:
    """Realize ``plan`` for one trial; ``None`` when it changes nothing.

    Engines treat the ``None`` return as "no fault layer at all" — no
    extra draws, no extra metadata — which is what makes an empty or
    zero-intensity plan byte-identical to a fault-free run.
    """
    if not isinstance(plan, FaultPlan):
        raise ConfigurationError(
            f"compile_plan expects a FaultPlan, got {type(plan).__name__}"
        )
    if plan.is_trivial:
        return None
    return FaultRuntime(plan, network, rng_factory, time_unit)
