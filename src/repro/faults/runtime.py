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
* the vectorized grid engine (:mod:`repro.sim.batched`) calls
  :meth:`bind_dense` once per row, reads :meth:`join_offset` and
  :meth:`crash_time` at construction, then per slot
  :meth:`begin_slot`, :meth:`blocked_mask` and :meth:`keep_mask`;
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

__all__ = ["FaultRuntime", "GlitchedClock", "TIME_UNITS", "compile_plan"]

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

        # Spectrum state cache for the slot-synchronous engines.
        self._active_flags = [False] * len(self._emitters)
        self._mask_dirty = True
        self._events: List[Dict[str, Any]] = []
        self._events_dropped = 0

        # Populated by bind_dense (vectorized engine only).
        self._bound_ids: Optional[List[int]] = None
        self._bound_rows: List[Optional[Tuple[int, np.ndarray]]] = []
        self._mask: Optional[np.ndarray] = None

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

    def begin_slot(self, t: int) -> None:
        """Advance spectrum state to slot ``t``; log on/off transitions."""
        if not self.has_spectrum:
            return
        now = float(t)
        for i, emitter in enumerate(self._emitters):
            on = emitter.timeline.active_at(now)
            if on != self._active_flags[i]:
                self._active_flags[i] = on
                self._mask_dirty = True
                self._log_event(now, emitter, on)

    def blocked(self, node_id: int, channel: int) -> bool:
        """Whether ``(node, channel)`` is unusable in the current slot."""
        for emitter, on in zip(self._emitters, self._active_flags):
            if on and emitter.channel == channel and emitter.affects(node_id):
                return True
        return False

    def bind_dense(
        self,
        node_ids: Sequence[int],
        dense_of_channel: Mapping[int, int],
        num_dense: int,
    ) -> None:
        """Prepare vectorized views for the grid engine's node/channel
        indexing (row = node index, column = dense channel index)."""
        ids = list(node_ids)
        index = {nid: i for i, nid in enumerate(ids)}
        self._bound_ids = ids
        self._bound_rows = []
        for emitter in self._emitters:
            k = dense_of_channel.get(emitter.channel)
            if k is None:
                self._bound_rows.append(None)
                continue
            if emitter.nodes is None:
                rows = np.arange(len(ids), dtype=np.int64)
            else:
                rows = np.array(
                    sorted(index[n] for n in emitter.nodes if n in index),
                    dtype=np.int64,
                )
            self._bound_rows.append((k, rows))
        self._mask = np.zeros((len(ids), num_dense), dtype=bool)
        self._mask_dirty = True

    def blocked_mask(self) -> np.ndarray:
        """Boolean ``(num_nodes, num_dense)`` blocked matrix for the
        current slot (requires :meth:`bind_dense`)."""
        if self._mask is None:
            raise ConfigurationError(
                "blocked_mask requires bind_dense (vectorized engine only)"
            )
        if self._mask_dirty:
            self._mask[:] = False
            for bound, on in zip(self._bound_rows, self._active_flags):
                if on and bound is not None:
                    k, rows = bound
                    self._mask[rows, k] = True
            self._mask_dirty = False
        return self._mask

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

    def keep_mask(
        self,
        sender_indices: np.ndarray,
        receiver_indices: np.ndarray,
        time: float,
        engine_rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorized loss hook for the grid engine (bound indices).

        Bernoulli models draw one batch of uniforms per call — the
        legacy ``erasure_prob`` shape exactly; link-state models draw
        per still-kept delivery in array order.
        """
        if self._bound_ids is None:
            raise ConfigurationError(
                "keep_mask requires bind_dense (vectorized engine only)"
            )
        count = int(receiver_indices.size)
        keep = np.ones(count, dtype=bool)
        for loss in self._loss:
            if isinstance(loss, _BernoulliLossRuntime):
                keep &= engine_rng.random(count) >= loss.p
            else:
                for j in range(count):
                    if keep[j]:
                        keep[j] = loss.keep(
                            self._bound_ids[int(sender_indices[j])],
                            self._bound_ids[int(receiver_indices[j])],
                            time,
                            engine_rng,
                        )
        return keep

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
