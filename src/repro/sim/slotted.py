"""Reference synchronous slotted engine (paper §II, synchronous model).

Execution is a sequence of globally synchronized time slots. Each slot,
every started node declares a :class:`~repro.core.base.SlotDecision`
(transmit / listen / quiet on one channel); the engine then resolves
receptions with the paper's collision semantics:

* a listener ``u`` tuned to channel ``c`` hears a *clear* hello iff
  exactly one of the nodes it can hear transmitted on ``c`` that slot;
* two or more such transmissions collide at ``u`` — it hears only noise
  and (lacking collision detection) learns nothing;
* a transmitting node receives nothing (half-duplex);
* transmissions on other channels are invisible to ``u``.

The engine supports per-node *start offsets* (variable start times,
§III-B): a node is quiet until its start slot, and its protocol
experiences local slot ``t − offset``.

An optional per-delivery erasure probability models unreliable channels
(paper §V(b) extension): even a collision-free hello is lost with
probability ``erasure_prob``, independently per (transmission, receiver).

This implementation favors clarity over speed; the numpy engine in
:mod:`repro.sim.batched` (one trial: :mod:`repro.sim.fast_slotted`) is
the high-throughput twin and a test pins their statistical agreement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.base import Mode, SlotDecision, SynchronousProtocol
from ..core.messages import HelloMessage
from ..exceptions import ConfigurationError, SimulationError
from ..net.network import M2HeWNetwork
from .results import DiscoveryResult
from .rng import RngFactory
from .stopping import StoppingCondition
from .trace import ExecutionTrace, SlotRecord

if TYPE_CHECKING:  # imported lazily at runtime to keep sim/faults decoupled
    from ..faults.plan import FaultPlan

__all__ = ["ProtocolFactory", "SlottedSimulator"]

ProtocolFactory = Callable[[int, frozenset, np.random.Generator], SynchronousProtocol]


class SlottedSimulator:
    """Object-per-node synchronous discovery simulator.

    Args:
        network: The M2HeW network instance.
        protocol_factory: ``(node_id, channels, rng) -> protocol``.
        rng_factory: Source of per-node and engine random streams.
        start_offsets: Global slot at which each node starts; default 0
            for all (identical start times). Missing nodes default to 0.
        erasure_prob: Per-delivery loss probability (0 = reliable).
        trace: Optional :class:`ExecutionTrace` to record slot decisions.
        faults: Optional :class:`~repro.faults.plan.FaultPlan`; a
            trivial plan compiles away and leaves the run bit-identical
            to a fault-free one.
    """

    def __init__(
        self,
        network: M2HeWNetwork,
        protocol_factory: ProtocolFactory,
        rng_factory: RngFactory,
        start_offsets: Optional[Mapping[int, int]] = None,
        erasure_prob: float = 0.0,
        trace: Optional[ExecutionTrace] = None,
        faults: Optional["FaultPlan"] = None,
    ) -> None:
        if not 0.0 <= erasure_prob < 1.0:
            raise ConfigurationError(
                f"erasure_prob must be in [0, 1), got {erasure_prob}"
            )
        self._network = network
        self._rng_factory = rng_factory
        self._erasure_prob = erasure_prob
        self._erasure_rng = rng_factory.stream("erasure")
        self._trace = trace
        self._faults = None
        if faults is not None:
            from ..faults.runtime import compile_plan

            self._faults = compile_plan(
                faults, network, rng_factory, time_unit="slots"
            )

        offsets = dict(start_offsets or {})
        for nid in offsets:
            if nid not in network:
                raise ConfigurationError(f"start offset given for unknown node {nid}")
        self._offsets: Dict[int, int] = {}
        for nid in network.node_ids:
            offset = int(offsets.get(nid, 0))
            if offset < 0:
                raise ConfigurationError(
                    f"start offset of node {nid} must be >= 0, got {offset}"
                )
            if self._faults is not None:
                offset = max(offset, self._faults.join_offset(nid))
            self._offsets[nid] = offset

        self._protocols: Dict[int, SynchronousProtocol] = {}
        self._hellos: Dict[int, HelloMessage] = {}
        for nid in network.node_ids:
            protocol = protocol_factory(
                nid, network.channels_of(nid), rng_factory.node_stream(nid)
            )
            if protocol.node_id != nid:
                raise SimulationError(
                    f"protocol factory returned node id {protocol.node_id} "
                    f"for node {nid}"
                )
            self._protocols[nid] = protocol
            self._hellos[nid] = protocol.hello()

        # Per-channel hearing sets, precomputed for the hot loop. Only
        # transmissions from these nodes can be received by — or collide
        # at — the keyed node on the keyed channel (this also carries the
        # channel-dependent propagation extension for free).
        self._hears_on: Dict[int, Dict[int, frozenset]] = {
            nid: {
                c: network.hears_on(nid, c)
                for c in network.channels_of(nid)
            }
            for nid in network.node_ids
        }
        # Radio-activity counters (slots per mode), for energy accounting.
        self._activity: Dict[int, Dict[str, int]] = {
            nid: {"tx": 0, "rx": 0, "quiet": 0} for nid in network.node_ids
        }
        # Contention counters: listening slots that carried a collision
        # (>= 2 audible transmissions) or a clear hello, per receiver.
        # Note the receiver itself cannot tell collisions from silence.
        self._collisions: Dict[int, int] = {nid: 0 for nid in network.node_ids}
        self._clear_receptions: Dict[int, int] = {
            nid: 0 for nid in network.node_ids
        }

    @property
    def protocols(self) -> Dict[int, SynchronousProtocol]:
        """The per-node protocol instances (read-only use)."""
        return dict(self._protocols)

    def run(self, stopping: StoppingCondition) -> DiscoveryResult:
        """Execute slots until the stopping condition fires."""
        budget = stopping.require_slot_budget()
        coverage: Dict[Tuple[int, int], Optional[float]] = {
            link.key: None for link in self._network.links()
        }
        uncovered = sum(1 for t in coverage.values() if t is None)

        slots_executed = 0
        for t in range(budget):
            if stopping.stop_on_full_coverage and uncovered == 0:
                break
            uncovered -= self._run_slot(t, coverage)
            slots_executed = t + 1

        completed = all(t is not None for t in coverage.values())
        return DiscoveryResult(
            time_unit="slots",
            coverage=coverage,
            horizon=float(slots_executed),
            completed=completed,
            neighbor_tables={
                nid: proto.neighbor_table.as_dict()
                for nid, proto in self._protocols.items()
            },
            start_times={nid: float(off) for nid, off in self._offsets.items()},
            network_params=self._network.parameter_summary(),
            metadata=self._metadata(),
        )

    def _metadata(self) -> Dict[str, object]:
        metadata: Dict[str, object] = {
            "engine": "slotted-reference",
            "erasure_prob": self._erasure_prob,
            "radio_activity": {
                nid: dict(modes) for nid, modes in self._activity.items()
            },
            "collisions": dict(self._collisions),
            "clear_receptions": dict(self._clear_receptions),
        }
        if self._faults is not None:
            metadata["faults"] = self._faults.describe()
        return metadata

    def _run_slot(
        self,
        t: int,
        coverage: Dict[Tuple[int, int], Optional[float]],
    ) -> int:
        """Execute global slot ``t``; return how many links became covered."""
        transmitters_on: Dict[int, List[int]] = {}
        listeners: List[Tuple[int, int]] = []
        faults = self._faults
        if faults is not None:
            faults.begin_slot(t)

        for nid, protocol in self._protocols.items():
            offset = self._offsets[nid]
            if t < offset:
                continue
            if faults is not None and not faults.alive(nid, t):
                continue  # crash-stop: silent and frozen from here on
            decision = protocol.decide_slot(t - offset)
            if self._trace is not None:
                self._trace.add_slot(
                    SlotRecord(
                        node_id=nid,
                        global_slot=t,
                        local_slot=t - offset,
                        mode=decision.mode,
                        channel=decision.channel,
                    )
                )
            if decision.mode is Mode.TRANSMIT:
                assert decision.channel is not None
                if decision.channel not in protocol.channels:
                    raise SimulationError(
                        f"node {nid} transmitted on unavailable channel "
                        f"{decision.channel}"
                    )
                self._activity[nid]["tx"] += 1
                if faults is None or not faults.blocked(nid, decision.channel):
                    # A blocked transmitter senses the occupied channel
                    # and defers: the slot is spent, nothing goes on air.
                    transmitters_on.setdefault(decision.channel, []).append(nid)
            elif decision.mode is Mode.LISTEN:
                assert decision.channel is not None
                self._activity[nid]["rx"] += 1
                if faults is None or not faults.blocked(nid, decision.channel):
                    # A blocked listener hears only the blocker's signal.
                    listeners.append((nid, decision.channel))
            else:
                self._activity[nid]["quiet"] += 1

        newly_covered = 0
        for u, c in listeners:
            audible = self._hears_on[u].get(c, frozenset())
            senders = [v for v in transmitters_on.get(c, ()) if v in audible]
            if len(senders) != 1:
                if len(senders) > 1:
                    self._collisions[u] += 1
                continue  # silence or collision; u cannot tell which
            v = senders[0]
            self._clear_receptions[u] += 1
            if self._erasure_prob > 0.0 and self._erasure_rng.random() < self._erasure_prob:
                continue
            if (
                faults is not None
                and faults.has_loss
                and not faults.keep_delivery(v, u, float(t), self._erasure_rng)
            ):
                continue
            local_slot = t - self._offsets[u]
            self._protocols[u].on_receive(self._hellos[v], float(local_slot), c)
            if coverage.get((v, u)) is None:
                if (v, u) not in coverage:
                    raise SimulationError(
                        f"delivery on untracked link ({v}, {u}); "
                        "network link set is inconsistent"
                    )
                coverage[(v, u)] = float(t)
                newly_covered += 1
        return newly_covered
