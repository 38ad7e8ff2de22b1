"""Vectorized synchronous engine (numpy twin of :mod:`repro.sim.slotted`).

All three synchronous algorithms of the paper share one per-slot
template: *select a channel uniformly at random from* ``A(u)`` *and
transmit with probability* ``p(u, local_slot)``, *listening otherwise*.
This engine exploits that: decisions for all nodes are drawn with a few
numpy operations per slot and receptions are resolved by
:class:`SparseReception`, giving orders of magnitude more slots per
second than the reference engine. A test pins the two engines'
statistical agreement.

:class:`SparseReception` is the one reception kernel of both vectorized
engines: this engine resolves one trial row per slot with it, and
:class:`~repro.sim.batched.GridBatchedSimulator` resolves all of its
rows in the same call.

The probability schedules live in :class:`VectorSchedule` subclasses —
one per algorithm — which compute ``p`` for all nodes at once (and
broadcast over a leading batch axis, see :mod:`repro.sim.batched`).

Limitations (use the reference engine instead): protocols that pick
channels non-uniformly (universal sweep, deterministic scan) and
per-node hello bookkeeping (neighbor tables are reconstructed from link
coverage, which is equivalent because a clear hello from ``v`` always
carries ``A(v)``).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.params import stage_length, validate_delta_est
from ..exceptions import ConfigurationError
from ..net.network import M2HeWNetwork
from .profile import SlotProfiler
from .results import DiscoveryResult
from .rng import RngFactory
from .stopping import StoppingCondition

if TYPE_CHECKING:  # imported lazily at runtime to keep sim/faults decoupled
    from ..faults.plan import FaultPlan

__all__ = [
    "SparseReception",
    "VectorSchedule",
    "StagedSchedule",
    "RepeatedStagedSchedule",
    "GrowingEstimateSchedule",
    "FlatSchedule",
    "FastSlottedSimulator",
    "start_offset_vector",
]

_NONE = np.empty(0, dtype=np.int64)
_NONE.setflags(write=False)


class SparseReception:
    """The collision rule of Algorithms 1–3, resolved for many rows at once.

    A listener on channel ``c`` hears ``v`` only when ``v`` is its
    single audible transmitter on ``c``. :meth:`resolve` applies that
    rule to ``R`` independent trial rows in one edge-centric scatter:
    it expands each transmitter's audibility edges, keeps those whose
    target listens on the transmitter's channel, and counts them per
    target with ``np.bincount``. Per-slot cost scales with the slot's
    actual transmitters and their edges plus ``R·N``, never
    ``R·C·N²``; all arithmetic is exact int64.

    The object also holds the network's (channel, node) layout in node
    index order (``network.node_ids``), with dense channel ``k`` the
    ``k``-th smallest channel of the universal set:

    * ``sizes[i]`` is ``|A(u_i)|`` and node ``i``'s dense channels are
      ``chan_flat[chan_base[i] : chan_base[i] + sizes[i]]``, ascending,
      so a uniform pick ``j < sizes[i]`` maps to
      ``chan_flat[chan_base[i] + j]``;
    * ``starts[k·N + v] : starts[k·N + v + 1]`` indexes the listeners
      that hear ``v`` on channel ``k`` in ``flat``.
    """

    def __init__(self, network: M2HeWNetwork) -> None:
        ids = network.node_ids
        index = {nid: i for i, nid in enumerate(ids)}
        universal = sorted(network.universal_channel_set)
        n = len(ids)
        num_dense = len(universal)
        self.num_nodes = n
        self.num_dense = num_dense
        self.dense_of_channel = {c: k for k, c in enumerate(universal)}

        chans = [sorted(network.channels_of(nid)) for nid in ids]
        self.sizes = np.array([len(cs) for cs in chans], dtype=np.int64)
        self.chan_base = np.zeros(n, dtype=np.int64)
        np.cumsum(self.sizes[:-1], out=self.chan_base[1:])
        self.chan_flat = np.array(
            [self.dense_of_channel[c] for cs in chans for c in cs], dtype=np.int64
        )

        listeners_of: List[List[int]] = [[] for _ in range(num_dense * n)]
        for k, c in enumerate(universal):
            for u, i in index.items():
                for v in network.neighbors_on(u, c):
                    listeners_of[k * n + index[v]].append(i)
        counts = np.array([len(ls) for ls in listeners_of], dtype=np.int64)
        self.starts = np.zeros(num_dense * n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.starts[1:])
        self.flat = np.empty(int(self.starts[-1]), dtype=np.int64)
        for j, ls in enumerate(listeners_of):
            self.flat[self.starts[j] : self.starts[j + 1]] = sorted(ls)

    def resolve(
        self, transmit: np.ndarray, listen: np.ndarray, chan: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Who hears whom in one slot, over ``R`` trial rows.

        Args:
            transmit: Flat row-major ``(R·N,)`` mask of transmitting
                nodes; entry ``r·N + i`` is node ``i`` of row ``r``.
            listen: Same layout, listening nodes (disjoint from
                ``transmit``).
            chan: Same layout, each node's dense channel this slot.

        Returns:
            ``(collided, clear, senders)``: the ascending flat indices
            of listeners with two or more audible transmitters, those
            with exactly one, and, aligned with ``clear``, that one
            transmitter's node index. Ascending flat order is row by
            row in node order, the order the serial loop delivers in.
        """
        n = self.num_nodes
        # Method forms throughout: at a few transmitters per slot,
        # numpy's function wrappers cost more than the work itself.
        tflat = transmit.nonzero()[0]
        t_chan = chan[tflat]
        # One row: a flat index is the node index, no row offsets.
        tv = tflat if transmit.size == n else tflat % n
        csr = t_chan * n
        csr += tv
        # Expand each transmitter's CSR segment into flat edge pointers.
        first = self.starts[csr]
        edge_counts = self.starts[csr + 1] - first
        seg_ends = edge_counts.cumsum()
        total = int(seg_ends[-1]) if seg_ends.size else 0
        if total == 0:
            return _NONE, _NONE, _NONE
        first -= seg_ends
        first += edge_counts
        shifts = first.repeat(edge_counts)
        shifts += np.arange(total)
        # An edge's target stays in its transmitter's row and hears it
        # only when listening on the transmitter's channel.
        targets = self.flat[shifts]
        if tv is not tflat:
            targets += (tflat - tv).repeat(edge_counts)
        audible = listen[targets]
        audible &= chan[targets] == t_chan.repeat(edge_counts)
        hit = targets[audible]
        if not hit.size:
            return _NONE, _NONE, _NONE
        counts = np.bincount(hit, minlength=listen.size)
        # Last-write-wins sender scatter: exact wherever the count is
        # one, the only entries read back.
        sender_at = np.empty(listen.size, dtype=np.int64)
        sender_at[hit] = tv.repeat(edge_counts)[audible]
        clear = (counts == 1).nonzero()[0]
        return (counts > 1).nonzero()[0], clear, sender_at[clear]


def start_offset_vector(
    index: Mapping[int, int], start_offsets: Optional[Mapping[int, int]]
) -> np.ndarray:
    """Per-node start slots in node-index order (absent nodes start at 0).

    Raises :class:`~repro.exceptions.ConfigurationError` for a negative
    offset or a node id outside ``index``, as every engine does.
    """
    offsets = np.zeros(len(index), dtype=np.int64)
    for nid, off in dict(start_offsets or {}).items():
        if nid not in index:
            raise ConfigurationError(f"start offset given for unknown node {nid}")
        if off < 0:
            raise ConfigurationError(
                f"start offset of node {nid} must be >= 0, got {off}"
            )
        offsets[index[nid]] = int(off)
    return offsets


class VectorSchedule(abc.ABC):
    """Per-node transmit probabilities, vectorized over nodes.

    ``sizes`` is the vector of ``|A(u)|`` in node-index order.
    """

    def __init__(self, sizes: np.ndarray) -> None:
        sizes = np.asarray(sizes, dtype=np.float64)
        if sizes.ndim != 1 or np.any(sizes < 1):
            raise ConfigurationError("sizes must be a 1-D vector of |A(u)| >= 1")
        self._sizes = sizes

    @property
    def num_nodes(self) -> int:
        return int(self._sizes.shape[0])

    @abc.abstractmethod
    def probabilities(self, local_slots: np.ndarray) -> np.ndarray:
        """``p(u, local_slots[u])`` for every node ``u`` at once.

        ``local_slots`` is ``(N,)`` for a single trial or ``(B, N)`` for
        a trial batch (:class:`~repro.sim.batched.
        BatchedSlottedSimulator`); the result broadcasts against the
        input shape. Entries for negative ``local_slots`` (not yet
        started nodes) may be arbitrary — the engine masks them out.
        """


class StagedSchedule(VectorSchedule):
    """Algorithm 1: ``p = min(1/2, |A(u)| / 2^i)``, ``i`` sweeping the stage."""

    def __init__(self, sizes: np.ndarray, delta_est: int) -> None:
        super().__init__(sizes)
        self._stage_len = stage_length(validate_delta_est(delta_est))

    def probabilities(self, local_slots: np.ndarray) -> np.ndarray:
        i = np.mod(np.maximum(local_slots, 0), self._stage_len) + 1
        return np.minimum(0.5, self._sizes / np.exp2(i))


class RepeatedStagedSchedule(VectorSchedule):
    """Robust staged sweep: each probability level held ``repeat`` slots.

    The vectorized twin of
    :class:`~repro.core.robust.RobustStagedDiscovery` — identical to
    :class:`StagedSchedule` except that level ``i`` of the geometric
    sweep occupies ``repeat`` consecutive slots, compensating assumed
    channel loss with immediate retries at the same level.
    """

    def __init__(self, sizes: np.ndarray, delta_est: int, repeat: int) -> None:
        super().__init__(sizes)
        if repeat < 1:
            raise ConfigurationError(f"repeat must be >= 1, got {repeat}")
        self._stage_len = stage_length(validate_delta_est(delta_est))
        self._repeat = int(repeat)

    def probabilities(self, local_slots: np.ndarray) -> np.ndarray:
        level = np.maximum(local_slots, 0) // self._repeat
        i = np.mod(level, self._stage_len) + 1
        return np.minimum(0.5, self._sizes / np.exp2(i))


class GrowingEstimateSchedule(VectorSchedule):
    """Algorithm 2: stages for estimates ``d = 2, 3, 4, …`` back to back.

    The (estimate, slot-in-stage) sequence is identical for all nodes, so
    it is computed once per slot and broadcast.
    """

    def __init__(self, sizes: np.ndarray) -> None:
        super().__init__(sizes)
        self._boundaries = [0]
        self._bounds_arr = np.asarray(self._boundaries)

    def _extend(self, local_slot: int) -> None:
        # The array form is rebuilt only when a new stage boundary is
        # actually appended — probabilities() runs once per slot, so a
        # per-call np.asarray over the whole list would dominate.
        if self._boundaries[-1] > local_slot:
            return
        while self._boundaries[-1] <= local_slot:
            d = 2 + len(self._boundaries) - 1
            self._boundaries.append(self._boundaries[-1] + stage_length(d))
        self._bounds_arr = np.asarray(self._boundaries)

    def probabilities(self, local_slots: np.ndarray) -> np.ndarray:
        clipped = np.maximum(local_slots, 0)
        self._extend(int(clipped.max(initial=0)))
        bounds = self._bounds_arr
        stage_idx = np.searchsorted(bounds, clipped, side="right") - 1
        i = clipped - bounds[stage_idx] + 1
        return np.minimum(0.5, self._sizes / np.exp2(i))


class FlatSchedule(VectorSchedule):
    """Algorithm 3: constant ``p = min(1/2, |A(u)| / Δ_est)``."""

    def __init__(self, sizes: np.ndarray, delta_est: int) -> None:
        super().__init__(sizes)
        self._p = np.minimum(0.5, self._sizes / float(validate_delta_est(delta_est)))
        # Handed out by reference every slot; a writable return would
        # let one caller silently corrupt every later slot's schedule.
        self._p.setflags(write=False)

    def probabilities(self, local_slots: np.ndarray) -> np.ndarray:
        return self._p


class FastSlottedSimulator:
    """Numpy-vectorized synchronous discovery simulator.

    Semantics are identical to :class:`~repro.sim.slotted.SlottedSimulator`
    (same collision rules, start offsets and erasure model); only the
    protocol representation differs — a :class:`VectorSchedule` instead
    of per-node protocol objects.
    """

    def __init__(
        self,
        network: M2HeWNetwork,
        schedule: VectorSchedule,
        rng_factory: RngFactory,
        start_offsets: Optional[Mapping[int, int]] = None,
        erasure_prob: float = 0.0,
        faults: Optional["FaultPlan"] = None,
        *,
        profile: bool = False,
    ) -> None:
        self._profiler: Optional[SlotProfiler] = (
            SlotProfiler() if profile else None
        )
        if not 0.0 <= erasure_prob < 1.0:
            raise ConfigurationError(
                f"erasure_prob must be in [0, 1), got {erasure_prob}"
            )
        self._faults = None
        if faults is not None:
            from ..faults.runtime import compile_plan

            self._faults = compile_plan(
                faults, network, rng_factory, time_unit="slots"
            )
        self._network = network
        self._ids = network.node_ids
        self._index = {nid: i for i, nid in enumerate(self._ids)}
        n = len(self._ids)
        if schedule.num_nodes != n:
            raise ConfigurationError(
                f"schedule covers {schedule.num_nodes} nodes, network has {n}"
            )
        self._schedule = schedule
        self._rng = rng_factory.stream("fast-engine")
        self._erasure_prob = erasure_prob

        self._offsets = start_offset_vector(self._index, start_offsets)
        if self._faults is not None:
            for i, nid in enumerate(self._ids):
                join = self._faults.join_offset(nid)
                if join > self._offsets[i]:
                    self._offsets[i] = join

        self._kernel = SparseReception(network)
        self._row_idx = np.arange(n)
        if self._faults is not None:
            self._faults.bind_dense(
                self._ids, self._kernel.dense_of_channel, self._kernel.num_dense
            )

        # Radio-activity counters (slots per mode), for energy accounting.
        self._tx_slots = np.zeros(n, dtype=np.int64)
        self._rx_slots = np.zeros(n, dtype=np.int64)
        # Contention counters per receiver (collision = >= 2 audible
        # simultaneous transmissions; clear = exactly 1, before erasure).
        self._collisions = np.zeros(n, dtype=np.int64)
        self._clear = np.zeros(n, dtype=np.int64)

        # Coverage times indexed [tx, rx]; -1 = not yet covered. Link
        # columns (keys, endpoints, spans, coverage gather indices) are
        # hoisted once so result building never walks DirectedLink
        # properties in a per-link Python loop — at large N that loop
        # cost more than the entire slot kernel.
        self._is_link = np.zeros((n, n), dtype=bool)
        links = network.links()
        self._links = links
        self._link_keys: List[Tuple[int, int]] = [link.key for link in links]
        self._link_tx: List[int] = [link.transmitter for link in links]
        self._link_rx: List[int] = [link.receiver for link in links]
        self._link_spans = [link.span for link in links]
        self._link_tx_idx = np.array(
            [self._index[link.transmitter] for link in links], dtype=np.int64
        )
        self._link_rx_idx = np.array(
            [self._index[link.receiver] for link in links], dtype=np.int64
        )
        self._is_link[self._link_tx_idx, self._link_rx_idx] = True

    def run(self, stopping: StoppingCondition) -> DiscoveryResult:
        """Execute slots until the stopping condition fires."""
        budget = stopping.require_slot_budget()
        n = len(self._ids)
        cov = np.full((n, n), -1.0)
        uncovered = int(self._is_link.sum())
        slots_executed = 0

        for t in range(budget):
            if stopping.stop_on_full_coverage and uncovered == 0:
                break
            uncovered -= self._run_slot(t, cov)
            slots_executed = t + 1

        return self._build_result(cov, slots_executed)

    def _run_slot(self, t: int, cov: np.ndarray) -> int:
        n = len(self._ids)
        prof = self._profiler
        p0 = prof.start() if prof is not None else 0.0
        active = self._offsets <= t
        faults = self._faults
        if faults is not None:
            faults.begin_slot(t)
            if faults.has_churn:
                active = active & faults.alive_mask(t)
        if not active.any():
            return 0
        local = t - self._offsets
        p = self._schedule.probabilities(local)
        if prof is not None:
            p0 = prof.lap("schedule", p0)

        transmit = (self._rng.random(n) < p) & active
        listen = active & ~transmit
        self._tx_slots += transmit
        self._rx_slots += listen
        if not transmit.any() or not listen.any():
            return 0

        kernel = self._kernel
        pick = self._rng.integers(0, kernel.sizes)
        if prof is not None:
            p0 = prof.lap("rng", p0)
        chan = kernel.chan_flat[kernel.chan_base + pick]
        if faults is not None and faults.has_spectrum:
            # Suppress blocked transmitters (they sense the blocker and
            # defer) and blocked listeners (they hear only its signal);
            # the slots still count as spent radio activity above.
            suppressed = faults.blocked_mask()[self._row_idx, chan]
            if suppressed.any():
                transmit = transmit & ~suppressed
                listen = listen & ~suppressed
                if not transmit.any() or not listen.any():
                    return 0

        if prof is not None:
            p0 = prof.lap("channel", p0)
        collided, receivers, senders = kernel.resolve(transmit, listen, chan)
        self._collisions[collided] += 1
        self._clear[receivers] += 1
        if prof is not None:
            p0 = prof.lap("reception", p0)
        if not receivers.size:
            return 0
        if self._erasure_prob > 0.0:
            keep = self._rng.random(receivers.size) >= self._erasure_prob
            receivers, senders = receivers[keep], senders[keep]
            if receivers.size == 0:
                return 0
        if faults is not None and faults.has_loss:
            keep = faults.keep_mask(senders, receivers, float(t), self._rng)
            receivers, senders = receivers[keep], senders[keep]
            if receivers.size == 0:
                return 0
        fresh = cov[senders, receivers] < 0
        if not fresh.any():
            if prof is not None:
                prof.lap("delivery", p0)
            return 0
        cov[senders[fresh], receivers[fresh]] = float(t)
        covered = int(fresh.sum())
        if prof is not None:
            prof.lap("delivery", p0)
        return covered

    def profile(self) -> Optional[Dict[str, Dict[str, float]]]:
        """Per-phase timing snapshot, or ``None`` when not profiling."""
        if self._profiler is None:
            return None
        return self._profiler.snapshot()

    def _build_result(self, cov: np.ndarray, slots_executed: int) -> DiscoveryResult:
        prof = self._profiler
        p0 = prof.start() if prof is not None else 0.0
        # Gather the per-link coverage row once, then build every dict
        # via zip over .tolist() — identical contents and insertion
        # order to the historical per-link property loop.
        cov_row = cov[self._link_tx_idx, self._link_rx_idx]
        times = cov_row.tolist()
        coverage: Dict[Tuple[int, int], Optional[float]] = dict(
            zip(
                self._link_keys,
                [None if cov_t < 0 else cov_t for cov_t in times],
            )
        )
        tables: Dict[int, Dict[int, frozenset]] = {nid: {} for nid in self._ids}
        link_rx = self._link_rx
        link_tx = self._link_tx
        link_spans = self._link_spans
        for e_i in np.flatnonzero(cov_row >= 0).tolist():
            tables[link_rx[e_i]][link_tx[e_i]] = link_spans[e_i]
        completed = bool((cov_row >= 0).all())
        metadata: Dict[str, object] = {
            "engine": "slotted-fast",
            "erasure_prob": self._erasure_prob,
            "radio_activity": {
                nid: {"tx": tx, "rx": rx, "quiet": 0}
                for nid, tx, rx in zip(
                    self._ids,
                    self._tx_slots.tolist(),
                    self._rx_slots.tolist(),
                )
            },
            "collisions": dict(zip(self._ids, self._collisions.tolist())),
            "clear_receptions": dict(zip(self._ids, self._clear.tolist())),
        }
        if self._faults is not None:
            metadata["faults"] = self._faults.describe()
        result = DiscoveryResult(
            time_unit="slots",
            coverage=coverage,
            horizon=float(slots_executed),
            completed=completed,
            neighbor_tables=tables,
            start_times=dict(
                zip(self._ids, self._offsets.astype(np.float64).tolist())
            ),
            network_params=self._network.parameter_summary(),
            metadata=metadata,
        )
        if prof is not None:
            prof.lap("result", p0)
        return result
