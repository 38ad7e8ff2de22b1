"""The vectorized synchronous engine: one slot loop for one or many trials.

All three synchronous algorithms of the paper share one per-slot
template: *select a channel uniformly at random from* ``A(u)`` *and
transmit with probability* ``p(u, local_slot)``, *listening otherwise*
(Robust-ND's staged and flat variants use it too). This module runs that
template with numpy: decisions for every node are drawn with a few array
operations per slot and reception is resolved by
:class:`SparseReception`, giving orders of magnitude more slots per
second than the reference engine (:mod:`repro.sim.slotted`).

:class:`GridBatchedSimulator` advances ``R`` independent trial rows per
slot over flat row-major ``(R·N,)`` arrays. The rows come from ``G``
experiment cells (:class:`GridCell`: own schedule, start offsets,
erasure probability and fault plan; shared network and stopping
condition), each contributing a contiguous block of rows, so a whole
Δ_est/ρ/erasure/fault-preset sweep pays kernel setup and per-slot
Python dispatch once instead of once per spec point. Per-slot cost
scales with the slot's actual transmitters and audibility edges, never
O(R·C·N²), and memory stays O(R·(N + links)). One experiment's ``B``
seeded trials are one cell; the serial engine,
:class:`~repro.sim.fast_slotted.FastSlottedSimulator`, is the grid's
one-row form.

Determinism contract: rows are independent, and output is invariant to
``G`` and ``B``. Row ``r`` owns the ``"fast-engine"`` stream of its own
:class:`~repro.sim.rng.RngFactory` and draws from it exactly what a
one-row run of that trial draws (decision uniforms, channel picks,
erasure coins, loss coins, including every data-dependent skip), and
its fault plan compiles against that same factory. Every row's
:class:`~repro.sim.results.DiscoveryResult` is therefore byte-identical
however the trials were grouped, so results report one
``engine: slotted-fast`` label and archives never encode the grouping.
``tests/test_engine_goldens.py`` pins the bytes and
``tests/test_grid_engine.py`` / ``tests/test_batched_engine.py`` pin
the invariance.

Limitations (use the reference engine instead): protocols that pick
channels non-uniformly (universal sweep, deterministic scan) and
per-node hello bookkeeping (neighbor tables are reconstructed from link
coverage, which is equivalent because a clear hello from ``v`` always
carries ``A(v)``).

Pass ``profile=True`` to collect per-phase timings
(:class:`~repro.sim.profile.SlotProfiler`) via :meth:`profile`; the
default is a ``None`` profiler that costs the hot loop nothing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

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
    from ..faults.runtime import FaultRuntime

__all__ = [
    "FlatSchedule",
    "GridBatchedSimulator",
    "GridCell",
    "GrowingEstimateSchedule",
    "RepeatedStagedSchedule",
    "SparseReception",
    "StagedSchedule",
    "VectorSchedule",
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

    The object also holds the network's layout in node index order
    (``network.node_ids``), with dense channel ``k`` the ``k``-th
    smallest channel of the universal set:

    * ``sizes[i]`` is ``|A(u_i)|`` and node ``i``'s dense channels are
      ``chan_flat[chan_base[i] : chan_base[i] + sizes[i]]``, ascending,
      so a uniform pick ``j < sizes[i]`` maps to
      ``chan_flat[chan_base[i] + j]``;
    * ``starts[k·N + v] : starts[k·N + v] + degree[k·N + v]`` indexes
      the listeners that hear ``v`` on channel ``k`` in ``flat``;
    * link ``e`` of ``network.links()`` runs from node ``link_tx[e]``
      to node ``link_rx[e]``, and ``edge_link`` maps each ``flat``
      entry to the link it delivers on.
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

        # Audibility edges (channel k, transmitter v, listener i), one
        # group per chan_flat entry; sorting their codes lays out the CSR
        # by (k, v) with listeners ascending.
        heard = [network.neighbors_on(nid, c) for nid, cs in zip(ids, chans) for c in cs]
        group = np.fromiter(map(len, heard), dtype=np.int64, count=len(heard))
        tx = np.fromiter(
            map(index.__getitem__, chain.from_iterable(heard)),
            dtype=np.int64,
            count=int(group.sum()),
        )
        code = self.chan_flat.repeat(group) * n + tx
        code *= n
        code += np.arange(n).repeat(self.sizes).repeat(group)
        code.sort()
        self.flat = code % n
        segment = code // n
        self.degree = np.bincount(segment, minlength=num_dense * n)
        self.starts = np.zeros(num_dense * n, dtype=np.int64)
        np.cumsum(self.degree[:-1], out=self.starts[1:])

        # links() is sorted by (transmitter, receiver) id and node
        # indices follow sorted ids, so link codes tx·N + rx ascend.
        links = network.links()
        self.num_links = len(links)
        self.link_tx = np.fromiter(
            map(index.__getitem__, map(attrgetter("transmitter"), links)),
            dtype=np.int64,
            count=len(links),
        )
        self.link_rx = np.fromiter(
            map(index.__getitem__, map(attrgetter("receiver"), links)),
            dtype=np.int64,
            count=len(links),
        )
        segment %= n
        segment *= n
        segment += self.flat
        self.edge_link = (self.link_tx * n + self.link_rx).searchsorted(segment)

    def resolve(
        self, transmitters: np.ndarray, listen: np.ndarray, chan: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Who hears whom in one slot, over ``R`` trial rows.

        Args:
            transmitters: Ascending flat indices of the transmitting
                nodes; index ``r·N + i`` is node ``i`` of row ``r``.
            listen: Flat row-major ``(R·N,)`` mask of listening nodes
                (disjoint from ``transmitters``).
            chan: Same layout, each node's dense channel this slot.

        Returns:
            ``(collided, clear, keys)``: the ascending flat indices of
            listeners with two or more audible transmitters, those with
            exactly one, and, aligned with ``clear``, the coverage key
            ``r·L + e`` of the link ``e`` the clear reception arrived on
            (``L = num_links``). Ascending flat order is row by row in
            node order, the order deliveries are drawn in.
        """
        n = self.num_nodes
        # Method forms throughout: at a few transmitters per slot,
        # numpy's function wrappers cost more than the work itself.
        one_row = listen.size == n
        t_chan = chan[transmitters]
        # One row: a flat index is the node index, no row offsets.
        tv = transmitters if one_row else transmitters % n
        csr = t_chan * n
        csr += tv
        # Expand each transmitter's CSR segment into flat edge pointers.
        edge_counts = self.degree[csr]
        seg_ends = edge_counts.cumsum()
        total = int(seg_ends[-1]) if seg_ends.size else 0
        if total == 0:
            return _NONE, _NONE, _NONE
        first = self.starts[csr]
        first -= seg_ends
        first += edge_counts
        edges = first.repeat(edge_counts)
        edges += np.arange(total)
        # An edge's target stays in its transmitter's row and hears it
        # only when listening on the transmitter's channel.
        targets = self.flat[edges]
        if not one_row:
            targets += (transmitters - tv).repeat(edge_counts)
        audible = listen[targets]
        audible &= chan[targets] == t_chan.repeat(edge_counts)
        hit = targets[audible]
        if not hit.size:
            return _NONE, _NONE, _NONE
        counts = np.bincount(hit, minlength=listen.size)
        # Last-write-wins link scatter: exact wherever the count is
        # one, the only entries read back.
        link_at = np.empty(listen.size, dtype=np.int64)
        link_at[hit] = self.edge_link[edges[audible]]
        clear = (counts == 1).nonzero()[0]
        keys = link_at[clear]
        if not one_row:
            keys += clear // n * self.num_links
        return (counts > 1).nonzero()[0], clear, keys


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

        ``local_slots`` is ``(N,)`` for one row or ``(B, N)`` for a
        block of rows; the result broadcasts against the input shape.
        Entries for negative ``local_slots`` (not yet started nodes)
        may be arbitrary — the engine masks them out.
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


@dataclass(frozen=True)
class GridCell:
    """One experiment cell of a grid batch.

    A cell is everything that may differ between the spec points of a
    sweep while still sharing one kernel pass: the probability schedule,
    the per-trial seed factories, start offsets, the erasure probability
    and the fault plan. The network and the stopping condition are
    shared by the whole grid (callers group spec points accordingly).
    """

    schedule: VectorSchedule
    rng_factories: Sequence[RngFactory]
    start_offsets: Optional[Mapping[int, int]] = None
    erasure_prob: float = 0.0
    faults: Optional["FaultPlan"] = field(default=None)


def _raw_pick_verified(rng: np.random.Generator, size: int, n: int) -> bool:
    """Prove ``random_raw``-based picks replicate ``integers`` draws.

    Runs both draw disciplines on independent copies of ``rng``'s bit
    generator state (the live stream is never advanced) and accepts the
    fast path only if the values match *and* both copies end in the
    same state (checked behaviorally with a follow-up draw). Callers
    guarantee ``size`` is a power of two ≥ 2 and ``n`` is even.
    """
    bg = rng.bit_generator
    try:
        ref_bg = type(bg)(0)
        ref_bg.state = bg.state
        raw_bg = type(bg)(0)
        raw_bg.state = bg.state
    except (TypeError, ValueError):
        return False
    ref = np.random.Generator(ref_bg).integers(0, size, n)
    raw = raw_bg.random_raw(n // 2)
    shift = 32 - (size.bit_length() - 1)
    emulated = np.empty(n, dtype=np.int64)
    emulated[0::2] = (raw & 0xFFFFFFFF) >> shift
    emulated[1::2] = raw >> (32 + shift)
    if not bool((ref == emulated).all()):
        return False
    # Same end state ⇒ the next real draw stays aligned too.
    probe = np.random.Generator(ref_bg).random(4)
    return bool((probe == np.random.Generator(raw_bg).random(4)).all())


class GridBatchedSimulator:
    """Vectorized synchronous simulator for a grid of seeded trial rows.

    ``cells[g]`` contributes ``len(cells[g].rng_factories)`` consecutive
    rows; :meth:`run` returns results in row order and
    :attr:`cell_slices` maps them back to cells. Semantics per row are
    those of :class:`~repro.sim.slotted.SlottedSimulator` (same
    collision rules, start offsets, erasure and fault models); only the
    protocol representation differs — a :class:`VectorSchedule` instead
    of per-node protocol objects.
    """

    def __init__(
        self,
        network: M2HeWNetwork,
        cells: Sequence[GridCell],
        *,
        profile: bool = False,
    ) -> None:
        if not cells:
            raise ConfigurationError("grid needs at least one cell")
        self._network = network
        self._ids = network.node_ids
        index = {nid: i for i, nid in enumerate(self._ids)}
        n = len(self._ids)
        self._num_nodes = n
        self._profiler: Optional[SlotProfiler] = (
            SlotProfiler() if profile else None
        )

        # Row layout: cell g owns rows cell_slices[g] (contiguous).
        row = 0
        slices: List[slice] = []
        for cell in cells:
            if not cell.rng_factories:
                raise ConfigurationError("batch needs at least one RngFactory")
            if not 0.0 <= cell.erasure_prob < 1.0:
                raise ConfigurationError(
                    f"erasure_prob must be in [0, 1), got {cell.erasure_prob}"
                )
            if cell.schedule.num_nodes != n:
                raise ConfigurationError(
                    f"schedule covers {cell.schedule.num_nodes} nodes, "
                    f"network has {n}"
                )
            slices.append(slice(row, row + len(cell.rng_factories)))
            row += len(cell.rng_factories)
        self.cell_slices: List[slice] = slices
        batch = row
        self._batch = batch
        self._schedules = [cell.schedule for cell in cells]
        self._streams = [
            f.stream("fast-engine") for cell in cells for f in cell.rng_factories
        ]
        # Per-row erasure probability, kept as the caller's Python float
        # so result metadata reproduces it exactly.
        self._erasure_list: List[float] = [
            cell.erasure_prob for cell in cells for _ in cell.rng_factories
        ]

        # Fault plans realize independently per row, each against its
        # row's own factory. Rows whose plan is trivial (or absent) keep
        # a None runtime and skip every fault step.
        runtimes: List[Optional["FaultRuntime"]] = []
        for cell in cells:
            if cell.faults is None:
                runtimes.extend([None] * len(cell.rng_factories))
            else:
                from ..faults.runtime import compile_plan

                runtimes.extend(
                    compile_plan(cell.faults, network, factory, time_unit="slots")
                    for factory in cell.rng_factories
                )
        self._runtimes = runtimes

        # Per-row start offsets, late joins folded in.
        offsets = np.zeros((batch, n), dtype=np.int64)
        for cell, sl in zip(cells, slices):
            offsets[sl] = start_offset_vector(index, cell.start_offsets)
        for b, runtime in enumerate(runtimes):
            if runtime is not None:
                joins = [runtime.join_offset(nid) for nid in self._ids]
                np.maximum(offsets[b], joins, out=offsets[b])
        self._offsets = offsets
        # One schedule evaluation serves a cell whose rows share their
        # offsets (always, unless a future fault model draws per-trial
        # joins).
        self._cell_shared: List[Optional[np.ndarray]] = [
            offsets[sl][0] if bool((offsets[sl] == offsets[sl][0]).all()) else None
            for sl in slices
        ]

        kernel = SparseReception(network)
        self._kernel = kernel
        for runtime in runtimes:
            if runtime is not None:
                runtime.bind_dense(self._ids, kernel.dense_of_channel, kernel.num_dense)
        self._spectrum_rows = [
            (b, rt) for b, rt in enumerate(runtimes) if rt is not None and rt.has_spectrum
        ]
        self._loss_rows = [
            (b, rt) for b, rt in enumerate(runtimes) if rt is not None and rt.has_loss
        ]
        self._erasure_rows = [
            (b, p) for b, p in enumerate(self._erasure_list) if p > 0.0
        ]

        # Crash-stop instants stacked as (R·N,) (alive while t < crash).
        # The activity mask changes only up to the last start offset or
        # crash slot (and when a row completes), so it is cached after.
        self._crash: Optional[np.ndarray] = None
        settle = int(offsets.max())
        churn = [(b, rt) for b, rt in enumerate(runtimes) if rt is not None and rt.has_churn]
        if churn:
            crash = np.full((batch, n), np.inf)
            for b, rt in churn:
                crash[b] = [rt.crash_time(nid) for nid in self._ids]
            finite = crash[np.isfinite(crash)]
            if finite.size:
                settle = max(settle, int(np.ceil(finite.max())))
            self._crash = crash.reshape(-1)
        self._settle = settle

        # Result columns: link keys, and each receiver's (transmitter,
        # span) pairs grouped by receiver in links() order, which is the
        # insertion order neighbor tables report.
        ids = np.array(self._ids, dtype=np.int64)
        self._link_keys: List[Tuple[int, int]] = list(
            zip(ids[kernel.link_tx].tolist(), ids[kernel.link_rx].tolist())
        )
        by_rx = kernel.link_rx.argsort(kind="stable")
        links = network.links()
        self._by_rx = by_rx
        self._tx_by_rx: List[int] = ids[kernel.link_tx[by_rx]].tolist()
        self._span_by_rx: List[FrozenSet[int]] = [
            links[e].span for e in by_rx.tolist()
        ]
        self._rx_counts: List[int] = np.bincount(
            kernel.link_rx, minlength=n
        ).tolist()
        self._coverage_none: Dict[Tuple[int, int], Optional[float]] = (
            dict.fromkeys(self._link_keys)
        )

        # Flat (R·N,) per-slot arrays; row b is [b·N, (b+1)·N). Row
        # views are taken once so the per-row loops never slice.
        size = batch * n
        self._row_starts = np.arange(batch + 1) * n
        self._row_slices = [slice(b * n, (b + 1) * n) for b in range(batch)]
        self._tx_slots = np.zeros(size, dtype=np.int64)
        self._rx_slots = np.zeros(size, dtype=np.int64)
        self._collisions = np.zeros(size, dtype=np.int64)
        self._clear = np.zeros(size, dtype=np.int64)
        self._uni = np.empty(size, dtype=np.float64)
        self._uni_rows = [self._uni[sl] for sl in self._row_slices]
        self._transmit = np.empty(size, dtype=bool)
        self._listen = np.empty(size, dtype=bool)
        self._pick = np.zeros(size, dtype=np.int64)
        self._pick_rows = [self._pick[sl] for sl in self._row_slices]
        self._chan_base = np.tile(kernel.chan_base, batch)
        self._p_rows = np.empty((batch, n), dtype=np.float64)
        self._node_idx = np.arange(n)

        # Homogeneous |A(u)| lets channel picks use a scalar bound —
        # bitstream-identical to the array-bound call (numpy uses the
        # same masked-rejection draw; pinned by a test) but cheaper.
        sizes = kernel.sizes
        self._scalar_size: Optional[int] = (
            int(sizes[0]) if bool((sizes == sizes[0]).all()) else None
        )
        # Power-of-two scalar bounds admit an even cheaper pick: numpy's
        # Lemire draw maps each raw 64-bit word to two picks (top bits
        # of each 32-bit half, low half first) with no rejection, so
        # ``bit_generator.random_raw(N/2)`` replaces the ~4× costlier
        # ``Generator.integers`` call. Enabled only after a behavioral
        # proof on state copies — if a numpy upgrade ever changes the
        # draw discipline the gate falls back to ``integers`` and the
        # bitstream contract is preserved.
        self._raw_shift: Optional[int] = None
        if (
            self._scalar_size is not None
            and self._scalar_size >= 2
            and self._scalar_size & (self._scalar_size - 1) == 0
            and n % 2 == 0
            and _raw_pick_verified(self._streams[0], self._scalar_size, n)
        ):
            self._raw_shift = 32 - (self._scalar_size.bit_length() - 1)

    @property
    def batch_size(self) -> int:
        return self._batch

    def profile(self) -> Optional[Dict[str, Dict[str, float]]]:
        """Per-phase timing snapshot, or ``None`` when not profiling."""
        if self._profiler is None:
            return None
        return self._profiler.snapshot()

    def run(self, stopping: StoppingCondition) -> List[DiscoveryResult]:
        """Execute all rows; one result per row, in row order."""
        budget = stopping.require_slot_budget()
        batch = self._batch
        num_links = self._kernel.num_links
        cov = np.full(batch * num_links, -1.0)
        uncovered = np.full(batch, num_links, dtype=np.int64)
        slots_executed = np.full(batch, budget, dtype=np.int64)
        oracle = stopping.stop_on_full_coverage
        # Rows leave these when they complete.
        self._live_nodes = np.ones(batch * self._num_nodes, dtype=bool)
        self._spectrum_live = self._spectrum_rows

        # A linkless network is complete before the first slot: nothing
        # executes (zero draws, zero radio activity).
        if oracle and num_links == 0:
            slots_executed[:] = 0
        else:
            live = batch
            for t in range(budget):
                done = self._run_slot(t, cov, uncovered)
                if oracle and done is not None:
                    # A completed row executes no further slots.
                    slots_executed[done] = t + 1
                    finished = done.tolist()
                    for b in finished:
                        self._live_nodes[self._row_slices[b]] = False
                    self._spectrum_live = [
                        (b, rt) for b, rt in self._spectrum_live if b not in finished
                    ]
                    live -= len(finished)
                    if not live:
                        break
                    self._refresh_activity(t + 1)

        cov_rows = cov.reshape(batch, num_links)
        return [
            self._build_result(b, cov_rows[b], int(slots_executed[b]))
            for b in range(batch)
        ]

    def _refresh_activity(self, t: int) -> None:
        """Cache slot ``t``'s activity mask, per-row counts and active rows."""
        active = self._offsets.reshape(-1) <= t
        if self._crash is not None:
            active &= self._crash > t
        active &= self._live_nodes
        counts = active.reshape(self._batch, -1).sum(axis=1).tolist()
        self._active = active
        self._act_count: List[int] = counts
        self._act_rows = [b for b, c in enumerate(counts) if c]

    def _probabilities(self, t: int) -> np.ndarray:
        """Flat transmit probabilities for slot ``t``, one evaluation per cell."""
        rows = self._p_rows
        for sched, sl, shared in zip(self._schedules, self.cell_slices, self._cell_shared):
            p = sched.probabilities(t - (self._offsets[sl] if shared is None else shared))
            if self._batch == 1:
                # One row: the schedule's (N,) vector is the flat layout.
                return p
            rows[sl] = p
        return rows.reshape(-1)

    def _run_slot(
        self, t: int, cov: np.ndarray, uncovered: np.ndarray
    ) -> Optional[np.ndarray]:
        """Advance every live row one slot; return newly completed rows.

        Each early return laps the phase it leaves, so the profiler's
        phases account for every slot's time.
        """
        prof = self._profiler
        t0 = prof.start() if prof is not None else 0.0
        for _, runtime in self._spectrum_live:
            runtime.begin_slot(t)
        if t <= self._settle:
            self._refresh_activity(t)
        act_rows = self._act_rows
        if not act_rows:
            if prof is not None:
                prof.lap("schedule", t0)
            return None
        p = self._probabilities(t)
        if prof is not None:
            t0 = prof.lap("schedule", t0)

        # Decisions: each active row draws `random(N)` from its stream.
        streams = self._streams
        uni_rows = self._uni_rows
        for b in act_rows:
            streams[b].random(out=uni_rows[b])
        transmit = self._transmit
        listen = self._listen
        active = self._active
        np.less(self._uni, p, out=transmit)
        transmit &= active
        np.bitwise_xor(active, transmit, out=listen)
        self._tx_slots += transmit
        self._rx_slots += listen
        # Only a row with a transmitter and a listener draws channel
        # picks; its listeners are its active nodes not transmitting.
        senders = transmit.nonzero()[0]
        ends = senders.searchsorted(self._row_starts).tolist()
        act_count = self._act_count
        proceed = [b for b in act_rows if 0 < ends[b + 1] - ends[b] < act_count[b]]
        if not proceed:
            if prof is not None:
                prof.lap("rng", t0)
            return None
        pick_rows = self._pick_rows
        if self._raw_shift is not None:
            # Verified-equivalent raw-word form of the scalar
            # ``integers`` call below (see ``_raw_pick_verified``).
            shift = self._raw_shift
            half = self._num_nodes >> 1
            for b in proceed:
                raw = streams[b].bit_generator.random_raw(half)
                row = pick_rows[b]
                row[0::2] = (raw & 0xFFFFFFFF) >> shift
                row[1::2] = raw >> (32 + shift)
        elif self._scalar_size is not None:
            size, n = self._scalar_size, self._num_nodes
            for b in proceed:
                pick_rows[b][:] = streams[b].integers(0, size, n)
        else:
            sizes = self._kernel.sizes
            for b in proceed:
                pick_rows[b][:] = streams[b].integers(0, sizes)
        if prof is not None:
            t0 = prof.lap("rng", t0)
        # Rows that drew no picks this slot keep stale ones; they have
        # no transmitter or no listener, so reception ignores them.
        chan = self._kernel.chan_flat[self._chan_base + self._pick]

        if self._spectrum_live:
            # Suppress blocked transmitters (they sense the blocker and
            # defer) and blocked listeners (they hear only its signal);
            # the slots still count as spent radio activity above.
            blocked = False
            for b, runtime in self._spectrum_live:
                sl = self._row_slices[b]
                suppressed = runtime.blocked_mask()[self._node_idx, chan[sl]]
                if np.count_nonzero(suppressed):
                    np.invert(suppressed, out=suppressed)
                    transmit[sl] &= suppressed
                    listen[sl] &= suppressed
                    blocked = True
            if blocked:
                senders = transmit.nonzero()[0]
                if not senders.size:
                    if prof is not None:
                        prof.lap("channel", t0)
                    return None
        if prof is not None:
            t0 = prof.lap("channel", t0)

        collided, clear, keys = self._kernel.resolve(senders, listen, chan)
        if collided.size:
            self._collisions[collided] += 1
        if not clear.size:
            if prof is not None:
                prof.lap("reception", t0)
            return None
        self._clear[clear] += 1
        if prof is not None:
            t0 = prof.lap("reception", t0)

        # Erasure coins, then loss coins, from each row's own stream:
        # one draw call per row with clear receptions, in node order.
        if self._erasure_rows:
            ends = clear.searchsorted(self._row_starts).tolist()
            keep = np.ones(clear.size, dtype=bool)
            for b, prob in self._erasure_rows:
                lo, hi = ends[b], ends[b + 1]
                if lo < hi:
                    keep[lo:hi] = streams[b].random(hi - lo) >= prob
            clear, keys = clear[keep], keys[keep]
            if not clear.size:
                if prof is not None:
                    prof.lap("delivery", t0)
                return None
        if self._loss_rows:
            ends = clear.searchsorted(self._row_starts).tolist()
            keep = np.ones(clear.size, dtype=bool)
            num_links = self._kernel.num_links
            for b, runtime in self._loss_rows:
                lo, hi = ends[b], ends[b + 1]
                if lo < hi:
                    links = keys[lo:hi] - b * num_links
                    keep[lo:hi] = runtime.keep_mask(
                        self._kernel.link_tx[links],
                        self._kernel.link_rx[links],
                        float(t),
                        streams[b],
                    )
            keys = keys[keep]
            if not keys.size:
                if prof is not None:
                    prof.lap("delivery", t0)
                return None

        fresh = cov[keys] < 0
        if not np.count_nonzero(fresh):
            if prof is not None:
                prof.lap("delivery", t0)
            return None
        new = keys[fresh]
        cov[new] = float(t)
        covered = np.bincount(new // self._kernel.num_links, minlength=self._batch)
        uncovered -= covered
        rows = covered.nonzero()[0]
        done = rows[uncovered[rows] == 0]
        if prof is not None:
            prof.lap("delivery", t0)
        return done if done.size else None

    def _build_result(
        self, b: int, cov_row: np.ndarray, slots_executed: int
    ) -> DiscoveryResult:
        prof = self._profiler
        t0 = prof.start() if prof is not None else 0.0
        # Coverage in links() order and tables per receiver in links()
        # order, built by C-level iteration over the hoisted columns
        # (no per-link Python loop); an incomplete row touches only its
        # covered links.
        keys = self._link_keys
        times = cov_row.tolist()
        seen = cov_row >= 0
        completed = bool(seen.all())
        pairs: Iterator[Tuple[int, FrozenSet[int]]]
        if completed:
            coverage = dict(zip(keys, times))
            pairs = zip(self._tx_by_rx, self._span_by_rx)
            counts = self._rx_counts
        else:
            # A dict copy reuses the template's key hashes.
            coverage = self._coverage_none.copy()
            covered = seen.nonzero()[0].tolist()
            coverage.update(
                zip(map(keys.__getitem__, covered), map(times.__getitem__, covered))
            )
            grouped = seen[self._by_rx].nonzero()[0].tolist()
            pairs = zip(
                map(self._tx_by_rx.__getitem__, grouped),
                map(self._span_by_rx.__getitem__, grouped),
            )
            counts = np.bincount(
                self._kernel.link_rx[seen], minlength=self._num_nodes
            ).tolist()
        tables: Dict[int, Dict[int, FrozenSet[int]]] = {
            nid: dict(islice(pairs, k)) for nid, k in zip(self._ids, counts)
        }
        row = self._row_slices[b]
        # "slotted-fast" for every row: a grid row is defined to be
        # indistinguishable from a one-row run of the same trial, and
        # archives never record dispatch choices (same rule as
        # worker-count invariance in repro.sim.parallel).
        metadata: Dict[str, Any] = {
            "engine": "slotted-fast",
            "erasure_prob": self._erasure_list[b],
            "radio_activity": {
                nid: {"tx": tx, "rx": rx, "quiet": 0}
                for nid, tx, rx in zip(
                    self._ids,
                    self._tx_slots[row].tolist(),
                    self._rx_slots[row].tolist(),
                )
            },
            "collisions": dict(zip(self._ids, self._collisions[row].tolist())),
            "clear_receptions": dict(zip(self._ids, self._clear[row].tolist())),
        }
        runtime = self._runtimes[b]
        if runtime is not None:
            metadata["faults"] = runtime.describe()
        result = DiscoveryResult(
            time_unit="slots",
            coverage=coverage,
            horizon=float(slots_executed),
            completed=completed,
            neighbor_tables=tables,
            start_times=dict(
                zip(self._ids, self._offsets[b].astype(np.float64).tolist())
            ),
            network_params=self._network.parameter_summary(),
            metadata=metadata,
        )
        if prof is not None:
            prof.lap("result", t0)
        return result

