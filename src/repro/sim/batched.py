"""The vectorized synchronous engine: one slot loop for one or many trials.

All three synchronous algorithms of the paper share one per-slot
template: *select a channel uniformly at random from* ``A(u)`` *and
transmit with probability* ``p(u, local_slot)``, *listening otherwise*
(Robust-ND's staged and flat variants use it too). This module runs that
template with numpy: decisions for every node and a block of slots are
decoded with a few array operations and reception is resolved by
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
its fault plan compiles against that same factory. Blocks of slots
change only how those draws are decoded, never which ones are made.
Every row's
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
import math
import sys
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
from .draws import _HIGH, _LOW32, _prove_decode, _scalar_picks
from .profile import SlotProfiler
from .results import DiscoveryResult
from .rng import RngFactory
from .stopping import StoppingCondition

if TYPE_CHECKING:  # imported lazily at runtime to keep sim/faults decoupled
    from ..faults.plan import FaultPlan
    from ..faults.runtime import FaultRuntime, StackedFaults

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


#: Most slots one block advances (see :class:`GridBatchedSimulator`).
#: Blocks of any length give the same results; tests lower this to
#: compare block compositions.
_MAX_BLOCK = 64
#: Element budget of one block's ``(K, R·N)`` arrays: ``K·R·N`` stays at
#: or below it, which bounds the memory blocking adds.
_BLOCK_CELLS = 1 << 15

#: Most miss hypotheses one decode round tries (see ``_draw_block``).
_MAX_HYPOTHESES = 4


def _decode_proven(
    stream: np.random.Generator, sizes: np.ndarray
) -> Optional[Tuple[int, int]]:
    """Prove the block decode on a copy of ``stream``'s state
    (:func:`~repro.sim.draws._prove_decode`) over three slots of the
    engine's generator calls, ``random(N)`` then ``integers(0, sizes)``.

    Returns the live stream's pending spare half as ``(has_spare,
    spare)``, or ``None`` when the proof fails (the engine then keeps the
    generator calls, one slot per block).
    """
    return _prove_decode(stream, (("random", sizes.size), ("integers", sizes)) * 3)


class GridBatchedSimulator:
    """Vectorized synchronous simulator for a grid of seeded trial rows.

    ``cells[g]`` contributes ``len(cells[g].rng_factories)`` consecutive
    rows; :meth:`run` returns results in row order and
    :attr:`cell_slices` maps them back to cells. Semantics per row are
    those of :class:`~repro.sim.slotted.SlottedSimulator` (same
    collision rules, start offsets, erasure and fault models); only the
    protocol representation differs — a :class:`VectorSchedule` instead
    of per-node protocol objects.

    **Blocks.** The engine advances its live rows ``K`` slots per pass.
    That is legal because the schedules are oblivious: a node's transmit
    coin and channel pick in a slot depend on the slot and the row's own
    stream, never on what the node heard. So one raw-word draw per row
    covers ``K`` slots of decisions and picks. The decode speculates that
    every slot draws picks, accepts up to the first slot that did not
    (no transmitter or no listener) and parses on from there, all rows at
    once (:meth:`_draw_block`). The block's ``K·R`` virtual rows then go
    through one :meth:`SparseReception.resolve` call, and coverage,
    completion and counters are taken per row in slot order, masking out
    anything past a row's completion slot. ``K`` is the largest length
    that keeps ``K·R·N`` within a fixed element budget, fits the slot
    budget and ends before the next spectrum change of a live row.

    The decode is proven on copies of each row's stream at construction
    (:func:`_decode_proven`). When the proof fails, or while a live row
    draws erasure or Bernoulli-loss coins from its engine stream after
    reception, blocks are one slot long and draw with generator calls
    (:meth:`_draw_slot`); that is the same loop at ``K = 1``.
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
        self._offsets_flat = offsets.reshape(-1)
        # One schedule evaluation serves a cell whose rows share their
        # offsets (always, unless a future fault model draws per-trial
        # joins).
        self._cell_shared: List[Optional[np.ndarray]] = [
            offsets[sl][0] if bool((offsets[sl] == offsets[sl][0]).all()) else None
            for sl in slices
        ]

        kernel = SparseReception(network)
        self._kernel = kernel
        self._faults: Optional["StackedFaults"] = None
        engine_rows = {b for b, p in enumerate(self._erasure_list) if p > 0.0}
        if any(rt is not None for rt in runtimes):
            from ..faults.runtime import StackedFaults

            self._faults = StackedFaults(
                runtimes, self._ids, kernel.dense_of_channel, kernel.num_dense,
                kernel.num_links,
            )
            engine_rows |= self._faults.engine_rows
        # Rows that draw coins from their engine stream after reception
        # advance one slot per block while they are live.
        self._engine_rows = frozenset(engine_rows)
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

        # Block arrays, persistent across blocks: flat (K, R, N) with
        # row b of slot j at [(j·R + b)·N, (j·R + b + 1)·N).
        size = batch * n
        self._k_cap = max(1, min(_MAX_BLOCK, _BLOCK_CELLS // size))
        cells_cap = self._k_cap * size
        self._row_starts = np.arange(batch + 1) * n
        self._row_slices = [slice(b * n, (b + 1) * n) for b in range(batch)]
        self._tx_slots = np.zeros(size, dtype=np.int64)
        self._rx_slots = np.zeros(size, dtype=np.int64)
        self._collisions = np.zeros(size, dtype=np.int64)
        self._clear = np.zeros(size, dtype=np.int64)
        self._uni = np.empty(size, dtype=np.float64)
        self._uni_rows = [self._uni[sl] for sl in self._row_slices]
        self._transmit = np.zeros(cells_cap, dtype=bool)
        self._listen = np.empty(cells_cap, dtype=bool)
        self._pick = np.zeros(cells_cap, dtype=np.int64)
        self._pick_rows = [self._pick[sl] for sl in self._row_slices]
        self._chan_base = np.tile(kernel.chan_base, batch)
        self._p_rows = np.empty((batch, n), dtype=np.float64)
        self._threshold_rows = np.empty((self._k_cap, batch, n), dtype=np.uint64)
        self._bound_cache: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._slot_col = np.arange(self._k_cap + 1).reshape(-1, 1)
        self._hyp_col = np.arange(_MAX_HYPOTHESES).reshape(-1, 1, 1)
        self._hypotheses = 2
        # Per (slot, row) of a block: whether the row drew picks, where
        # its pick words start, and its pending spare half (0/1) with
        # the flat index of the word holding it.
        self._proceed = np.zeros((self._k_cap, batch), dtype=bool)
        self._pick_at = np.zeros((self._k_cap, batch), dtype=np.int64)
        self._spare_slot = np.zeros((self._k_cap, batch), dtype=np.int64)
        self._spare_at = np.zeros((self._k_cap, batch), dtype=np.int64)

        # The one draw decode: nodes with |A(u)| > 1 take one 32-bit
        # half each per picking slot. Each row owns a raw-word buffer
        # (column 0 holds the word whose high half is the row's pending
        # spare half) read from a cursor; the live stream runs ahead of
        # it by the words not yet read.
        sizes = kernel.sizes
        self._multi = (sizes > 1).nonzero()[0]
        self._size_multi = sizes[self._multi].astype(np.uint64)
        self._threshold = (
            ((1 << 32) - sizes[self._multi]) % sizes[self._multi]
        ).astype(np.uint64)
        self._pick_words = (self._multi.size + 1) >> 1
        # Power-of-two sizes never reject.
        self._rejecting = bool(self._threshold.any())
        self._halves = np.empty(2 * self._pick_words + 1, dtype=np.uint64)
        self._product = np.empty(self._multi.size, dtype=np.uint64)
        # Picks are below 2**32, so unsigned views of the rows take them.
        self._pick_words_of = [row.view(np.uint64) for row in self._pick_rows]
        proofs = [_decode_proven(stream, sizes) for stream in self._streams]
        # Rows sharing one stream would interleave their draws.
        distinct = len({id(stream) for stream in self._streams}) == batch
        self._proven = (
            distinct
            and sys.byteorder == "little"
            and all(proof is not None for proof in proofs)
        )
        if self._proven:
            self._bit_generators = [stream.bit_generator for stream in self._streams]
            # Room for one block and a half: a row refills about every
            # other block, with one random_raw call.
            self._buffer_words = 3 * self._k_cap * (n + self._pick_words) // 2 + 8
            # Slack past the buffer keeps speculative gathers in bounds.
            self._stride = self._buffer_words + n + self._pick_words + 2
            self._words = np.zeros((batch, self._stride), dtype=np.uint64)
            self._word_flat = self._words.reshape(-1)
            # Row r's N words from flat index x: _word_window[x]; the M
            # 32-bit halves from half index h (word h // 2, low half
            # first, which is why the decode requires a little-endian
            # byte order): _half_window[h].
            self._word_window = np.lib.stride_tricks.sliding_window_view(
                self._word_flat, n
            )
            self._half_flat = self._word_flat.view(np.uint32)
            self._half_window = np.lib.stride_tricks.sliding_window_view(
                self._half_flat, max(self._multi.size, 1)
            )
            self._cursor = np.ones(batch, dtype=np.int64)
            self._fill = np.ones(batch, dtype=np.int64)
            self._spare = np.array([p[0] for p in proofs], dtype=np.int64)  # type: ignore[index]
            self._words[:, 0] = np.array(
                [p[1] for p in proofs], dtype=np.uint64  # type: ignore[index]
            ) << _HIGH

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
        self._oracle = stopping.stop_on_full_coverage
        # Rows leave these when they complete.
        self._live_nodes = np.ones(batch * self._num_nodes, dtype=bool)
        self._live: List[int] = list(range(batch))
        self._retire([])

        # A linkless network is complete before the first slot: nothing
        # executes (zero draws, zero radio activity).
        if self._oracle and num_links == 0:
            slots_executed[:] = 0
        else:
            t = 0
            while t < budget:
                k, done = self._run_block(t, budget - t, cov, uncovered)
                if done is not None:
                    # A completed row executes no further slots.
                    rows, last = done
                    slots_executed[rows] = t + last + 1
                    self._retire(rows.tolist())
                    if not self._live:
                        break
                t += k

        cov_rows = cov.reshape(batch, num_links)
        return [
            self._build_result(b, cov_rows[b], int(slots_executed[b]))
            for b in range(batch)
        ]

    def _retire(self, finished: List[int]) -> None:
        """Drop completed rows; re-derive what depends on the live set."""
        for b in finished:
            self._live_nodes[self._row_slices[b]] = False
        gone = set(finished)
        self._live = [b for b in self._live if b not in gone]
        live = set(self._live)
        faults = self._faults
        self._spectrum_live = (
            [b for b in faults.spectrum_rows if b in live] if faults else []
        )
        self._loss_live = faults is not None and faults.has_loss
        self._erasure_live = [(b, p) for b, p in self._erasure_rows if b in live]
        self._one_slot = not self._proven or not live.isdisjoint(self._engine_rows)
        self._settled: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _activity(self, t: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Activity masks ``(K', R·N)`` and per-row counts ``(K', R)``.

        ``K' = K`` while the block can still see a start offset or crash,
        and ``1`` after, when the mask is constant and cached.
        """
        if t > self._settle and self._settled is not None:
            return self._settled
        slots = self._slot_col[: 1 if t > self._settle else k] + t
        active = self._offsets_flat <= slots
        if self._crash is not None:
            active &= self._crash > slots
        active &= self._live_nodes
        counts = np.count_nonzero(
            active.reshape(active.shape[0], self._batch, -1), axis=2
        )
        if t > self._settle:
            self._settled = (active, counts)
            self._settled_rows = (active[0], counts[0], bool(counts.any()), counts[0].tolist())
        return active, counts

    def _probabilities(self, t: int) -> np.ndarray:
        """Transmit probabilities of slot ``t``, broadcastable to
        ``(R, N)``; one schedule evaluation per cell."""
        for sched, sl, shared in zip(self._schedules, self.cell_slices, self._cell_shared):
            p = sched.probabilities(t - (self._offsets[sl] if shared is None else shared))
            if len(self._schedules) == 1:
                return p
            self._p_rows[sl] = p
        return self._p_rows

    def _run_block(
        self, t: int, remaining: int, cov: np.ndarray, uncovered: np.ndarray
    ) -> Tuple[int, Optional[Tuple[np.ndarray, np.ndarray]]]:
        """Advance every live row one block from slot ``t``.

        Returns the block length ``K`` and, when rows completed (oracle
        stopping only), ``(rows, last)``: those rows and the offset of
        their completion slot within the block. Each early return laps
        the phase it leaves, so the profiler's phases account for every
        block's time.
        """
        prof = self._profiler
        t0 = prof.start() if prof is not None else 0.0
        upcoming, blocked = math.inf, None
        if self._spectrum_live:
            assert self._faults is not None
            upcoming, blocked = self._faults.begin_block(t, self._spectrum_live)
        k = 1 if self._one_slot else min(self._k_cap, remaining)
        if upcoming < t + k:
            # End before the next spectrum change of a live row.
            k = math.ceil(upcoming) - t
        if k == 1 and t > self._settle and self._settled is not None:
            active_row, count_row, any_active, act_count = self._settled_rows
        else:
            active, counts = self._activity(t, k)
            active_row, count_row, any_active = active[0], counts[0], bool(counts.any())
            act_count = count_row.tolist()
        if not any_active:
            if prof is not None:
                prof.lap("schedule", t0)
            return k, None
        if self._one_slot:
            p = self._probabilities(t)
        if prof is not None:
            t0 = prof.lap("schedule", t0)

        width = self._batch * self._num_nodes
        size = k * width
        transmit = self._transmit[:size]
        listen = self._listen[:size]
        if self._one_slot:
            picked = self._draw_slot(p, active_row, act_count)
        else:
            if k == 1:
                active, counts = active_row[None], count_row[None]
            picked = self._draw_block(t, k, active, counts)
        if k == 1:
            np.bitwise_xor(active_row, transmit, out=listen)
            self._tx_slots += transmit
            self._rx_slots += listen
        else:
            tx2 = transmit.reshape(k, width)
            np.bitwise_xor(active, tx2, out=listen.reshape(k, width))
            self._tx_slots += tx2.sum(axis=0)
            self._rx_slots += listen.reshape(k, width).sum(axis=0)
        if not picked:
            if prof is not None:
                prof.lap("rng", t0)
            return k, None
        if prof is not None:
            t0 = prof.lap("rng", t0)
        # Slots that drew no picks keep stale ones; they have no
        # transmitter or no listener, so reception ignores them.
        picks = self._pick[:size]
        if k > 1:
            picks = picks.reshape(k, width)
        chan = self._kernel.chan_flat[self._chan_base + picks]
        if k > 1:
            chan = chan.reshape(-1)

        senders = transmit.nonzero()[0]
        hearing = listen
        if blocked is not None:
            # Suppress blocked transmitters (they sense the blocker and
            # defer) and blocked listeners (they hear only its signal);
            # the slots still count as spent radio activity above.
            assert self._faults is not None
            at = self._faults.gather_base + (chan if k == 1 else chan.reshape(k, width))
            suppressed = blocked[at if k == 1 else at.reshape(-1)]
            if suppressed.any():
                np.invert(suppressed, out=suppressed)
                hearing = listen & suppressed
                senders = (transmit & suppressed).nonzero()[0]
                if not senders.size:
                    if prof is not None:
                        prof.lap("channel", t0)
                    return k, None
        if prof is not None:
            t0 = prof.lap("channel", t0)

        collided, clear, keys = self._kernel.resolve(senders, hearing, chan)
        if k == 1:
            if collided.size:
                self._collisions[collided] += 1
            slot = None
            nodes = clear
        else:
            if collided.size:
                np.add.at(self._collisions, collided % width, 1)
            slot = clear // width
            nodes = clear - slot * width
            keys = keys - slot * (self._batch * self._kernel.num_links)
        if not clear.size:
            if prof is not None:
                prof.lap("reception", t0)
            return k, None
        if k == 1:
            self._clear[clear] += 1
        else:
            np.add.at(self._clear, nodes, 1)
        if prof is not None:
            t0 = prof.lap("reception", t0)

        # Erasure coins, then loss coins: one draw call per row and
        # block, in slot then node order. Erasure (and Bernoulli loss)
        # coins come from the engine stream, so those rows run K = 1.
        if self._erasure_live:
            ends = clear.searchsorted(self._row_starts).tolist()
            keep = np.ones(clear.size, dtype=bool)
            for b, prob in self._erasure_live:
                lo, hi = ends[b], ends[b + 1]
                if lo < hi:
                    keep[lo:hi] = self._streams[b].random(hi - lo) >= prob
            keys = keys[keep]
            if slot is not None:
                slot = slot[keep]
        if self._loss_live and keys.size:
            assert self._faults is not None
            keep = self._faults.keep(keys, t if slot is None else slot + t, self._streams)
            keys = keys[keep]
            if slot is not None:
                slot = slot[keep]

        fresh = cov[keys] < 0
        if not np.count_nonzero(fresh):
            if prof is not None:
                prof.lap("delivery", t0)
            return k, None
        new = keys[fresh]
        num_links = self._kernel.num_links
        if slot is None:
            cov[new] = float(t)
            covered = np.bincount(new // num_links, minlength=self._batch)
            uncovered -= covered
            rows = covered.nonzero()[0]
            done = rows[uncovered[rows] == 0]
            last = done * 0
        else:
            # A link's first delivery in slot order covers it.
            new, first = np.unique(new, return_index=True)
            at = slot[fresh][first]
            cov[new] = (at + t).astype(np.float64)
            per_slot = np.bincount(
                new // num_links * k + at, minlength=self._batch * k
            ).reshape(self._batch, k)
            covered = per_slot.sum(axis=1)
            rows = covered.nonzero()[0]
            reached = per_slot[rows].cumsum(axis=1) >= uncovered[rows, None]
            uncovered -= covered
            finished = reached.any(axis=1)
            done = rows[finished]
            last = reached[finished].argmax(axis=1)
        if not self._oracle or not done.size:
            if prof is not None:
                prof.lap("delivery", t0)
            return k, None
        if k > 1:
            self._unwind(done, last, k, transmit, listen, collided, nodes, clear // width)
        if prof is not None:
            prof.lap("delivery", t0)
        return k, (done, last)

    def _unwind(
        self,
        done: np.ndarray,
        last: np.ndarray,
        k: int,
        transmit: np.ndarray,
        listen: np.ndarray,
        collided: np.ndarray,
        nodes: np.ndarray,
        clear_slot: np.ndarray,
    ) -> None:
        """Take back the counters of slots past each completion slot."""
        n = self._num_nodes
        width = self._batch * n
        tx2 = transmit.reshape(k, width)
        rx2 = listen.reshape(k, width)
        collided_slot = collided // width
        collided_nodes = collided - collided_slot * width
        for b, c in zip(done.tolist(), last.tolist()):
            if c == k - 1:
                continue
            sl = self._row_slices[b]
            self._tx_slots[sl] -= tx2[c + 1 :, sl].sum(axis=0)
            self._rx_slots[sl] -= rx2[c + 1 :, sl].sum(axis=0)
            for counter, at, where in (
                (self._collisions, collided_slot, collided_nodes),
                (self._clear, clear_slot, nodes),
            ):
                late = (at > c) & (where >= sl.start) & (where < sl.stop)
                np.add.at(counter, where[late], -1)

    def _draw_slot(self, p: np.ndarray, active: np.ndarray, act_count: List[int]) -> bool:
        """One slot's draws with generator calls (blocks of one slot).

        Each active row draws ``random(N)``; a row with a transmitter and
        a listener then draws picks: raw words decoded as
        :func:`_scalar_picks` does when the decode is proven
        (:meth:`_raw_picks`), else ``integers(0, sizes)``. Leaves the
        live streams exactly at the rows' positions, so erasure and loss
        coins can follow. Returns whether any row drew picks.
        """
        act_rows = [b for b, c in enumerate(act_count) if c]
        streams = self._streams
        for b in act_rows:
            streams[b].random(out=self._uni_rows[b])
        width = self._uni.size
        transmit = self._transmit[:width]
        if p.size == width:
            np.less(self._uni, p.reshape(-1), out=transmit)
        else:
            np.less(self._uni.reshape(self._batch, -1), p, out=transmit.reshape(self._batch, -1))
        transmit &= active
        ends = transmit.nonzero()[0].searchsorted(self._row_starts).tolist()
        proceed = [b for b in act_rows if 0 < ends[b + 1] - ends[b] < act_count[b]]
        if not proceed:
            return False
        if not self._proven:
            sizes = self._kernel.sizes
            for b in proceed:
                self._pick_rows[b][:] = streams[b].integers(0, sizes)
            return True
        for b in proceed:
            self._raw_picks(b)
        return True

    def _raw_picks(self, b: int) -> None:
        """Row ``b``'s picks from exactly the raw words they need.

        The halves are the pending spare half, then each word's low and
        high half; a half left over becomes the new spare. A rejected
        pick hands the words to :meth:`_exact_picks`.
        """
        multi = self._multi.size
        if not multi:
            return
        spare = int(self._spare[b])
        count = (multi + 1 - spare) >> 1
        words = self._bit_generators[b].random_raw(count)
        halves = self._halves
        if spare:
            halves[0] = int(self._words[b, 0]) >> 32
        top = spare + 2 * count
        np.bitwise_and(words, _LOW32, out=halves[spare:top:2])
        np.right_shift(words, _HIGH, out=halves[spare + 1 : top : 2])
        product = np.multiply(halves[:multi], self._size_multi, out=self._product)
        if self._rejecting and bool(((product & _LOW32) < self._threshold).any()):
            self._words[b, 1 : 1 + count] = words
            self._cursor[b], self._fill[b] = 1, 1 + count
            self._pick_rows[b][:] = self._exact_picks(b)
            self._cursor[b] = self._fill[b] = 1
            return
        if multi == self._num_nodes:
            np.right_shift(product, _HIGH, out=self._pick_words_of[b])
        else:
            self._pick_rows[b][self._multi] = product >> _HIGH
        if top > multi:
            self._words[b, 0] = words[-1]
            self._spare[b] = 1
        elif spare:
            self._spare[b] = 0

    def _decode_picks(
        self,
        start: np.ndarray,
        spare: np.ndarray,
        spare_at: np.ndarray,
        out: Optional[np.ndarray],
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Picks of the ``|A(u)| > 1`` nodes, decoded from buffered words.

        For slots whose pick words start at flat word index ``start``,
        with ``spare`` (0/1) pending halves held in the high half of the
        word at ``spare_at``: returns the products ``half·size``, shape
        ``start.shape + (M,)``, whose high 32 bits are the picks (also
        written to ``out`` when given), and whether any pick of the slot
        hit Lemire's rejection (``None`` when no size can reject); such
        blocks are then decoded by :meth:`_redo_exact`.
        """
        # The slot's halves run contiguously from its first pick word's
        # low half; a pending spare takes the place before them.
        half = self._half_window[2 * start - spare]
        if spare.any():
            half[..., 0] = np.where(
                spare == 1, self._half_flat[2 * spare_at + 1], half[..., 0]
            )
        product = np.multiply(half, self._size_multi, dtype=np.uint64)
        if out is not None:
            np.right_shift(product, _HIGH, out=out)
        if not self._rejecting:
            return product, None
        return product, ((product & _LOW32) < self._threshold).any(axis=-1)

    def _reader(self, b: int) -> Tuple[Any, Any]:
        """Row ``b``'s words one at a time from its cursor, then from the
        live stream; returns ``(draw, close)``, and ``close()`` stores
        the cursor back (an emptied buffer when the stream was read)."""
        words = self._words[b]
        cursor, fill = int(self._cursor[b]), int(self._fill[b])
        live = False

        def draw(count: int) -> np.ndarray:
            nonlocal cursor, live
            if not live and cursor + count <= fill:
                cursor += count
                return words[cursor - count : cursor]
            if not live:
                # The rest of the buffer, then the stream.
                head = words[cursor:fill].copy()
                live = True
                return np.concatenate(
                    [head, self._bit_generators[b].random_raw(count - head.size)]
                )
            return self._bit_generators[b].random_raw(count)

        def close() -> None:
            self._cursor[b], self._fill[b] = (1, 1) if live else (cursor, fill)

        return draw, close

    def _exact_picks(self, b: int) -> np.ndarray:
        """Row ``b``'s picks from its cursor, one half at a time
        (:func:`_scalar_picks`): the path for slots where a pick hit
        Lemire's rejection and took more halves than speculated."""
        draw, close = self._reader(b)
        words = self._words[b]
        picks, has_spare, spare = _scalar_picks(
            draw, self._kernel.sizes, int(self._spare[b]), int(words[0]) >> 32
        )
        close()
        self._spare[b] = has_spare
        if has_spare:
            words[0] = np.uint64(spare << 32)
        return picks

    def _refill(self, b: int) -> None:
        """Move row ``b``'s unread words to the front and draw the rest."""
        words = self._words[b]
        cursor, fill = int(self._cursor[b]), int(self._fill[b])
        kept = fill - cursor
        if kept:
            words[1 : 1 + kept] = words[cursor:fill]
        top = 1 + self._buffer_words
        words[1 + kept : top] = self._bit_generators[b].random_raw(top - 1 - kept)
        self._cursor[b], self._fill[b] = 1, top

    def _thresholds(self, t: int, k: int) -> Tuple[np.ndarray, bool]:
        """Integer transmit thresholds of slots ``t … t+K−1``, one
        conversion per cell, broadcastable to ``(K, R, N)``.

        A uniform is ``x·2⁻⁵³`` with ``x = word >> 11``, so ``uniform < p``
        exactly when ``x < ceil(p·2⁵³)``, that is when ``word <
        ceil(p·2⁵³)·2¹¹``. Returns the thresholds and whether they apply
        to ``word >> 11`` instead (only when some ``p`` is so close to 1
        that the word form would overflow). A schedule's constant
        (read-only) probability vector is converted once.
        """
        slots = self._slot_col[:k] + t
        bounds = []
        for sched, sl, shared in zip(self._schedules, self.cell_slices, self._cell_shared):
            if shared is not None:
                p = sched.probabilities(slots - shared)
            else:
                p = sched.probabilities(slots[:, :, None] - self._offsets[sl])
            cached = self._bound_cache.get(id(p))
            if cached is None or cached[0] is not p:
                bound = np.ceil(np.clip(p, 0.0, 1.0) * 9007199254740992.0).astype(np.uint64)
                cached = (p, bound, bound << np.uint64(11))
                if not p.flags.writeable:
                    self._bound_cache[id(p)] = cached
            bounds.append(cached)
        shifted = any(int(bound.max()) >= 1 << 53 for _, bound, _ in bounds)
        out = self._threshold_rows[:k]
        for (p, bound, word_bound), sl in zip(bounds, self.cell_slices):
            value = bound if shifted else word_bound
            if value.ndim == 2:
                value = value[:, None, :]
            if len(bounds) == 1:
                return value.reshape((1,) * (3 - value.ndim) + value.shape), shifted
            out[:, sl] = value
        return out, shifted

    def _draw_block(
        self, t: int, k: int, active: np.ndarray, counts: np.ndarray
    ) -> bool:
        """Decode ``K`` slots of every drawing row's words.

        A row draws ``N`` uniforms in a slot where it has an active node,
        and picks where it also has a transmitter and a listener. The
        decode speculates that every slot with two or more active nodes
        draws picks. A slot that did not (a *miss*) shifts every later
        slot's words back by its unused pick words, so each round decodes
        the decisions of all rows' slots under ``H`` hypotheses at once,
        "``h`` misses so far" for ``h < H``, and follows each row through
        its first ``H`` misses. Slots up to there are accepted; a row
        with more misses parses on after its ``H``-th in the next round.
        The picks of every accepted slot are then decoded in one pass; a
        row with a rejected pick is decoded again one slot at a time
        (:meth:`_redo_exact`). Returns whether any row drew picks.
        """
        n, batch = self._num_nodes, self._batch
        multi = self._multi.size
        tx3 = self._transmit[: k * batch * n].reshape(k, batch, n)
        proceed3 = self._proceed[:k]
        act3 = active.reshape(active.shape[0], batch, n)
        if counts.shape[0] != k:
            counts = np.broadcast_to(counts, (k, batch))
        draws = counts > 0
        drawing = draws.any(axis=0)
        rows = drawing.nonzero()[0]
        if rows.size < batch:
            tx3[...] = False
            proceed3[...] = False
        if not rows.size:
            return False
        may_pick = (counts > 1) if multi else np.zeros((k, batch), dtype=bool)
        every = rows.size == batch
        # Words for the whole block up front, so no buffer moves under
        # the positions recorded below.
        need = (draws if every else draws[:, rows]).sum(axis=0) * n
        need += (may_pick if every else may_pick[:, rows]).sum(axis=0) * self._pick_words
        for b in rows[self._fill[rows] - self._cursor[rows] < need].tolist():
            self._refill(b)
        # Where each row's block starts, for a redo.
        restart = (self._cursor.copy(), self._spare.copy(), self._words[:, 0].copy())
        threshold, shifted = self._thresholds(t, k)
        if not bool((counts == n).all()):
            threshold = np.where(act3, threshold, np.uint64(0))
        pick_at = self._pick_at[:k]
        spare3 = self._spare_slot[:k]
        spare_at3 = self._spare_at[:k]
        base = rows * self._stride
        spare_pos = base.copy()
        spare_word = np.zeros(batch, dtype=np.int64)
        # Slot k is a sentinel "miss" so a row's next miss always exists.
        slot_ext = self._slot_col[: k + 1]
        slot_col = slot_ext[:k]
        reach = np.full(rows.size, -1)
        misses_seen = 0
        later: Optional[np.ndarray] = None
        while True:
            every = rows.size == batch
            draws_r = draws if every else draws[:, rows]
            pick_r = may_pick if every else may_pick[:, rows]
            if later is not None:
                draws_r = draws_r & later
                pick_r = pick_r & later
            spare0 = self._spare[rows]
            # Words before slot j under h misses: N per drawing slot,
            # plus ceil((D·M − spare)/2) for the D = E − h picking slots
            # among the E speculated ones.
            eligible = pick_r.cumsum(axis=0) - pick_r
            origin = (draws_r.cumsum(axis=0) - draws_r) * n + (self._cursor[rows] + base)
            hyps = self._hypotheses if multi else 1
            picking = np.maximum(eligible - self._hyp_col[:hyps], 0)
            start = (picking * multi + 1 - spare0 >> 1) + origin
            word = self._word_window[start]
            if shifted:
                word >>= np.uint64(11)
            if not every and threshold.shape[1] > 1:
                threshold_r = threshold[:, rows]
            else:
                threshold_r = threshold
            # One hypothesis over every row decides straight into place.
            direct = hyps == 1 and later is None and every
            tx = np.less(word, threshold_r, out=tx3[None] if direct else None)
            senders = np.count_nonzero(tx, axis=-1)
            proceed = (senders > 0) & (senders < (counts if every else counts[:, rows]))
            # Follow each row through its misses: hypothesis h holds
            # from the slot after the h-th miss through the (h+1)-th.
            missed = np.ones((hyps, k + 1, rows.size), dtype=bool)
            np.less(proceed, pick_r, out=missed[:, :k])
            hyp = np.zeros((k, rows.size), dtype=np.int64)
            for h in range(hyps):
                # (A row past its last miss stays at the sentinel.)
                reach = (missed[h] & (slot_ext > np.minimum(reach, k - 1))).argmax(axis=0)
                hyp += slot_col > reach
            misses_seen = max(misses_seen, int(hyp[-1].max()))
            cols = np.arange(rows.size)
            if hyps == 1:
                tx, proceed, first = tx[0], proceed[0], start[0] + n
            else:
                chosen = (np.minimum(hyp, hyps - 1), slot_col, cols)
                tx, proceed, first = tx[chosen], proceed[chosen], start[chosen] + n
            # The accepted layout: picking slots, their spare half and
            # the word holding it (the last pick word of the row's
            # previous picking slot).
            spare = (eligible - hyp) * multi + spare0 & 1
            picked = pick_r & proceed
            words = picked * (multi + 1 - spare >> 1)
            last = np.where(picked, first + words - 1, spare_pos)
            np.maximum.accumulate(last, axis=0, out=last)
            spare_at = np.empty_like(last)
            spare_at[0] = spare_pos
            spare_at[1:] = last[:-1]
            if later is None:
                at_rows = slice(None) if every else rows
                if not direct:
                    tx3[:, at_rows] = tx
                proceed3[:, at_rows] = proceed
                pick_at[:, at_rows] = first
                spare3[:, at_rows] = spare
                spare_at3[:, at_rows] = spare_at
            else:
                # Slots before a row's restart were accepted earlier.
                tx3[:, rows] = np.where(later[:, :, None], tx, tx3[:, rows])
                for out, value in (
                    (proceed3, proceed),
                    (pick_at, first),
                    (spare3, spare),
                    (spare_at3, spare_at),
                ):
                    out[:, rows] = np.where(later, value, out[:, rows])
            # Parse state after each row's accepted prefix.
            end = np.minimum(reach, k - 1)
            self._cursor[rows] = (
                first[end, cols] + (draws_r[end, cols] - 1) * n + words[end, cols] - base
            )
            self._spare[rows] = spare[end, cols] + multi * picked[end, cols] & 1
            spare_pos = last[end, cols]
            spare_word[rows] = spare_pos
            going = reach < k - 1
            if not going.any():
                break
            rows, base, spare_pos = rows[going], base[going], spare_pos[going]
            reach = reach[going]
            later = slot_col > reach
        # Size the next block's hypotheses by the misses seen here.
        self._hypotheses = min(_MAX_HYPOTHESES, misses_seen + 1)
        if not multi:
            return bool(proceed3.any())
        pick3 = self._pick[: k * batch * n].reshape(k, batch, n)
        product, rejected = self._decode_picks(
            pick_at, spare3, spare_at3, pick3.view(np.uint64) if multi == n else None
        )
        if multi < n:
            pick3[:, :, self._multi] = product >> _HIGH
        # Only now may column 0 take each row's new spare word.
        rows = drawing.nonzero()[0]
        base, at = rows * self._stride, spare_word[rows]
        carry = (self._spare[rows] == 1) & (at != base)
        self._word_flat[base[carry]] = self._word_flat[at[carry]]
        if rejected is not None:
            for b in ((rejected & proceed3).any(axis=0) & drawing).nonzero()[0].tolist():
                self._redo_exact(b, k, threshold, shifted, act3, counts, restart)
        return bool(proceed3.any())

    def _redo_exact(
        self,
        b: int,
        k: int,
        threshold: np.ndarray,
        shifted: bool,
        act3: np.ndarray,
        counts: np.ndarray,
        restart: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """Decode row ``b``'s block again from its start, one slot at a
        time with :func:`_scalar_picks`: the path for a block in which a
        pick hit Lemire's rejection."""
        n = self._num_nodes
        cursor, spare, spare_word = restart
        self._cursor[b] = cursor[b]
        draw, close = self._reader(b)
        has_spare, value = int(spare[b]), int(spare_word[b]) >> 32
        tx3 = self._transmit[: k * self._batch * n].reshape(k, self._batch, n)
        pick3 = self._pick[: k * self._batch * n].reshape(k, self._batch, n)
        bound3 = np.broadcast_to(threshold, (k, self._batch, n))
        for j in range(k):
            count = int(counts[j, b])
            if not count:
                continue
            word = draw(n)
            tx = ((word >> np.uint64(11)) if shifted else word) < bound3[j, b]
            tx &= act3[min(j, act3.shape[0] - 1), b]
            tx3[j, b] = tx
            senders = int(np.count_nonzero(tx))
            self._proceed[j, b] = 0 < senders < count
            if self._proceed[j, b]:
                pick3[j, b], has_spare, value = _scalar_picks(
                    draw, self._kernel.sizes, has_spare, value
                )
        close()
        self._spare[b] = has_spare
        if has_spare:
            self._words[b, 0] = np.uint64(value << 32)

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

