"""Trial- and grid-batched synchronous engine: one kernel, many trials.

Monte-Carlo campaigns (E1–E3 theorem checks, robustness sweeps, the
tournament league) run *many spec points × many trials* of the same
slot kernel. The process pool (:mod:`repro.sim.parallel`) buys little
on small hosts, so this engine applies the other classic lever — a
**batch axis**: one simulator advances ``R`` independent trial rows per
slot with ``(R, N)``-shaped arrays, and resolves reception for the
whole batch with one :class:`~repro.sim.fast_slotted.SparseReception`
call over the flattened rows — the same kernel the serial engine runs
on its single row. Per-slot cost scales with the batch's actual
transmitters and audibility edges, never O(R·C·N²), and memory stays
O(R·(N + links)).

Two batching shapes share the kernel:

* :class:`BatchedSlottedSimulator` — the (B, N) *trial batch*: B seeded
  trials of one experiment (shared schedule, erasure, fault plan);
* :class:`GridBatchedSimulator` — the (G, B, N) *grid batch*: G
  experiment cells (each a :class:`GridCell` with its own schedule,
  start offsets, erasure probability and fault plan, sharing only the
  network and stopping condition) advance together, each contributing a
  contiguous block of rows. A whole Δ_est/ρ/erasure/fault-preset sweep
  thus pays kernel setup and per-slot Python dispatch once instead of
  once per spec point.

Determinism contract (pinned by ``tests/test_batched_engine.py`` and
``tests/test_grid_engine.py``):

* row ``r`` owns the ``"fast-engine"`` stream of its *own*
  :class:`~repro.sim.rng.RngFactory` — the exact generator the serial
  :class:`~repro.sim.fast_slotted.FastSlottedSimulator` would use — and
  the engine replays the serial engine's per-trial draw sequence
  call-for-call (decision uniforms, channel picks, erasure coins, loss
  coins, including every data-dependent early exit);
* therefore every row's :class:`~repro.sim.results.DiscoveryResult` is
  **byte-identical to the serial fast engine's**, which makes the
  output independent of both ``B`` and ``G`` by construction — batching
  is a dispatch optimization exactly like worker fan-out, so results
  report the same ``engine: slotted-fast`` metadata and archives never
  encode how trials were grouped.

Fault plans compile per row (each against its row's factory, so fault
trajectories match serial runs) and are consulted through the batched
entry points of :class:`~repro.faults.runtime.FaultRuntime`, which
treat fault-free rows (``None`` runtimes) as identity.

Pass ``profile=True`` to either simulator to collect per-phase timings
(:class:`~repro.sim.profile.SlotProfiler`) via :meth:`profile`; the
default is a ``None`` profiler that costs the hot loop nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..exceptions import ConfigurationError
from ..net.network import M2HeWNetwork
from .fast_slotted import SparseReception, VectorSchedule, start_offset_vector
from .profile import SlotProfiler
from .results import DiscoveryResult
from .rng import RngFactory
from .stopping import StoppingCondition

if TYPE_CHECKING:  # imported lazily at runtime to keep sim/faults decoupled
    from ..faults.plan import FaultPlan
    from ..faults.runtime import FaultRuntime

__all__ = ["BatchedSlottedSimulator", "GridBatchedSimulator", "GridCell"]


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

    Semantics per row are identical to
    :class:`~repro.sim.fast_slotted.FastSlottedSimulator` (bit-for-bit;
    see the module docstring). ``cells[g]`` contributes
    ``len(cells[g].rng_factories)`` consecutive rows; :meth:`run`
    returns results in row order and :attr:`cell_slices` maps them back
    to cells.
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
        self._index = {nid: i for i, nid in enumerate(self._ids)}
        n = len(self._ids)
        self._num_nodes = n
        self._cells = list(cells)
        self._profiler: Optional[SlotProfiler] = (
            SlotProfiler() if profile else None
        )

        # Row layout: cell g owns rows cell_slices[g] (contiguous).
        row = 0
        slices: List[slice] = []
        for cell in self._cells:
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
        self._schedules = [cell.schedule for cell in self._cells]
        self._streams = [
            f.stream("fast-engine")
            for cell in self._cells
            for f in cell.rng_factories
        ]
        # Per-row erasure probability, kept as the caller's Python float
        # so result metadata reproduces the serial engine's bytes.
        self._erasure_list: List[float] = [
            cell.erasure_prob
            for cell, sl in zip(self._cells, slices)
            for _ in range(sl.stop - sl.start)
        ]
        self._any_erasure = any(p > 0.0 for p in self._erasure_list)

        # Fault plans realize independently per row, exactly as the
        # serial engine would with each trial's own factory. Rows whose
        # plan is trivial (or absent) keep a None runtime and follow the
        # fault-free code path through the batched mask helpers.
        runtimes: List[Optional["FaultRuntime"]] = []
        for cell in self._cells:
            if cell.faults is None:
                runtimes.extend([None] * len(cell.rng_factories))
            else:
                from ..faults.runtime import compile_plan

                runtimes.extend(
                    compile_plan(
                        cell.faults, network, factory, time_unit="slots"
                    )
                    for factory in cell.rng_factories
                )
        self._runtimes: Optional[List[Optional["FaultRuntime"]]] = (
            runtimes if any(rt is not None for rt in runtimes) else None
        )
        live_runtimes = [rt for rt in runtimes if rt is not None]
        self._has_spectrum = any(rt.has_spectrum for rt in live_runtimes)
        self._has_churn = any(rt.has_churn for rt in live_runtimes)
        self._has_loss = any(rt.has_loss for rt in live_runtimes)

        # Per-row start offsets (joins fold in per row, mirroring the
        # serial constructor).
        self._offsets = np.zeros((batch, n), dtype=np.int64)
        for cell, sl in zip(self._cells, slices):
            self._offsets[sl] = start_offset_vector(self._index, cell.start_offsets)
        if self._runtimes is not None:
            for b, runtime in enumerate(self._runtimes):
                if runtime is None:
                    continue
                for i, nid in enumerate(self._ids):
                    join = runtime.join_offset(nid)
                    if join > self._offsets[b, i]:
                        self._offsets[b, i] = join

        # The reception kernel and its (channel, node) layout, shared by
        # every row (the serial fast engine builds the same one).
        kernel = SparseReception(network)
        self._kernel = kernel
        if self._runtimes is not None:
            for runtime in self._runtimes:
                if runtime is not None:
                    runtime.bind_dense(
                        self._ids, kernel.dense_of_channel, kernel.num_dense
                    )

        # Links in network.links() order; coverage is stored per row as
        # a (R, num_links) row — O(E) per row, never O(N²). The key /
        # endpoint / span columns are hoisted here so result building
        # never touches DirectedLink properties in a per-link loop (the
        # N=500 scaling cliff: ~300k Python property calls per batch).
        links = network.links()
        self._links = links
        self._link_keys: List[Tuple[int, int]] = [link.key for link in links]
        self._link_tx: List[int] = [link.transmitter for link in links]
        self._link_rx: List[int] = [link.receiver for link in links]
        self._link_spans: List[FrozenSet[int]] = [link.span for link in links]
        lookup = np.full(n * n, -1, dtype=np.int64)
        for e_i, link in enumerate(links):
            tx = self._index[link.transmitter]
            rx = self._index[link.receiver]
            lookup[tx * n + rx] = e_i
        self._link_lookup = lookup
        self._num_links = len(links)
        # Full-coverage neighbor-table template plus per-receiver link
        # lists, both in links() order. Every completed trial reports
        # the same tables, so B result builds share one template (a
        # dict() copy per node keeps rows independent); an incomplete
        # trial rebuilds only the receivers an uncovered link touches.
        # This amortization is batch-only by design — for one trial the
        # template would cost exactly what it saves.
        self._rx_links: Dict[int, List[int]] = {nid: [] for nid in self._ids}
        self._tables_full: Dict[int, Dict[int, FrozenSet[int]]] = {
            nid: {} for nid in self._ids
        }
        for e_i, link in enumerate(links):
            self._rx_links[link.receiver].append(e_i)
            self._tables_full[link.receiver][link.transmitter] = link.span
        self._coverage_none: Dict[Tuple[int, int], Optional[float]] = (
            dict.fromkeys(self._link_keys)
        )

        # Per-row, per-node counters (radio activity + contention); the
        # flat aliases let the hot loop scatter by raveled index.
        self._tx_slots = np.zeros((batch, n), dtype=np.int64)
        self._rx_slots = np.zeros((batch, n), dtype=np.int64)
        self._collisions = np.zeros((batch, n), dtype=np.int64)
        self._clear = np.zeros((batch, n), dtype=np.int64)
        self._collisions_flat = self._collisions.reshape(-1)
        self._clear_flat = self._clear.reshape(-1)

        # Per-slot scratch (allocated once; rows refill under per-row
        # gating so stale rows are never read where it matters).
        self._uni = np.empty((batch, n), dtype=np.float64)
        self._pick = np.zeros((batch, n), dtype=np.int64)
        self._tx_buf = np.empty((batch, n), dtype=bool)
        self._listen_buf = np.empty((batch, n), dtype=bool)
        self._chan_idx_buf = np.empty((batch, n), dtype=np.int64)
        self._chan_buf = np.empty((batch, n), dtype=np.int64)
        self._row_idx = np.arange(n)
        self._trial_idx = np.arange(batch)
        self._p_buf = np.empty((batch, n), dtype=np.float64)

        # Fast-path precomputation. Once every node has started (and no
        # churn), the per-slot activity mask is just the live vector;
        # when offset rows coincide within a cell (always, unless a
        # future fault model draws per-trial joins) one schedule
        # evaluation per cell serves all its rows.
        self._max_offset = int(self._offsets.max())
        self._cell_shared: List[Optional[np.ndarray]] = [
            self._offsets[sl][0]
            if bool((self._offsets[sl] == self._offsets[sl][0]).all())
            else None
            for sl in slices
        ]
        self._single = len(self._cells) == 1
        self._shared_offsets: Optional[np.ndarray] = (
            self._offsets[0]
            if bool((self._offsets == self._offsets[0]).all())
            else None
        )
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
            and self._streams
            and _raw_pick_verified(self._streams[0], self._scalar_size, n)
        ):
            self._raw_shift = 32 - (self._scalar_size.bit_length() - 1)
        # Flat-index lookups: np.flatnonzero over an (R, N) mask yields
        # raveled positions; these tables replace the per-slot integer
        # divisions that recovered (row, node, key base) from them.
        self._div_n = np.repeat(self._trial_idx, n)
        self._mod_n = np.tile(self._row_idx, batch)
        if self._has_spectrum:
            # Flat (row, node) base into a raveled (R, N, C) blocked
            # tensor; adding the chosen channel yields gather indices.
            self._spectrum_base = (
                self._trial_idx[:, None] * n + self._row_idx[None, :]
            ) * kernel.num_dense

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
        cov = np.full((batch, self._num_links), -1.0)
        uncovered = np.full(batch, self._num_links, dtype=np.int64)
        slots_executed = np.zeros(batch, dtype=np.int64)
        oracle = stopping.stop_on_full_coverage

        # A linkless network is complete before the first slot; the
        # serial loop's pre-slot coverage check never executes anything,
        # so neither may we (zero draws, zero radio activity).
        if oracle and self._num_links == 0:
            return [self._build_result(b, cov[b], 0) for b in range(batch)]

        # Liveness bookkeeping happens only when a row completes
        # (mirrors the serial loop: a completed trial executes no
        # further slots, everyone else runs to the budget).
        live = np.ones(batch, dtype=bool)
        live_list = list(range(batch))
        t = 0
        for t in range(budget):
            completed = self._run_slot(t, live, live_list, cov, uncovered)
            if oracle and completed is not None and completed.size:
                live[completed] = False
                slots_executed[completed] = t + 1
                live_list = np.flatnonzero(live).tolist()
                if not live_list:
                    break
        slots_executed[live] = min(t + 1, budget) if budget else 0

        return [
            self._build_result(b, cov[b], int(slots_executed[b]))
            for b in range(batch)
        ]

    def _probabilities(self, t: int) -> np.ndarray:
        """Transmit probabilities for slot ``t``, one evaluation per cell."""
        if self._single:
            shared = self._cell_shared[0]
            if shared is not None:
                return self._schedules[0].probabilities(t - shared)
            return self._schedules[0].probabilities(t - self._offsets)
        p = self._p_buf
        for g, sl in enumerate(self.cell_slices):
            shared = self._cell_shared[g]
            if shared is not None:
                p[sl] = self._schedules[g].probabilities(t - shared)
            else:
                p[sl] = self._schedules[g].probabilities(t - self._offsets[sl])
        return p

    def _run_slot(
        self,
        t: int,
        live: np.ndarray,
        live_list: List[int],
        cov: np.ndarray,
        uncovered: np.ndarray,
    ) -> Optional[np.ndarray]:
        """Advance every live row one slot; return newly-completed rows."""
        n = self._num_nodes
        streams = self._streams
        runtimes = self._runtimes
        prof = self._profiler
        t0 = prof.start() if prof is not None else 0.0
        if runtimes is not None:
            for b in live_list:
                runtime = runtimes[b]
                if runtime is not None:
                    runtime.begin_slot(t)

        # Activity: skip the (R, N) offset comparison once every node
        # has started and churn cannot remove any (the common steady
        # state); ``active is None`` then stands for ``live[:, None]``.
        active: Optional[np.ndarray]
        if runtimes is not None and self._has_churn:
            from ..faults.runtime import FaultRuntime

            active = self._offsets <= t
            active &= FaultRuntime.batched_alive_mask(runtimes, t, n)
            active &= live[:, None]
            act_list = np.flatnonzero(active.any(axis=1)).tolist()
        elif t < self._max_offset:
            active = self._offsets <= t
            active &= live[:, None]
            act_list = np.flatnonzero(active.any(axis=1)).tolist()
        else:
            active = None
            act_list = live_list
        if not act_list:
            return None

        p = self._probabilities(t)
        if prof is not None:
            t0 = prof.lap("schedule", t0)
        uni = self._uni
        for b in act_list:
            # Same stream, same call shape as the serial engine's
            # `rng.random(n)`; `out=` fills row b without reallocating.
            streams[b].random(out=uni[b])
        transmit = self._tx_buf
        listen = self._listen_buf
        np.less(uni, p, out=transmit)
        np.logical_not(transmit, out=listen)
        if active is None:
            transmit &= live[:, None]
            listen &= live[:, None]
        else:
            transmit &= active
            listen &= active
        self._tx_slots += transmit
        self._rx_slots += listen

        # Inactive rows never transmit, so no extra `act` mask is needed.
        proceed = transmit.any(axis=1)
        proceed &= listen.any(axis=1)
        proceed_list = np.flatnonzero(proceed).tolist()
        if not proceed_list:
            return None
        pick = self._pick
        if self._raw_shift is not None:
            # Verified-equivalent raw-word form of the scalar
            # ``integers`` call below (see ``_raw_pick_verified``).
            shift = self._raw_shift
            half = n >> 1
            for b in proceed_list:
                raw = streams[b].bit_generator.random_raw(half)
                row = pick[b]
                row[0::2] = (raw & 0xFFFFFFFF) >> shift
                row[1::2] = raw >> (32 + shift)
        elif self._scalar_size is not None:
            size = self._scalar_size
            for b in proceed_list:
                pick[b] = streams[b].integers(0, size, n)
        else:
            sizes = self._kernel.sizes
            for b in proceed_list:
                pick[b] = streams[b].integers(0, sizes)
        if prof is not None:
            t0 = prof.lap("rng", t0)
        np.add(self._kernel.chan_base, pick, out=self._chan_idx_buf)
        chan = np.take(self._kernel.chan_flat, self._chan_idx_buf, out=self._chan_buf)

        if runtimes is not None and self._has_spectrum:
            from ..faults.runtime import FaultRuntime

            blocked = FaultRuntime.batched_blocked_mask(
                runtimes, n, self._kernel.num_dense
            )
            suppressed = blocked.reshape(-1)[self._spectrum_base + chan]
            suppressed &= proceed[:, None]
            transmit &= ~suppressed
            listen &= ~suppressed
            proceed &= transmit.any(axis=1)
            proceed &= listen.any(axis=1)
            if not proceed.any():
                return None
        if prof is not None:
            t0 = prof.lap("channel", t0)

        # One reception call for every row. Edges never leave their
        # row, so rows outside `proceed` (no transmitter or no listener
        # left, stale channel picks) resolve to nothing.
        collided, clear_idx, senders_all = self._kernel.resolve(
            transmit.reshape(-1), listen.reshape(-1), chan.reshape(-1)
        )
        self._collisions_flat[collided] += 1
        self._clear_flat[clear_idx] += 1
        if prof is not None:
            t0 = prof.lap("reception", t0)
        if not clear_idx.size:
            return None

        # --- delivery. `clear_idx` ascends, so the clear receptions
        # are already grouped by row in ascending node order — exactly
        # the order the serial loop would process them.
        if self._any_erasure:
            # Erasure coins must come from each row's own stream, one
            # `random(count)` call per row with clear receptions — and
            # only for rows whose probability is positive, call-for-call
            # what the serial engine draws.
            clear_trials = self._div_n[clear_idx]
            bounds = np.flatnonzero(np.diff(clear_trials)) + 1
            segs = np.concatenate(([0], bounds, [clear_trials.size]))
            keep = np.empty(clear_trials.size, dtype=bool)
            erasure = self._erasure_list
            for s0, s1 in zip(segs[:-1], segs[1:]):
                b = int(clear_trials[s0])
                if erasure[b] > 0.0:
                    keep[s0:s1] = streams[b].random(s1 - s0) >= erasure[b]
                else:
                    keep[s0:s1] = True
            clear_idx = clear_idx[keep]
            senders_all = senders_all[keep]
            if clear_idx.size == 0:
                return None
        trial_ids = self._div_n[clear_idx]
        receivers_all = self._mod_n[clear_idx]

        if runtimes is not None and self._has_loss:
            from ..faults.runtime import FaultRuntime

            keep = FaultRuntime.batched_keep_mask(
                runtimes,
                trial_ids,
                senders_all,
                receivers_all,
                float(t),
                streams,
            )
            trial_ids = trial_ids[keep]
            senders_all = senders_all[keep]
            receivers_all = receivers_all[keep]
            if trial_ids.size == 0:
                return None

        link_ids = self._link_lookup[senders_all * n + receivers_all]
        flat = trial_ids * self._num_links + link_ids
        cov_flat = cov.reshape(-1)
        fresh = cov_flat[flat] < 0
        if not fresh.any():
            if prof is not None:
                prof.lap("delivery", t0)
            return None
        cov_flat[flat[fresh]] = float(t)
        dec = np.bincount(trial_ids[fresh], minlength=self._batch)
        uncovered -= dec
        done = np.flatnonzero((dec > 0) & (uncovered == 0))
        if prof is not None:
            prof.lap("delivery", t0)
        return done if done.size else None

    def _build_result(
        self, b: int, cov_row: np.ndarray, slots_executed: int
    ) -> DiscoveryResult:
        prof = self._profiler
        t0 = prof.start() if prof is not None else 0.0
        # Coverage and tables come from the hoisted link columns;
        # contents and insertion order are identical to the historical
        # per-link property loop (template dicts hold every key in
        # links() order, per-receiver rebuilds walk that receiver's
        # links in ascending link index — the order the global loop
        # would reach them). Python-loop time is spent on whichever of
        # covered/uncovered is the *minority* side.
        times = cov_row.tolist()
        uncovered_idx = np.flatnonzero(cov_row < 0).tolist()
        completed = not uncovered_idx
        link_keys = self._link_keys
        link_rx = self._link_rx
        link_tx = self._link_tx
        link_spans = self._link_spans
        tables: Dict[int, Dict[int, FrozenSet[int]]]
        coverage: Dict[Tuple[int, int], Optional[float]]
        if completed:
            tables = {
                nid: dict(full) for nid, full in self._tables_full.items()
            }
            coverage = dict(zip(link_keys, times))
        elif 2 * len(uncovered_idx) <= self._num_links:
            # Mostly covered: copy the full templates, then repair the
            # receivers an uncovered link touches.
            dirty = {link_rx[e_i] for e_i in uncovered_idx}
            rx_links = self._rx_links
            tables = {
                nid: (
                    {
                        link_tx[e_i]: link_spans[e_i]
                        for e_i in rx_links[nid]
                        if times[e_i] >= 0
                    }
                    if nid in dirty
                    else dict(self._tables_full[nid])
                )
                for nid in self._ids
            }
            for e_i in uncovered_idx:
                times[e_i] = None
            coverage = dict(zip(link_keys, times))
        else:
            # Mostly uncovered: start from empty tables and the
            # all-``None`` coverage template, then add the covered
            # links.
            covered_idx = np.flatnonzero(cov_row >= 0).tolist()
            tables = {nid: {} for nid in self._ids}
            coverage = dict(self._coverage_none)
            for e_i in covered_idx:
                tables[link_rx[e_i]][link_tx[e_i]] = link_spans[e_i]
                coverage[link_keys[e_i]] = times[e_i]
        # "slotted-fast", not a distinct label: a batched trial is
        # defined to be indistinguishable from a serial fast-engine
        # trial, and archives never record dispatch choices (same rule
        # as worker-count invariance in repro.sim.parallel).
        metadata: Dict[str, Any] = {
            "engine": "slotted-fast",
            "erasure_prob": self._erasure_list[b],
            "radio_activity": {
                nid: {"tx": tx, "rx": rx, "quiet": 0}
                for nid, tx, rx in zip(
                    self._ids,
                    self._tx_slots[b].tolist(),
                    self._rx_slots[b].tolist(),
                )
            },
            "collisions": dict(zip(self._ids, self._collisions[b].tolist())),
            "clear_receptions": dict(zip(self._ids, self._clear[b].tolist())),
        }
        if self._runtimes is not None and self._runtimes[b] is not None:
            metadata["faults"] = self._runtimes[b].describe()
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


class BatchedSlottedSimulator(GridBatchedSimulator):
    """Vectorized synchronous simulator for a batch of seeded trials.

    The single-cell form of :class:`GridBatchedSimulator`:
    ``rng_factories[i]`` seeds trial ``i``; all trials share the
    network, schedule, start offsets, erasure probability, fault *plan*
    (realized independently per trial) and the stopping condition —
    i.e. one experiment's trial campaign.
    """

    def __init__(
        self,
        network: M2HeWNetwork,
        schedule: VectorSchedule,
        rng_factories: Sequence[RngFactory],
        start_offsets: Optional[Mapping[int, int]] = None,
        erasure_prob: float = 0.0,
        faults: Optional["FaultPlan"] = None,
        *,
        profile: bool = False,
    ) -> None:
        super().__init__(
            network,
            [
                GridCell(
                    schedule=schedule,
                    rng_factories=tuple(rng_factories),
                    start_offsets=start_offsets,
                    erasure_prob=erasure_prob,
                    faults=faults,
                )
            ],
            profile=profile,
        )
