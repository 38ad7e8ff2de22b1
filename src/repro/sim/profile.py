"""Slot-phase profiler for the vectorized engine.

Per-slot work in :class:`~repro.sim.batched.GridBatchedSimulator` (and
its fixed shapes: ``BatchedSlottedSimulator``, one cell, and
``FastSlottedSimulator``, one row) decomposes into a handful of phases —
schedule evaluation, RNG draws, channel pick/gather, the reception
kernel, delivery/coverage updates, result building.
:class:`SlotProfiler` accumulates wall-clock seconds and lap counts per
phase so ``benchmarks/bench_slot_profile.py`` (and anyone chasing a
regression) can see *where* a slot's time goes instead of guessing from
totals. Every slot that ends early laps the phase it ends in, so the
phases add up to the whole run.

The engine's rows are independent and its output is invariant to the
grid's ``G`` and ``B``, pinned by the engine goldens and the grid tests;
the profiler never changes that.

Cost model: profiling is strictly opt-in. The engines hold ``None``
instead of a profiler by default and guard every phase mark with an
``is not None`` check, so the disabled path adds no timer reads and no
attribute traffic to the hot loop. An enabled profiler never touches
RNG streams or results — timings are observational, so profiled runs
stay byte-identical to unprofiled ones (the engines' determinism
contract is unaffected).

This module is the **only** place in ``repro.sim`` allowed to read the
host clock: timings here are a perf metric *about* the simulation, they
never feed simulated time or archived results (which is exactly what
the D104 lint rule protects). Hence the targeted pragmas below.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

__all__ = ["PHASES", "SlotProfiler"]

#: Phase names the engine marks, in hot-loop order. A slot that ends
#: early laps the phase it ends in and skips the later ones; the
#: profiler accepts any label but the benchmark reports these in this
#: order.
PHASES: Tuple[str, ...] = (
    "schedule",
    "rng",
    "channel",
    "reception",
    "delivery",
    "result",
)


class SlotProfiler:
    """Accumulates per-phase wall-clock seconds across slots.

    Usage inside an engine loop::

        t0 = prof.start()
        ...schedule work...
        t0 = prof.lap("schedule", t0)
        ...rng work...
        t0 = prof.lap("rng", t0)

    :meth:`lap` charges the elapsed time since ``t0`` to the phase and
    returns the new timestamp, so consecutive phases chain without
    double-counting. All methods are allocation-free after the first
    lap of each phase.
    """

    def __init__(self) -> None:
        self._seconds: Dict[str, float] = {}
        self._laps: Dict[str, int] = {}

    def start(self) -> float:
        """A timestamp to chain :meth:`lap` calls from."""
        return time.perf_counter()  # lint: disable=D104

    def lap(self, phase: str, t0: float) -> float:
        """Charge ``now − t0`` to ``phase``; return ``now``."""
        t1 = time.perf_counter()  # lint: disable=D104
        self._seconds[phase] = self._seconds.get(phase, 0.0) + (t1 - t0)
        self._laps[phase] = self._laps.get(phase, 0) + 1
        return t1

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {"seconds", "laps", "share"}}``, known phases first.

        ``share`` is the phase's fraction of the total accumulated time
        (0.0 when nothing was recorded yet).
        """
        total = sum(self._seconds.values())
        ordered: List[str] = [p for p in PHASES if p in self._seconds]
        ordered += sorted(set(self._seconds) - set(PHASES))
        return {
            phase: {
                "seconds": self._seconds[phase],
                "laps": float(self._laps[phase]),
                "share": self._seconds[phase] / total if total > 0 else 0.0,
            }
            for phase in ordered
        }
