"""Deterministic chaos injection for the campaign runner itself.

PR 3's ``FaultPlan`` exercises the *protocols* under spectrum dynamics
and churn; this module does the same for the *execution layer*. A
:class:`ChaosPlan` names exact trial indices at which a worker should
fail — by raising, by hard process death, or by (simulated) timeout —
and on which attempts, so retry, quarantine, backend degradation,
checkpoint/resume and archive atomicity can all be tested under fault
without any real nondeterminism.

Modes:

* ``raise`` — the worker raises :class:`ChaosInjectedFailure` before
  running the trial (a soft failure: the pool survives);
* ``exit`` — the worker process dies with ``os._exit`` (surfaces as
  ``BrokenProcessPool`` in the parent). When the chunk executes
  in-process — one worker, or after the supervisor degraded the
  pool — the mode degrades to ``raise`` so chaos never kills the
  campaign parent;
* ``timeout`` — consumed by the supervisor at collection time: the
  chunk is treated as having exceeded its wall-clock budget without
  actually waiting for one.

Distributed modes (:data:`DISTRIBUTED_CHAOS_MODES`) target the
file-queue execution layer of :mod:`repro.resilience.distributed`
instead of the chunk payload:

* ``worker-kill`` — the queue worker dies right after claiming the
  chunk's lease and before journaling a result (``os._exit`` when the
  worker runs with ``hard_exit=True``, an abandoned-lease simulation
  otherwise), exercising dead-lease reclamation;
* ``lease-steal`` — the coordinator deletes the chunk's *live* lease
  while its owner is still executing, forcing a second claim and a
  double completion (resolved deterministically by trial index);
* ``stale-heartbeat`` — the coordinator treats the lease owner's
  heartbeat as expired, triggering immediate reclamation of a healthy
  worker's lease.

Plans are plain picklable dataclasses: they ship to workers inside the
chunk payload together with the chunk's attempt number, which is what
makes "fail the first two attempts, then succeed" reproducible across
process boundaries.

The module also hosts the file-tampering helpers
(:func:`truncate_file`, :func:`flip_byte`) that the archive
verification tests use to fabricate torn and bit-rotted archives.
"""

from __future__ import annotations

import multiprocessing
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple, Union

from ..exceptions import ConfigurationError

__all__ = [
    "CHAOS_MODES",
    "DISTRIBUTED_CHAOS_MODES",
    "ChaosEvent",
    "ChaosInjectedFailure",
    "ChaosPlan",
    "flip_byte",
    "parse_chaos_spec",
    "truncate_file",
]

#: Modes consumed by the distributed queue layer, not the chunk payload.
DISTRIBUTED_CHAOS_MODES = ("worker-kill", "lease-steal", "stale-heartbeat")

CHAOS_MODES = ("raise", "exit", "timeout") + DISTRIBUTED_CHAOS_MODES


class ChaosInjectedFailure(RuntimeError):
    """The failure a ``raise``-mode (or in-process ``exit``-mode) event throws."""


@dataclass(frozen=True)
class ChaosEvent:
    """Fail the chunk containing ``trial`` on its first ``times`` attempts.

    Attributes:
        trial: Trial index that triggers the event (the whole dispatch
            chunk containing it fails, exactly like a real fault).
        mode: One of :data:`CHAOS_MODES`.
        times: Fire on attempts ``0 .. times-1``; ``-1`` fires on every
            attempt (a poison trial that never recovers).
    """

    trial: int
    mode: str = "raise"
    times: int = 1

    def __post_init__(self) -> None:
        if self.trial < 0:
            raise ConfigurationError(f"trial must be >= 0, got {self.trial}")
        if self.mode not in CHAOS_MODES:
            raise ConfigurationError(
                f"unknown chaos mode {self.mode!r}; choose from {CHAOS_MODES}"
            )
        if self.times < -1 or self.times == 0:
            raise ConfigurationError(
                f"times must be -1 (always) or >= 1, got {self.times}"
            )

    def fires(self, attempt: int) -> bool:
        """Whether this event fires on the given zero-based attempt."""
        return self.times == -1 or attempt < self.times


@dataclass(frozen=True)
class ChaosPlan:
    """A set of deterministic execution-layer faults for one campaign."""

    events: Tuple[ChaosEvent, ...] = ()

    def mode_for(self, trial: int, attempt: int) -> Optional[str]:
        """The mode firing for ``trial`` on ``attempt``, or ``None``."""
        for event in self.events:
            if event.trial == trial and event.fires(attempt):
                return event.mode
        return None

    def strike(self, trial_indices: Sequence[int], attempt: int) -> None:
        """Fail now if any ``raise``/``exit`` event covers this chunk attempt.

        Called by the worker entry point before running a chunk.
        ``timeout`` events are ignored here — they are the supervisor's
        to simulate at collection time.
        """
        for trial in trial_indices:
            mode = self.mode_for(trial, attempt)
            if mode == "exit":
                if multiprocessing.parent_process() is not None:
                    os._exit(42)  # hard worker death -> BrokenProcessPool
                # In-process execution must never kill the campaign
                # parent; the hard crash degrades to a soft failure.
                mode = "raise"
            if mode == "raise":
                raise ChaosInjectedFailure(
                    f"chaos: injected worker failure at trial {trial} "
                    f"(attempt {attempt})"
                )

    def times_out(self, trial_indices: Iterable[int], attempt: int) -> bool:
        """Whether a ``timeout`` event covers this chunk attempt."""
        return self._covers("timeout", trial_indices, attempt)

    # -- distributed-layer queries (no-ops for pool/in-process runs) ----

    def worker_kill(self, trial_indices: Iterable[int], attempt: int) -> bool:
        """Whether a ``worker-kill`` event covers this chunk attempt."""
        return self._covers("worker-kill", trial_indices, attempt)

    def lease_steal(self, trial_indices: Iterable[int], attempt: int) -> bool:
        """Whether a ``lease-steal`` event covers this chunk attempt."""
        return self._covers("lease-steal", trial_indices, attempt)

    def stale_heartbeat(self, trial_indices: Iterable[int], attempt: int) -> bool:
        """Whether a ``stale-heartbeat`` event covers this chunk attempt."""
        return self._covers("stale-heartbeat", trial_indices, attempt)

    def _covers(
        self, mode: str, trial_indices: Iterable[int], attempt: int
    ) -> bool:
        return any(
            self.mode_for(trial, attempt) == mode for trial in trial_indices
        )


_SPEC_RE = re.compile(
    "^(" + "|".join(re.escape(m) for m in CHAOS_MODES) + r")@(\d+)(?:x(-1|\d+))?$"
)


def parse_chaos_spec(spec: str) -> ChaosPlan:
    """Parse the CLI chaos syntax: ``mode@trial[xTIMES]``, comma-separated.

    Examples: ``raise@3`` (fail trial 3's chunk once), ``exit@0x2``
    (kill the worker on trial 0's first two attempts),
    ``timeout@5x-1`` (trial 5's chunk always times out).
    """
    events = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        match = _SPEC_RE.match(part)
        if match is None:
            raise ConfigurationError(
                f"bad chaos event {part!r}; expected mode@trial[xTIMES] with "
                f"mode in {CHAOS_MODES}, e.g. 'raise@3' or 'exit@0x-1'"
            )
        mode, trial, times = match.group(1), int(match.group(2)), match.group(3)
        events.append(
            ChaosEvent(
                trial=trial, mode=mode, times=1 if times is None else int(times)
            )
        )
    if not events:
        raise ConfigurationError(f"chaos spec {spec!r} names no events")
    return ChaosPlan(events=tuple(events))


def truncate_file(path: Union[str, Path], keep_bytes: int) -> None:
    """Truncate ``path`` to its first ``keep_bytes`` bytes (torn-write double)."""
    if keep_bytes < 0:
        raise ConfigurationError(f"keep_bytes must be >= 0, got {keep_bytes}")
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[:keep_bytes])


def flip_byte(path: Union[str, Path], index: int) -> None:
    """XOR one byte of ``path`` (bit-rot double for checksum tests)."""
    data = bytearray(Path(path).read_bytes())
    if not 0 <= index < len(data):
        raise ConfigurationError(
            f"byte index {index} out of range for {len(data)}-byte file"
        )
    data[index] ^= 0xFF
    Path(path).write_bytes(bytes(data))
