"""Backends, chunk payloads and the fail-fast campaign entry points.

Monte-Carlo campaigns are embarrassingly parallel: every trial is fully
determined by ``(network, protocol, runner_params, trial seed)`` and the
seeds derive independently via :func:`~repro.sim.rng.derive_trial_seed`.
Every campaign therefore runs as chunks of trial indices, dispatched by
index and reassembled by index through one path — the supervisor's
chunk executors (:func:`repro.resilience.supervisor.run_trial_group`) —
so every archived byte is identical for 1 worker and for 8, for a
chunk of one trial and for a chunk of many. Every chunk runs through
the grid engine (:func:`~repro.sim.runner.run_experiment_grid_batched`),
which advances all of its eligible rows in one kernel pass. A pool runs
iff more than one worker is requested, no work queue is in play and
:func:`pool_supported`; everything else runs in-process. This module
holds what that path shares with its worker processes (the accepted
backends, the chunk payload and its worker entry point
:func:`_run_chunk`) and its two fail-fast entry points,
:func:`run_spec_trials` and :func:`run_grid_spec_trials`.

Determinism contract: seeds are derived in the parent, once, and ship
inside the chunk payload; the workload is realized once per spec group
and reaches pool and queue workers through :mod:`repro.net.serialization`
(a bit-faithful round trip), never re-generated per trial.

Failure surface: without a retry policy, a worker exception (or a
crashed worker process, or a chunk exceeding its timeout budget) is
raised in the parent as a typed
:class:`~repro.exceptions.TrialExecutionError` /
:class:`~repro.exceptions.TrialTimeoutError` carrying the experiment
name, the chunk's trial indices and the campaign base seed, so the
failing trial can be replayed in-process (see ``docs/parallel.md``).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # imported lazily to keep sim decoupled from resilience
    from ..resilience.chaos import ChaosPlan

from ..exceptions import ConfigurationError, TrialExecutionError, TrialTimeoutError
from ..net.network import M2HeWNetwork
from ..net.serialization import network_from_json
from .results import DiscoveryResult
from .runner import run_experiment_grid_batched

__all__ = [
    "BACKENDS",
    "default_chunk_size",
    "pool_supported",
    "run_grid_spec_trials",
    "run_spec_trials",
]

#: Accepted ``backend`` values. Both run a process pool when more than
#: one worker is requested and the platform can host one, and run
#: in-process otherwise (see
#: :func:`~repro.resilience.supervisor.run_trial_group`, the one place
#: that decides). ``vectorized`` differs only in its in-process default
#: chunk: one chunk of every trial (one grid pass) instead of one chunk
#: per trial index.
BACKENDS = ("auto", "vectorized")

#: Default dispatch granularity: enough chunks that the pool stays busy
#: (4 per worker) without shipping one pickle per cheap trial.
_CHUNKS_PER_WORKER = 4


def pool_supported() -> bool:
    """Whether this platform can host a process pool at all."""
    try:
        return len(multiprocessing.get_all_start_methods()) > 0
    except (NotImplementedError, OSError):  # pragma: no cover - exotic hosts
        return False


def default_chunk_size(trials: int, max_workers: int) -> int:
    """Chunk size amortizing per-dispatch pickling over cheap trials."""
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    return max(1, -(-trials // (max_workers * _CHUNKS_PER_WORKER)))


# ----------------------------------------------------------------------
# chunks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ChunkPayload:
    """Everything a worker needs to run one chunk, apart from the network.

    ``entries[k]`` is ``(protocol, runner_params, trials)``: a spec point
    and which of the chunk's ``trial_indices`` it runs — one per spec
    point of the group that has trials in the chunk. ``seeds`` align
    with ``trial_indices``, so the payload pickles under any start method.
    """

    entries: Tuple[Tuple[str, Mapping[str, Any], Tuple[int, ...]], ...]
    trial_indices: Tuple[int, ...]
    seeds: Tuple[np.random.SeedSequence, ...]
    #: Chaos injection (supervised campaigns only): the plan and the
    #: chunk's zero-based attempt number travel with the payload so a
    #: "fail the first k attempts" event reproduces across processes.
    chaos: Optional["ChaosPlan"] = None
    attempt: int = 0


def _run_chunk(
    payload: _ChunkPayload, network: Union[M2HeWNetwork, str]
) -> List[List[DiscoveryResult]]:
    """Run one chunk through the grid engine: results per entry, in trial order.

    ``network`` is the live object when the chunk runs in-process or on
    a queue worker (which decodes each task's network once), its JSON
    form when it runs in a pool.
    """
    if payload.chaos is not None:
        # Raises or kills the worker when the plan covers this attempt;
        # no-op otherwise. The plan object travels inside the payload so
        # this module never imports the resilience package.
        payload.chaos.strike(payload.trial_indices, payload.attempt)
    if isinstance(network, str):
        network = network_from_json(network)
    seed_of = dict(zip(payload.trial_indices, payload.seeds))
    return run_experiment_grid_batched(
        network,
        [
            (protocol, [seed_of[t] for t in trials], params)
            for protocol, params, trials in payload.entries
        ],
    )


def _wrap_failure(
    exc: BaseException,
    *,
    kind: str,
    experiment: Optional[str],
    indices: Sequence[int],
    base_seed: Optional[int],
    timed_out: bool = False,
) -> TrialExecutionError:
    label = experiment or "<unnamed>"
    cls = TrialTimeoutError if timed_out else TrialExecutionError
    err = cls(
        f"experiment {label!r}: trial chunk {tuple(indices)} {kind} "
        f"({type(exc).__name__}: {exc}); replay with "
        f"derive_trial_seed({base_seed!r}, <trial>)",
        experiment=experiment,
        trial_indices=indices,
        base_seed=base_seed,
    )
    err.__cause__ = exc
    return err


# ----------------------------------------------------------------------
# fail-fast entry points
# ----------------------------------------------------------------------


def run_spec_trials(
    network: M2HeWNetwork,
    protocol: str,
    *,
    trials: int,
    base_seed: Optional[int] = 0,
    runner_params: Optional[Mapping[str, Any]] = None,
    max_workers: int = 1,
    backend: str = "auto",
    chunk_size: Optional[int] = None,
    trial_timeout: Optional[float] = None,
    experiment: Optional[str] = None,
    on_progress: Optional[Callable[[int, int], None]] = None,
) -> List[DiscoveryResult]:
    """Run ``trials`` seeded trials, optionally fanned out over processes.

    Trial ``t`` always uses ``derive_trial_seed(base_seed, t)`` and the
    returned list is always ordered by trial index, so the output is
    bitwise independent of ``max_workers``, ``backend`` and
    ``chunk_size``. This is the one dispatch path
    (:func:`~repro.resilience.supervisor.run_trial_group`) under its
    fail-fast policy: no retries, the first failing chunk aborts.

    Args:
        network: The realized workload (shipped to pool workers via
            :mod:`repro.net.serialization`, never re-generated).
        protocol: Any :data:`~repro.sim.runner.SYNC_PROTOCOLS` name or
            ``algorithm4``.
        trials: Number of trials.
        base_seed: Campaign root seed (``None`` draws OS entropy in the
            parent — still worker-count invariant, but not replayable).
        runner_params: Extra keyword arguments for the runners.
        max_workers: Worker processes; 1 runs in-process, more run a
            pool where the platform can host one.
        backend: One of :data:`BACKENDS`.
        chunk_size: Trials per dispatch unit, each run as one grid pass
            (default: auto when pooled, else per trial, or every trial
            when ``backend="vectorized"``).
        trial_timeout: Per-trial wall-clock budget in seconds; a pooled
            chunk gets ``trial_timeout × len(chunk)``. Exceeding it
            aborts the campaign with :class:`TrialTimeoutError`. Only a
            pool can enforce it, so it needs ``max_workers > 1``.
        experiment: Label used in error messages.
        on_progress: Optional observer called with ``(completed,
            trials)`` after every collected chunk (per trial on the
            default serial path), always in dispatch order. Purely
            observational: it sees results only after they exist, so it
            cannot perturb archived bytes. An exception it raises aborts
            the campaign (callers use this for cooperative
            cancellation).

    Raises:
        TrialExecutionError: A trial raised (or the worker process
            died); carries the trial indices and base seed.
        TrialTimeoutError: A chunk exceeded its budget.
        ConfigurationError: An invalid option, or ``trial_timeout``
            without a pool to enforce it.
    """
    from ..resilience.supervisor import GroupEntry, run_trial_group

    (outcome,) = run_trial_group(
        network,
        [GroupEntry(experiment, protocol, trials, dict(runner_params or {}))],
        base_seed=base_seed,
        max_workers=max_workers,
        backend=backend,
        chunk_size=chunk_size,
        trial_timeout=trial_timeout,
        label=experiment,
        on_progress=(
            None
            if on_progress is None
            else lambda _entry, done, total: on_progress(done, total)
        ),
    )
    return [result for _, result in outcome.results_in_order()]


def run_grid_spec_trials(
    network: M2HeWNetwork,
    entries: Sequence[Tuple[str, int, Optional[Mapping[str, Any]]]],
    *,
    base_seed: Optional[int] = 0,
    max_workers: int = 1,
    chunk_size: Optional[int] = None,
    trial_timeout: Optional[float] = None,
    experiment: Optional[str] = None,
    on_progress: Optional[Callable[[int, int, int], None]] = None,
) -> List[List[DiscoveryResult]]:
    """Run several spec points' seeded trials as fused grid batches.

    ``entries[j]`` is ``(protocol, trials, runner_params)`` — one spec
    point on the shared ``network``. Trial ``t`` of *every* entry uses
    ``derive_trial_seed(base_seed, t)``, exactly like per-spec
    campaigns, and results come back ordered by trial index per entry —
    so output is bitwise identical to running each entry through
    :func:`run_spec_trials` separately, for any worker count, chunk
    size or grid composition (the invariance the differential tests
    pin across G and B).

    The trial axis is chunked jointly (by default, one chunk of every
    trial in-process): each chunk carries the participating trials of
    all entries, and one kernel pass advances them together (see
    :func:`~repro.sim.runner.run_experiment_grid_batched` for the
    eligibility and stopping-condition grouping rules). ``on_progress``
    (if given) fires per collected chunk, in dispatch order, with
    ``(entry index, trials completed, entry trials)`` for each entry
    that advanced.

    Raises:
        TrialExecutionError: A trial raised (or the worker process
            died); carries the chunk's trial indices.
        TrialTimeoutError: A chunk exceeded its wall-clock budget.
    """
    from ..resilience.supervisor import GroupEntry, run_trial_group

    outcomes = run_trial_group(
        network,
        [
            GroupEntry(experiment, protocol, trials, dict(params or {}))
            for protocol, trials, params in entries
        ],
        base_seed=base_seed,
        max_workers=max_workers,
        backend="vectorized",
        chunk_size=chunk_size,
        trial_timeout=trial_timeout,
        label=experiment,
        on_progress=on_progress,
    )
    return [
        [result for _, result in outcome.results_in_order()]
        for outcome in outcomes
    ]
