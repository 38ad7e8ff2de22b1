"""The chunk-executor interface behind every campaign.

:func:`~repro.resilience.supervisor.run_trial_group` plans a group of
spec points on one network as :class:`_ChunkState` dispatch units plus a
:class:`_Supervision` record of shared state (per-entry outcomes and
journals, policy, chaos plan, backoff RNG). *How* those chunks execute
is the executor's business, behind one interface:

* :class:`PooledChunkExecutor` — process-pool dispatch, collected
  strictly in dispatch order, with retry and crash-driven degradation;
* :class:`InProcessChunkExecutor` — the serial chunk loop on the live
  network object, with the same retry/quarantine semantics;
* :class:`~repro.resilience.distributed.DistributedChunkExecutor` — the
  multi-host file-queue coordinator (lease claims, heartbeats,
  dead-lease reclamation, degradation to local execution).

Executors form a degradation ladder: each one marks the chunks it
finished ``done`` and returns; whatever is left falls through to the
next executor (pool → in-process). The distributed rung stands alone:
it returns only once every chunk is done, running chunks itself when
no remote worker is alive. Every
executor records results keyed by entry and trial index through the
same :class:`_Supervision` bookkeeping, so the archived bytes cannot
depend on which executor (or host) a trial eventually succeeded on.
Without a retry policy that bookkeeping fails fast: no retry, no
isolation re-run, no pool rebuild.
"""

from __future__ import annotations

import concurrent.futures
import logging
import multiprocessing
from abc import ABC, abstractmethod
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..exceptions import TrialExecutionError, TrialQuarantinedError
from ..net.network import M2HeWNetwork
from ..net.serialization import network_to_json
from ..sim.parallel import _ChunkPayload, _run_chunk, _wrap_failure
from ..sim.results import DiscoveryResult
from .chaos import ChaosPlan
from .checkpoint import TrialJournal
from .policy import RetryPolicy, backoff_delay

__all__ = [
    "ChunkExecutor",
    "GroupEntry",
    "InProcessChunkExecutor",
    "PooledChunkExecutor",
    "QuarantinedTrial",
    "SupervisedTrials",
    "SupervisorEvent",
]

_logger = logging.getLogger("repro.resilience")


class GroupEntry(NamedTuple):
    """One spec point of a trial group (all entries share the network)."""

    experiment: Optional[str]
    protocol: str
    trials: int
    runner_params: Mapping[str, Any]


@dataclass(frozen=True)
class SupervisorEvent:
    """One supervision decision (retry, rebuild, downgrade, quarantine)."""

    kind: str
    experiment: Optional[str]
    detail: str
    trial_indices: Tuple[int, ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        """JSON form for manifests and logs."""
        payload: Dict[str, Any] = {"kind": self.kind, "detail": self.detail}
        if self.experiment is not None:
            payload["experiment"] = self.experiment
        if self.trial_indices:
            payload["trials"] = list(self.trial_indices)
        return payload


@dataclass(frozen=True)
class QuarantinedTrial:
    """A trial that exhausted its retry budget and was set aside.

    ``base_seed`` + ``trial`` are the replay coordinates: the failing
    seed is ``derive_trial_seed(base_seed, trial)``.
    """

    experiment: Optional[str]
    trial: int
    base_seed: Optional[int]
    error: str

    def as_dict(self) -> Dict[str, Any]:
        """JSON form recorded in the campaign manifest."""
        return {
            "experiment": self.experiment,
            "trial": self.trial,
            "base_seed": self.base_seed,
            "error": self.error,
        }


@dataclass
class SupervisedTrials:
    """Outcome of one experiment's supervised trials."""

    experiment: Optional[str]
    trials: int
    base_seed: Optional[int]
    completed: Dict[int, DiscoveryResult] = field(default_factory=dict)
    quarantined: List[QuarantinedTrial] = field(default_factory=list)
    events: List[SupervisorEvent] = field(default_factory=list)
    #: Trials restored from a checkpoint journal rather than executed.
    restored: int = 0

    @property
    def complete(self) -> bool:
        """Whether every trial produced a result (nothing quarantined)."""
        return len(self.completed) == self.trials

    def results_in_order(self) -> List[Tuple[int, DiscoveryResult]]:
        """``(trial_index, result)`` pairs sorted by trial index."""
        return sorted(self.completed.items())


#: ``(entry index, trial indices)``: the trials of one entry a chunk runs.
_Cell = Tuple[int, Tuple[int, ...]]


@dataclass
class _ChunkState:
    """One dispatch unit: ``indices`` are its trials, ``cells`` say whose.

    One cell per entry that runs some of the chunk's trials (an entry
    skips the trials it does not have, or already restored from its
    journal).
    """

    indices: Tuple[int, ...]
    cells: Tuple[_Cell, ...]
    attempt: int = 0
    done: bool = False

    @property
    def rows(self) -> int:
        """Trials the chunk runs, summed over its entries."""
        return sum(len(trials) for _, trials in self.cells)


@dataclass
class _Supervision:
    """Mutable campaign state shared by every chunk executor.

    One outcome and one journal (or ``None``) per entry; ``seeds[t]``
    seeds trial ``t`` of every entry. ``policy=None`` is the fail-fast
    policy. The backoff RNG is constructed by the supervisor (the RNG
    stream's registered owner) and injected, so every executor shares
    one seeded backoff sequence.
    """

    network: M2HeWNetwork
    entries: Sequence[GroupEntry]
    outcomes: List[SupervisedTrials]
    seeds: Sequence[np.random.SeedSequence]
    label: Optional[str]
    base_seed: Optional[int]
    policy: Optional[RetryPolicy]
    journals: Sequence[Optional[TrialJournal]]
    chaos: Optional[ChaosPlan]
    sleep: Callable[[float], None]
    jitter_rng: np.random.Generator
    on_progress: Optional[Callable[[int, int, int], None]] = None
    total_retries: int = 0
    pool_breakages: int = 0

    # -- execution -------------------------------------------------------

    @cached_property
    def network_json(self) -> str:
        """The network's JSON form, encoded on first use (pool and queue only)."""
        return network_to_json(self.network)

    def payload(self, state: _ChunkState) -> _ChunkPayload:
        """The chunk's self-contained payload (its network travels separately)."""
        return _ChunkPayload(
            entries=tuple(
                (self.entries[j].protocol, self.entries[j].runner_params, trials)
                for j, trials in state.cells
            ),
            trial_indices=state.indices,
            seeds=tuple(self.seeds[t] for t in state.indices),
            chaos=self.chaos,
            attempt=state.attempt,
        )

    def run_local(self, state: _ChunkState) -> List[List[DiscoveryResult]]:
        """Execute a chunk in this process, on the live network object."""
        return _run_chunk(self.payload(state), self.network)

    def chaos_timeout(self, state: _ChunkState) -> bool:
        """Fail this attempt as timed out if the chaos plan says so."""
        if self.chaos is None or not self.chaos.times_out(state.indices, state.attempt):
            return False
        self.handle_failure(
            state,
            concurrent.futures.TimeoutError("chaos: injected chunk timeout"),
            timed_out=True,
        )
        return True

    # -- bookkeeping ----------------------------------------------------

    def event(
        self, kind: str, detail: str, cells: Optional[Sequence[_Cell]] = None
    ) -> None:
        """Record an event on the entries ``cells`` name (default: all)."""
        targets: Sequence[_Cell] = (
            cells if cells is not None else [(j, ()) for j in range(len(self.outcomes))]
        )
        for j, trials in targets:
            outcome = self.outcomes[j]
            outcome.events.append(
                SupervisorEvent(
                    kind=kind,
                    experiment=outcome.experiment,
                    detail=detail,
                    trial_indices=tuple(trials),
                )
            )
        _logger.warning("[%s] %s: %s", self.label or "-", kind, detail)

    def record_success(
        self, state: _ChunkState, results: Sequence[Sequence[DiscoveryResult]]
    ) -> None:
        for (j, trials), entry_results in zip(state.cells, results):
            journal = self.journals[j]
            for trial, result in zip(trials, entry_results):
                self.outcomes[j].completed[trial] = result
                if journal is not None:
                    journal.record(trial, result.to_dict())
        state.done = True
        for j, _ in state.cells:
            self.notify_progress(j)

    def notify_progress(self, j: int) -> None:
        """Report entry ``j``'s ``(entry, completed, trials)`` to the observer.

        Fires only after the journal already holds the trials being
        reported, so an observer that checkpoints or streams on every
        call never sees state the journal has not committed.
        """
        if self.on_progress is not None:
            outcome = self.outcomes[j]
            self.on_progress(j, len(outcome.completed), outcome.trials)

    # -- failure handling -----------------------------------------------

    def experiment_of(self, state: _ChunkState) -> Optional[str]:
        """The experiments a chunk ran, ``" + "``-joined, for its errors.

        Falls back to the group label when an entry has no name.
        """
        names = [self.entries[j].experiment for j, _ in state.cells]
        if any(name is None for name in names):
            return self.label
        return " + ".join(str(name) for name in names)

    def abort(
        self, state: _ChunkState, exc: BaseException, *, timed_out: bool
    ) -> BaseException:
        """The fail-fast error for a chunk: typed, with replay coordinates."""
        if isinstance(exc, TrialExecutionError):
            # Already typed with replay info; re-wrapping would bury the
            # original trial indices one level deep.
            return exc
        return _wrap_failure(
            exc,
            kind="timed out" if timed_out else "failed",
            experiment=self.experiment_of(state),
            indices=state.indices,
            base_seed=self.base_seed,
            timed_out=timed_out,
        )

    def handle_failure(
        self, state: _ChunkState, exc: BaseException, *, timed_out: bool
    ) -> None:
        """Abort, retry, isolate or quarantine a failed chunk attempt.

        Raises at once under the fail-fast policy. Otherwise sets
        ``state.done`` when the chunk will not be re-dispatched (its
        trials were recovered in isolation or quarantined); leaves it
        pending — with ``attempt`` advanced and the backoff already
        slept — when the caller should resubmit it.
        """
        if self.policy is None:
            raise self.abort(state, exc, timed_out=timed_out)
        if state.attempt >= self.policy.max_retries:
            if timed_out:
                # An in-process re-run of a hanging trial cannot be
                # bounded; quarantine the chunk's trials outright.
                self.quarantine_chunk(state, exc, reason="timed out")
            else:
                self.isolate_chunk(state, exc)
            state.done = True
            return
        self.total_retries += 1
        if self.total_retries > self.policy.max_total_retries:
            raise _wrap_failure(
                exc,
                kind="exhausted the campaign retry budget "
                f"({self.policy.max_total_retries} retries)",
                experiment=self.experiment_of(state),
                indices=state.indices,
                base_seed=self.base_seed,
            )
        delay = backoff_delay(self.policy, state.attempt, self.jitter_rng)
        state.attempt += 1
        self.event(
            "retry",
            f"attempt {state.attempt} after "
            f"{type(exc).__name__} (backoff {delay:.3f}s)",
            state.cells,
        )
        self.sleep(delay)

    def isolate_chunk(self, state: _ChunkState, cause: BaseException) -> None:
        """Re-run an exhausted chunk trial-by-trial, quarantining failures.

        A chunk groups several trials; only the poisonous ones deserve
        quarantine. Isolation runs in-process so a crashing worker
        cannot take healthy trials down with it.
        """
        assert self.policy is not None
        for j, trials in state.cells:
            for trial in trials:
                single = _ChunkState(
                    indices=(trial,),
                    cells=((j, (trial,)),),
                    attempt=self.policy.max_retries + 1,
                )
                try:
                    results = self.run_local(single)
                except Exception as exc:
                    self.quarantine_trial(j, trial, exc)
                else:
                    self.record_success(single, results)

    def quarantine_chunk(
        self, state: _ChunkState, exc: BaseException, *, reason: str
    ) -> None:
        for j, trials in state.cells:
            for trial in trials:
                if trial not in self.outcomes[j].completed:
                    self.quarantine_trial(j, trial, exc, reason=reason)

    def quarantine_trial(
        self,
        j: int,
        trial: int,
        exc: BaseException,
        *,
        reason: Optional[str] = None,
    ) -> None:
        assert self.policy is not None
        outcome = self.outcomes[j]
        detail = reason or f"{type(exc).__name__}: {exc}"
        if not self.policy.quarantine:
            err = TrialQuarantinedError(
                f"experiment {outcome.experiment or '<unnamed>'!r}: trial "
                f"{trial} exhausted {self.policy.max_retries} retries "
                f"({detail}); replay with derive_trial_seed("
                f"{self.base_seed!r}, {trial})",
                experiment=outcome.experiment,
                trial_indices=(trial,),
                base_seed=self.base_seed,
            )
            err.__cause__ = exc
            raise err
        outcome.quarantined.append(
            QuarantinedTrial(
                experiment=outcome.experiment,
                trial=trial,
                base_seed=self.base_seed,
                error=detail,
            )
        )
        self.event("quarantine", detail, ((j, (trial,)),))


class ChunkExecutor(ABC):
    """One way of executing a campaign's pending dispatch chunks.

    ``run`` must drive every chunk it takes responsibility for to
    ``state.done`` through the supervision's bookkeeping
    (:meth:`_Supervision.record_success` / ``handle_failure``), and may
    return early with chunks still pending — the supervisor hands
    leftovers to the next rung of the degradation ladder.
    """

    @abstractmethod
    def run(self, states: List[_ChunkState], sup: _Supervision) -> None:
        """Execute (some of) the pending chunks."""


class PooledChunkExecutor(ChunkExecutor):
    """Pool dispatch, collected in dispatch order, with retry and degradation.

    Rounds: submit every unfinished chunk, collect strictly in dispatch
    order (a chunk gets ``trial_timeout`` seconds per trial it runs),
    retry soft failures on the live pool; a broken pool or a timeout
    ends the round (the executor is dropped) and the next round
    resubmits whatever is left. After ``policy.pool_downgrade_after``
    breakages the remaining chunks fall through to the in-process loop.
    Under the fail-fast policy the first failure of any kind raises.
    """

    def __init__(self, max_workers: int, trial_timeout: Optional[float] = None) -> None:
        self.max_workers = max_workers
        self.trial_timeout = trial_timeout

    def _pool(self, workers: int) -> concurrent.futures.Executor:
        """A fresh worker pool (the one process-pool site of the package).

        ``fork`` where the platform offers it (cheap workers), else the
        platform default. Results do not depend on the start method:
        trials are pure functions of their shipped payload.
        """
        fork = "fork" in multiprocessing.get_all_start_methods()
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork" if fork else None),
        )

    @staticmethod
    def _submit(
        executor: concurrent.futures.Executor, state: _ChunkState, sup: _Supervision
    ) -> "concurrent.futures.Future[List[List[DiscoveryResult]]]":
        return executor.submit(_run_chunk, sup.payload(state), sup.network_json)

    def run(self, states: List[_ChunkState], sup: _Supervision) -> None:
        while any(not s.done for s in states):
            open_states = [s for s in states if not s.done]
            executor = self._pool(min(self.max_workers, len(open_states)))
            try:
                pending: List[Tuple[_ChunkState, Any]] = [
                    (state, self._submit(executor, state, sup))
                    for state in open_states
                ]
                index = 0
                while index < len(pending):
                    state, future = pending[index]
                    index += 1
                    if state.done:  # finished by a retry earlier this round
                        continue
                    if sup.chaos_timeout(state):
                        future.cancel()
                        break  # timeout semantics: the pool is suspect
                    budget = (
                        None
                        if self.trial_timeout is None
                        else self.trial_timeout * state.rows
                    )
                    try:
                        results = future.result(timeout=budget)
                    except BrokenProcessPool as exc:
                        if sup.policy is None:  # fail fast: no rebuild
                            raise sup.abort(state, exc, timed_out=False) from exc
                        sup.pool_breakages += 1
                        if sup.pool_breakages >= sup.policy.pool_downgrade_after:
                            sup.event(
                                "downgrade_pool",
                                f"{sup.pool_breakages} worker-pool breakages; "
                                "running remaining chunks in-process",
                            )
                            return  # leftovers fall through the ladder
                        sup.event(
                            "pool_rebuild",
                            f"worker pool broke ({exc}); rebuilding and "
                            "resubmitting unfinished chunks",
                            state.cells,
                        )
                        break
                    except concurrent.futures.TimeoutError as exc:
                        # A stuck worker cannot be interrupted cooperatively;
                        # drop the pool so the straggler cannot poison later
                        # chunks, then re-dispatch on a fresh one.
                        sup.handle_failure(state, exc, timed_out=True)
                        break
                    except Exception as exc:
                        sup.handle_failure(state, exc, timed_out=False)
                        if not state.done:
                            pending.append((state, self._submit(executor, state, sup)))
                        continue
                    sup.record_success(state, results)
            finally:
                # A timed-out worker cannot be interrupted cooperatively;
                # drop the whole pool so stragglers do not outlive it.
                executor.shutdown(wait=False, cancel_futures=True)


class InProcessChunkExecutor(ChunkExecutor):
    """Serial chunk loop with the same retry/quarantine semantics.

    The bottom rung of every degradation ladder: it cannot crash a
    pool, lose a lease or strand a worker, so it always drives its
    chunks to ``done`` (completing or quarantining them).
    """

    def run(self, states: List[_ChunkState], sup: _Supervision) -> None:
        for state in states:
            while not state.done:
                if sup.chaos_timeout(state):
                    continue
                try:
                    results = sup.run_local(state)
                except Exception as exc:
                    sup.handle_failure(state, exc, timed_out=False)
                    continue
                sup.record_success(state, results)
