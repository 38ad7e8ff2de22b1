"""Multi-host campaign sharding: a file-based lease queue for chunks.

The executor ladder of :mod:`repro.resilience.supervisor` is
single-machine; this module adds the rung that is not.
:class:`DistributedChunkExecutor` publishes a trial group's dispatch
chunks as a **task** in a shared :class:`WorkQueue` directory (any
filesystem both hosts can see), where any number of ``m2hew worker``
processes — on this host or others — claim and execute them. A task
carries the whole group, so workers run the same grid chunks as the
in-process rung:

* **claims are atomic lease files**: a worker owns a chunk iff it
  created ``chunk-NNNNN.lease.json`` with ``O_CREAT|O_EXCL`` (the one
  filesystem primitive that is atomic everywhere), fsynced before use;
* **workers heartbeat** by atomically rewriting a per-worker file with
  an incrementing beat counter;
* **liveness is judged by local observation, not clock comparison**:
  the coordinator remembers *its own* monotonic time when it first saw
  each lease/heartbeat content, and declares a lease dead only when
  both the lease and its owner's heartbeat have sat unchanged for a
  full ``lease_ttl`` of local time — no cross-host clock sync needed;
* **dead leases are reclaimed** through the ordinary supervision path:
  reclamation counts against the chunk's :class:`RetryPolicy` budget
  and sleeps the same seeded backoff as any other failure;
* **no workers? no problem**: when no live remote worker exists the
  coordinator claims unclaimed chunks itself and runs each through the
  in-process rung, retrying inline under the lease, so ``--backend
  distributed`` degrades to (supervised) in-process execution.

Determinism is inherited, not re-proven: a chunk's payload is fully
determined by ``base_seed`` and its ``(entry index, trials)`` cells —
workers re-derive ``derive_trial_seed(base_seed, t)`` locally — and the
coordinator records results keyed by entry and trial index through the
shared :class:`~repro.resilience.executor._Supervision` bookkeeping into
the shared :class:`~repro.resilience.checkpoint.TrialJournal`. A lease
stolen mid-execution therefore produces a *double completion* whose
two result sets are byte-identical, and whichever is absorbed, the
archive cannot change: resolution is by trial index, never by
completion order. Worker kills, shard counts and lease-expiry races
may change *when* and *where* a trial ran — never what it computed.

Every sidecar this module parses (task specs, leases, markers,
heartbeats) is read through
:func:`~repro.resilience.checkpoint.load_sidecar`, so a file torn by a
worker dying mid-write reads as absent and is simply rewritten —
crash tolerance matches the journal's own torn-final-line rule. Workers
parse no done, fail or lease marker: they skip a chunk while one
exists, and the coordinator deletes a done or fail marker that exists
but does not load.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import socket
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..exceptions import ConfigurationError
from ..net.network import M2HeWNetwork
from ..net.serialization import network_from_json
from ..sim.parallel import _ChunkPayload, _run_chunk
from ..sim.results import result_from_dict
from ..sim.rng import derive_trial_seed
from .atomic import atomic_write_text, sha256_of_text
from .chaos import ChaosEvent, ChaosPlan
from .checkpoint import load_sidecar
from .executor import ChunkExecutor, InProcessChunkExecutor, _ChunkState, _Supervision

__all__ = [
    "DISTRIBUTED_BACKEND",
    "DistributedChunkExecutor",
    "LeasePolicy",
    "QUEUE_SCHEMA_VERSION",
    "QueueWorker",
    "RemoteWorkerFailure",
    "TASK_SUFFIX",
    "WorkQueue",
    "chaos_from_jsonable",
    "chaos_to_jsonable",
    "default_worker_id",
    "run_worker",
    "runner_params_to_jsonable",
]

#: The ``m2hew batch --backend`` name routing to this module. Kept out
#: of :data:`repro.sim.parallel.BACKENDS` deliberately: it needs a
#: ``queue_dir``, which selects this module on its own.
DISTRIBUTED_BACKEND = "distributed"

#: Version 2: a task carries a whole trial group (``entries`` plus
#: per-chunk ``(entry index, trials)`` cells) and a ``campaign`` digest.
QUEUE_SCHEMA_VERSION = 2

TASK_SUFFIX = ".task.json"

# Module-level so tests can monkeypatch one name and steer every
# coordinator's idea of elapsed time.
_monotonic = time.monotonic


class RemoteWorkerFailure(RuntimeError):
    """A chunk failed on (or was abandoned by) a remote queue worker."""


@dataclass(frozen=True)
class LeasePolicy:
    """Cadence knobs for the lease protocol.

    Attributes:
        lease_ttl: Seconds of *locally observed* silence — lease file
            unchanged and its owner's heartbeat unchanged — after which
            a lease is presumed abandoned and reclaimed. Must comfortably
            exceed both ``heartbeat_interval`` and the longest expected
            chunk; a too-small TTL only costs duplicated work (double
            completions are benign), never correctness.
        heartbeat_interval: Target seconds between worker heartbeats.
        poll_interval: Coordinator/worker sleep between queue scans.
    """

    lease_ttl: float = 15.0
    heartbeat_interval: float = 2.0
    poll_interval: float = 0.2

    def __post_init__(self) -> None:
        for name in ("lease_ttl", "heartbeat_interval", "poll_interval"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigurationError(f"{name} must be > 0, got {value!r}")
        if self.lease_ttl <= self.heartbeat_interval:
            raise ConfigurationError(
                f"lease_ttl ({self.lease_ttl}) must exceed heartbeat_interval "
                f"({self.heartbeat_interval}); otherwise every healthy worker "
                "looks dead"
            )


def _slug(text: str) -> str:
    """Filesystem-safe token for experiment names and worker ids."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text) or "campaign"


def default_worker_id() -> str:
    """Hostname + pid: unique per live worker process, no randomness."""
    return f"{_slug(socket.gethostname())}-{os.getpid()}"


def runner_params_to_jsonable(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Runner params as they ship inside a task file.

    Fault plans travel in their dict form (``plan_to_dict``); the
    runner on the worker side normalizes dicts back through
    ``as_fault_plan``, so remote and local execution see the same plan.
    Anything else must already be JSON — a param the queue cannot
    represent faithfully would silently change remote results.
    """
    shipped: Dict[str, Any] = {}
    for key, value in params.items():
        if key == "faults":
            from ..faults.serialization import as_fault_plan, plan_to_dict

            plan = as_fault_plan(value)
            if plan is None:
                continue
            shipped[key] = plan_to_dict(plan)
            continue
        try:
            json.dumps(value)
        except TypeError:
            raise ConfigurationError(
                f"runner param {key!r} ({type(value).__name__}) is not "
                "JSON-serializable and cannot ship through a work queue"
            ) from None
        shipped[key] = value
    return shipped


def chaos_to_jsonable(chaos: Optional[ChaosPlan]) -> Optional[List[Dict[str, Any]]]:
    """Chaos events as they ship inside a task file (``None`` when clean)."""
    if chaos is None or not chaos.events:
        return None
    return [
        {"trial": e.trial, "mode": e.mode, "times": e.times} for e in chaos.events
    ]


def chaos_from_jsonable(events: Optional[Any]) -> Optional[ChaosPlan]:
    """Inverse of :func:`chaos_to_jsonable` (tolerant: bad shape → ``None``)."""
    if not isinstance(events, list) or not events:
        return None
    try:
        return ChaosPlan(
            events=tuple(
                ChaosEvent(
                    trial=int(e["trial"]),
                    mode=str(e["mode"]),
                    times=int(e.get("times", 1)),
                )
                for e in events
            )
        )
    except (ConfigurationError, KeyError, TypeError, ValueError):
        return None


def _cells_to_jsonable(cells: Sequence[Tuple[int, Sequence[int]]]) -> List[Any]:
    """A chunk's ``(entry index, trials)`` cells as they ship in the queue."""
    return [[j, list(trials)] for j, trials in cells]


class WorkQueue:
    """A shared-directory work queue: tasks, chunk markers, heartbeats.

    Layout under ``root`` (every file JSON, every write atomic except
    the ``O_EXCL`` lease claim, every read torn-write tolerant)::

        queue.json                     schema marker
        tasks/<task>.task.json         immutable task spec
        tasks/<task>/chunk-NNNNN.lease.json   atomic claim (owner id)
        tasks/<task>/chunk-NNNNN.done.json    results, per cell
        tasks/<task>/chunk-NNNNN.fail.json    failure for the coordinator
        tasks/<task>/chunk-NNNNN.retry.json   coordinator-approved attempt
        workers/<worker>.json          heartbeat (incrementing beat)

    Task ids are content-derived (group label + payload digest), so a
    coordinator that crashed and re-published the same campaign lands
    on the same id and absorbs the done markers workers already wrote.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.tasks_dir = self.root / "tasks"
        self.workers_dir = self.root / "workers"
        self.tasks_dir.mkdir(parents=True, exist_ok=True)
        self.workers_dir.mkdir(parents=True, exist_ok=True)
        marker_path = self.root / "queue.json"
        marker = load_sidecar(marker_path)
        if marker is None:
            atomic_write_text(
                marker_path,
                json.dumps(
                    {"kind": "queue", "schema_version": QUEUE_SCHEMA_VERSION},
                    sort_keys=True,
                )
                + "\n",
            )
        elif marker.get("schema_version") != QUEUE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"work queue {self.root} has schema_version "
                f"{marker.get('schema_version')!r}; this build speaks "
                f"{QUEUE_SCHEMA_VERSION}"
            )

    # -- tasks ----------------------------------------------------------

    def task_path(self, task_id: str) -> Path:
        return self.tasks_dir / f"{task_id}{TASK_SUFFIX}"

    def state_dir(self, task_id: str) -> Path:
        return self.tasks_dir / task_id

    def task_id_for(self, payload: Mapping[str, Any]) -> str:
        """Content-derived task id (same campaign → same id; label cut short)."""
        digest = sha256_of_text(json.dumps(payload, sort_keys=True))
        return f"{_slug(str(payload.get('experiment') or 'campaign'))[:64]}-{digest[:12]}"

    def publish_task(self, payload: Mapping[str, Any]) -> str:
        """Publish a task, retracting stale tasks of the same campaign.

        The task records a ``campaign`` digest of all but its ``chunks``:
        an equal digest means the same campaign with another pending
        set, while other campaigns under the same label are left alone.
        Idempotent: re-publishing an identical payload reuses the
        existing task (and whatever done markers it accumulated), which
        is how a restarted coordinator resumes in-flight remote work.
        """
        rest = {k: v for k, v in payload.items() if k != "chunks"}
        campaign = sha256_of_text(json.dumps(rest, sort_keys=True))
        task = {**payload, "campaign": campaign}
        task_id = self.task_id_for(task)
        for stale_id in self.list_tasks():
            if stale_id == task_id:
                continue
            stale = self.read_task(stale_id)
            if stale is not None and stale.get("campaign") == campaign:
                self.retract_task(stale_id)
        path = self.task_path(task_id)
        if load_sidecar(path) is None:
            self.state_dir(task_id).mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, json.dumps(task, sort_keys=True) + "\n")
        return task_id

    def retract_task(self, task_id: str) -> None:
        """Withdraw a task: spec first (workers stop seeing it), then state.

        The state directory moves to a tombstone in one atomic rename
        before anything in it is deleted. A worker that read the task
        just before therefore never sees a half-deleted directory (a
        finished chunk whose done marker is already gone): its claim
        hits the missing directory, and :meth:`write_marker` refuses it.
        """
        try:
            self.task_path(task_id).unlink()
        except OSError:
            pass
        tombstone = tempfile.mkdtemp(
            prefix=f".{task_id}.", suffix=".retracted", dir=self.tasks_dir
        )
        try:
            os.replace(self.state_dir(task_id), tombstone)
        except OSError:
            pass  # never published, or already retracted
        shutil.rmtree(tombstone, ignore_errors=True)

    def list_tasks(self) -> List[str]:
        return sorted(
            p.name[: -len(TASK_SUFFIX)]
            for p in self.tasks_dir.glob(f"*{TASK_SUFFIX}")
        )

    def read_task(self, task_id: str) -> Optional[Dict[str, Any]]:
        payload = load_sidecar(self.task_path(task_id))
        if payload is None or payload.get("kind") != "task":
            return None
        if payload.get("schema_version") != QUEUE_SCHEMA_VERSION:
            return None
        return payload

    # -- chunk markers ---------------------------------------------------

    def marker_path(self, task_id: str, chunk: int, kind: str) -> Path:
        return self.state_dir(task_id) / f"chunk-{chunk:05d}.{kind}.json"

    def claim(self, task_id: str, chunk: int, worker_id: str, attempt: int) -> bool:
        """Atomically claim a chunk lease. ``False`` = already claimed/retracted."""
        path = self.marker_path(task_id, chunk, "lease")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except FileNotFoundError:  # state dir gone: the task was retracted
            return False
        payload = {
            "kind": "lease",
            "chunk": chunk,
            "worker": worker_id,
            "attempt": attempt,
        }
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        return True

    def release(self, task_id: str, chunk: int) -> None:
        self.clear_marker(task_id, chunk, "lease")

    def clear_marker(self, task_id: str, chunk: int, kind: str) -> None:
        try:
            self.marker_path(task_id, chunk, kind).unlink()
        except OSError:
            pass

    def read_marker(
        self, task_id: str, chunk: int, kind: str
    ) -> Optional[Dict[str, Any]]:
        return load_sidecar(self.marker_path(task_id, chunk, kind))

    def write_marker(
        self, task_id: str, chunk: int, kind: str, payload: Mapping[str, Any]
    ) -> bool:
        """Atomically (over)write a marker; ``False`` = task retracted."""
        if not self.state_dir(task_id).is_dir():
            # atomic_write_text would re-create the directory of a
            # retracted task; refuse instead so retraction sticks.
            return False
        try:
            atomic_write_text(
                self.marker_path(task_id, chunk, kind),
                json.dumps(dict(payload), sort_keys=True) + "\n",
            )
        except OSError:
            return False
        return True

    # -- worker heartbeats ----------------------------------------------

    def heartbeat(self, worker_id: str, payload: Mapping[str, Any]) -> None:
        atomic_write_text(
            self.workers_dir / f"{worker_id}.json",
            json.dumps(dict(payload), sort_keys=True) + "\n",
        )

    def list_workers(self) -> List[str]:
        return sorted(p.stem for p in self.workers_dir.glob("*.json"))

    def read_worker(self, worker_id: str) -> Optional[Dict[str, Any]]:
        return load_sidecar(self.workers_dir / f"{worker_id}.json")


class QueueWorker:
    """Claims and executes one queue chunk at a time.

    ``step()`` is synchronous and single-chunk so tests (and the
    coordinator's pump loops) can interleave workers deterministically;
    :func:`run_worker` wraps it in the long-running CLI loop.

    Args:
        hard_exit: Make ``worker-kill`` chaos events die for real
            (``os._exit``) instead of returning — the behaviour wanted
            in subprocess smoke tests but never inside a test runner.
        on_claimed: Test hook fired after a lease claim, before
            execution; lease-race tests use it to interleave a rival.
    """

    def __init__(
        self,
        queue: WorkQueue,
        worker_id: Optional[str] = None,
        *,
        hard_exit: bool = False,
        on_claimed: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self.queue = queue
        self.worker_id = worker_id or default_worker_id()
        self.hard_exit = hard_exit
        self.on_claimed = on_claimed
        self.beats = 0
        self.executed = 0
        # The last network decoded, with the text it came from: a task's
        # chunks all carry one network, so the worker decodes it once per
        # task rather than once per chunk.
        self._network: Optional[Tuple[str, M2HeWNetwork]] = None

    def heartbeat(self) -> None:
        """Publish liveness: the beat counter is what observers watch change."""
        self.beats += 1
        self.queue.heartbeat(
            self.worker_id,
            {
                "kind": "heartbeat",
                "worker": self.worker_id,
                "beat": self.beats,
                "executed": self.executed,
            },
        )

    def step(self) -> Optional[str]:
        """Claim and execute at most one chunk; ``None`` = nothing claimable."""
        for task_id in self.queue.list_tasks():
            task = self.queue.read_task(task_id)
            if task is None:
                continue
            chunks = task.get("chunks")
            if not isinstance(chunks, list):
                continue
            for chunk_no in range(len(chunks)):
                # Presence settles it, unparsed: a done marker carries the
                # chunk's results, the coordinator clears any marker it
                # cannot load, and it owns failed chunks.
                if any(
                    self.queue.marker_path(task_id, chunk_no, kind).exists()
                    for kind in ("done", "fail", "lease")
                ):
                    continue
                retry = self.queue.read_marker(task_id, chunk_no, "retry")
                attempt = 0
                if retry is not None:
                    try:
                        attempt = int(retry.get("attempt", 0))
                    except (TypeError, ValueError):
                        attempt = 0
                if not self.queue.claim(task_id, chunk_no, self.worker_id, attempt):
                    continue
                return self._execute(task_id, task, chunk_no, attempt)
        return None

    def _execute(
        self, task_id: str, task: Dict[str, Any], chunk_no: int, attempt: int
    ) -> str:
        cells = [
            (int(j), tuple(int(t) for t in trials))
            for j, trials in task["chunks"][chunk_no]
        ]
        indices = tuple(sorted({t for _, trials in cells for t in trials}))
        if self.on_claimed is not None:
            self.on_claimed(task_id, chunk_no)
        chaos = chaos_from_jsonable(task.get("chaos"))
        if chaos is not None and chaos.worker_kill(indices, attempt):
            if self.hard_exit:
                os._exit(43)  # crash with the lease held: reclamation's job
            # In-process doubles abandon the lease instead of dying.
            return f"{task_id}/chunk-{chunk_no}: killed"
        base_seed = task.get("base_seed")
        entries = task["entries"]
        payload = _ChunkPayload(
            entries=tuple(
                (str(entries[j][0]), dict(entries[j][1] or {}), trials)
                for j, trials in cells
            ),
            trial_indices=indices,
            seeds=tuple(derive_trial_seed(base_seed, t) for t in indices),
            chaos=chaos,
            attempt=attempt,
        )
        try:
            results = _run_chunk(payload, self._decoded_network(str(task["network"])))
        except Exception as exc:
            wrote = self.queue.write_marker(
                task_id,
                chunk_no,
                "fail",
                {
                    "kind": "fail",
                    "chunk": chunk_no,
                    "attempt": attempt,
                    "worker": self.worker_id,
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
            self.queue.release(task_id, chunk_no)
            status = "failed" if wrote else "retracted"
            return f"{task_id}/chunk-{chunk_no}: {status}"
        wrote = self.queue.write_marker(
            task_id,
            chunk_no,
            "done",
            {
                "kind": "done",
                "chunk": chunk_no,
                "attempt": attempt,
                "worker": self.worker_id,
                "cells": _cells_to_jsonable(cells),
                "results": [[r.to_dict() for r in rs] for rs in results],
            },
        )
        self.queue.release(task_id, chunk_no)
        self.executed += 1
        status = "done" if wrote else "retracted"
        return f"{task_id}/chunk-{chunk_no}: {status}"

    def _decoded_network(self, text: str) -> M2HeWNetwork:
        """The network ``text`` encodes, decoded once for consecutive
        chunks that carry the same text."""
        if self._network is None or self._network[0] != text:
            self._network = (text, network_from_json(text))
        return self._network[1]


@dataclass
class _Observation:
    content: str
    first_seen: float


class DistributedChunkExecutor(ChunkExecutor):
    """The coordinator rung: publish chunks, absorb results, heal leases."""

    def __init__(self, queue: WorkQueue, lease: LeasePolicy) -> None:
        self.queue = queue
        self.lease = lease
        self._seen: Dict[str, _Observation] = {}
        self._stole: Set[Tuple[int, int]] = set()
        self._staled: Set[Tuple[int, int]] = set()
        self._degraded = False
        self._local_id = f"coordinator-{default_worker_id()}"

    def _observe(self, key: str, content: Optional[str]) -> Optional[float]:
        """Seconds this content has sat unchanged *under our observation*.

        ``None`` = absent; ``0.0`` = first sighting (or just changed).
        All staleness judgements flow through here, so they depend only
        on the coordinator's local monotonic clock — never on comparing
        timestamps written by another host.
        """
        if content is None:
            self._seen.pop(key, None)
            return None
        seen = self._seen.get(key)
        now = float(_monotonic())
        if seen is None or seen.content != content:
            self._seen[key] = _Observation(content=content, first_seen=now)
            return 0.0
        return now - seen.first_seen

    def run(self, states: List[_ChunkState], sup: _Supervision) -> None:
        pending = [s for s in states if not s.done]
        if not pending:
            return
        payload: Dict[str, Any] = {
            "kind": "task",
            "schema_version": QUEUE_SCHEMA_VERSION,
            "experiment": sup.label,
            "entries": [
                [entry.protocol, runner_params_to_jsonable(entry.runner_params)]
                for entry in sup.entries
            ],
            "network": sup.network_json,
            "base_seed": sup.base_seed,
            "chunks": [_cells_to_jsonable(s.cells) for s in pending],
            "chaos": chaos_to_jsonable(sup.chaos),
        }
        task_id = self.queue.publish_task(payload)
        while any(not s.done for s in pending):
            progressed = False
            for chunk_no, state in enumerate(pending):
                if state.done:
                    continue
                progressed = (
                    self._advance(task_id, chunk_no, state, sup) or progressed
                )
            if not progressed:
                sup.sleep(self.lease.poll_interval)
        # Clean completion only: a raised quarantine/budget error above
        # leaves the task in place for post-mortem and resume.
        self.queue.retract_task(task_id)

    # -- one chunk, one scan --------------------------------------------

    def _advance(
        self, task_id: str, chunk_no: int, state: _ChunkState, sup: _Supervision
    ) -> bool:
        done = self.queue.read_marker(task_id, chunk_no, "done")
        if done is None and self._unloadable(task_id, chunk_no, "done"):
            return True
        if done is not None:
            results_json = done.get("results")
            if (
                isinstance(results_json, list)
                and done.get("cells") == _cells_to_jsonable(state.cells)
            ):
                sup.record_success(
                    state,
                    [[result_from_dict(r) for r in rs] for rs in results_json],
                )
            else:
                # A resultless marker for a still-pending chunk can only
                # be stale leftovers (e.g. re-published campaign whose
                # chunking drifted); drop it and re-execute.
                self.queue.clear_marker(task_id, chunk_no, "done")
            return True
        fail = self.queue.read_marker(task_id, chunk_no, "fail")
        if fail is None and self._unloadable(task_id, chunk_no, "fail"):
            return True
        if fail is not None:
            self.queue.clear_marker(task_id, chunk_no, "fail")
            exc = RemoteWorkerFailure(
                str(fail.get("error") or "remote worker failure")
            )
            sup.handle_failure(state, exc, timed_out=False)
            self._settle(task_id, chunk_no, state)
            return True
        lease = self.queue.read_marker(task_id, chunk_no, "lease")
        if lease is None and self.queue.marker_path(
            task_id, chunk_no, "lease"
        ).exists():
            # Torn claim: the claimant died between the O_EXCL create
            # and the payload write. The file blocks every other claim,
            # so treat it as an anonymous lease — TTL reclamation will
            # clear it like any other dead lease.
            lease = {"kind": "lease", "chunk": chunk_no, "worker": "", "torn": True}
        if lease is not None:
            return self._tend_lease(task_id, chunk_no, state, lease, sup)
        return self._maybe_self_execute(task_id, chunk_no, state, sup)

    def _unloadable(self, task_id: str, chunk_no: int, kind: str) -> bool:
        """Whether a marker that did not load exists; clear it if damaged.

        Workers skip a chunk while its done or fail marker merely
        exists, so a damaged one (torn or corrupted on disk) would
        block the chunk forever. Clearing it makes the chunk claimable
        again, as reclamation does for a torn lease. The marker is read
        once more first: a worker's write may have landed since the
        caller's read, and the next scan takes it.
        """
        if not self.queue.marker_path(task_id, chunk_no, kind).exists():
            return False
        if self.queue.read_marker(task_id, chunk_no, kind) is None:
            self.queue.clear_marker(task_id, chunk_no, kind)
        return True

    def _tend_lease(
        self,
        task_id: str,
        chunk_no: int,
        state: _ChunkState,
        lease: Mapping[str, Any],
        sup: _Supervision,
    ) -> bool:
        key = (chunk_no, state.attempt)
        if (
            sup.chaos is not None
            and sup.chaos.lease_steal(state.indices, state.attempt)
            and key not in self._stole
        ):
            self._stole.add(key)
            self.queue.release(task_id, chunk_no)
            sup.event(
                "lease_steal",
                f"chaos: stole the live lease of chunk {chunk_no} from "
                f"{lease.get('worker')!r}; expect a double completion",
                state.cells,
            )
            return True
        lease_age = self._observe(
            f"lease:{task_id}:{chunk_no}", json.dumps(dict(lease), sort_keys=True)
        )
        owner = str(lease.get("worker") or "")
        owner_age = self._worker_age(owner)
        owner_stale = owner_age is None or owner_age >= self.lease.lease_ttl
        forced = (
            sup.chaos is not None
            and sup.chaos.stale_heartbeat(state.indices, state.attempt)
            and key not in self._staled
        )
        expired = (
            lease_age is not None
            and lease_age >= self.lease.lease_ttl
            and owner_stale
        )
        if not (forced or expired):
            return False  # healthy claim: leave the worker to it
        if forced:
            self._staled.add(key)
        self.queue.release(task_id, chunk_no)
        cause = (
            "chaos: heartbeat declared stale"
            if forced
            else f"lease and heartbeat unchanged for {self.lease.lease_ttl}s"
        )
        sup.event(
            "lease_reclaim",
            f"reclaimed chunk {chunk_no} from {owner!r} ({cause})",
            state.cells,
        )
        sup.handle_failure(
            state,
            RemoteWorkerFailure(
                f"worker {owner!r} abandoned its lease on chunk {chunk_no} "
                f"({cause})"
            ),
            timed_out=False,
        )
        self._settle(task_id, chunk_no, state)
        return True

    def _maybe_self_execute(
        self, task_id: str, chunk_no: int, state: _ChunkState, sup: _Supervision
    ) -> bool:
        if self._any_live_worker():
            return False  # an alive worker will claim it
        if not self._degraded:
            self._degraded = True
            sup.event(
                "degrade_local",
                "no live remote worker; coordinator executes unclaimed "
                "chunks in-process",
            )
        if not self.queue.claim(task_id, chunk_no, self._local_id, state.attempt):
            return False  # raced a worker that just arrived — even better
        try:
            # The bottom rung retries inline, under this lease, until the
            # chunk completes or is quarantined.
            InProcessChunkExecutor().run([state], sup)
        finally:
            self.queue.release(task_id, chunk_no)
        self._settle(task_id, chunk_no, state)
        return True

    def _settle(self, task_id: str, chunk_no: int, state: _ChunkState) -> None:
        """Publish a chunk's verdict, once its lease is gone, for workers."""
        if state.done:
            # Resolved locally (run in-process, isolated or quarantined):
            # results — if any — already live in the outcome/journal; the
            # marker only stops workers from re-claiming the chunk.
            self.queue.write_marker(
                task_id,
                chunk_no,
                "done",
                {"kind": "done", "chunk": chunk_no, "resolved": "local"},
            )
        else:
            self.queue.write_marker(
                task_id,
                chunk_no,
                "retry",
                {"kind": "retry", "chunk": chunk_no, "attempt": state.attempt},
            )

    # -- liveness --------------------------------------------------------

    def _worker_age(self, worker_id: str) -> Optional[float]:
        if not worker_id:
            return None
        heartbeat = self.queue.read_worker(worker_id)
        if heartbeat is None:
            return None
        return self._observe(
            f"worker:{worker_id}", json.dumps(heartbeat, sort_keys=True)
        )

    def _any_live_worker(self) -> bool:
        for worker_id in self.queue.list_workers():
            if worker_id == self._local_id:
                continue
            age = self._worker_age(worker_id)
            if age is not None and age < self.lease.lease_ttl:
                return True
        return False


def run_worker(
    queue_dir: Union[str, Path],
    *,
    worker_id: Optional[str] = None,
    lease: Optional[LeasePolicy] = None,
    max_chunks: Optional[int] = None,
    idle_exit: Optional[float] = None,
    hard_exit: bool = True,
    sleep: Optional[Callable[[float], None]] = None,
    on_status: Optional[Callable[[str], None]] = None,
) -> int:
    """The ``m2hew worker`` loop: heartbeat, claim, execute, repeat.

    Args:
        queue_dir: The shared queue directory (same as the
            coordinator's ``--queue``).
        worker_id: Stable identity for leases/heartbeats (default
            ``<hostname>-<pid>``).
        lease: Cadence policy; only ``poll_interval`` and
            ``heartbeat_interval`` matter on the worker side.
        max_chunks: Exit after executing this many chunks (smoke tests).
        idle_exit: Exit after this many consecutive idle seconds;
            ``None`` runs until killed.
        hard_exit: Let ``worker-kill`` chaos events call ``os._exit``.
        sleep: Replacement for :func:`time.sleep` (tests).
        on_status: Observer for per-chunk status lines (the CLI prints
            them).

    Returns:
        Number of chunks this worker completed (or failed with a
        recorded marker).
    """
    policy = lease or LeasePolicy()
    queue = WorkQueue(Path(queue_dir))
    worker = QueueWorker(queue, worker_id, hard_exit=hard_exit)
    do_sleep = sleep if sleep is not None else time.sleep
    idle = 0.0
    since_beat = policy.heartbeat_interval  # heartbeat immediately
    while True:
        if since_beat >= policy.heartbeat_interval:
            worker.heartbeat()
            since_beat = 0.0
        status = worker.step()
        if status is None:
            if idle_exit is not None and idle >= idle_exit:
                return worker.executed
            do_sleep(policy.poll_interval)
            idle += policy.poll_interval
            since_beat += policy.poll_interval
        else:
            idle = 0.0
            since_beat = policy.heartbeat_interval  # re-announce after work
            if on_status is not None:
                on_status(status)
            if max_chunks is not None and worker.executed >= max_chunks:
                return worker.executed
