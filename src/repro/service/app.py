"""The campaign service: REST surface, dispatcher, dedup and resume.

:class:`CampaignService` composes the subsystem: the
:class:`~repro.service.jobs.JobStore` (persistent job records), the
:class:`~repro.service.scheduler.CampaignScheduler` (quota-bounded FIFO
queue), the :class:`~repro.service.store.ResultStore`
(fingerprint-indexed verified archives), the
:class:`~repro.service.progress.ProgressTracker` (per-job event logs)
and :func:`~repro.service.worker.execute_job` (the supervised runner),
behind a small REST surface:

====== =============================== =====================================
Method Path                            Meaning
====== =============================== =====================================
GET    ``/health``                     liveness + queue counters
POST   ``/campaigns``                  submit (dedups by fingerprint)
GET    ``/campaigns``                  list all jobs
GET    ``/campaigns/{id}``             status (+ ``?since=N`` events)
GET    ``/campaigns/{id}/events``      chunked JSON-lines event stream
GET    ``/campaigns/{id}/result``      verified result listing
GET    ``/campaigns/{id}/files/{name}`` raw archive file bytes
POST   ``/campaigns/{id}/cancel``      cancel (cooperative when running)
====== =============================== =====================================

Dedup semantics: a submission whose fingerprint matches a queued or
running job *joins* that job; one matching a stored verified archive is
answered ``cache_hit`` without recomputation; anything else queues.
Resume semantics: job records and checkpoint journals both live under
``data_dir``, so a killed server restores its queue on restart
(``running`` demotes to ``queued``) and re-executing a half-done
campaign restores its journaled trials instead of recomputing them.

Campaigns execute in worker threads via :func:`asyncio.to_thread` — the
trial supervisor is synchronous (it fsyncs journals) — while the HTTP
side stays on the event loop and reads progress through the
thread-safe tracker.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from pathlib import Path
from typing import Any, AsyncIterator, Dict, Optional, Set, Union

from ..exceptions import (
    ConfigurationError,
    JobCancelledError,
    QuotaExceededError,
)
from ..resilience.policy import RetryPolicy
from .campaigns import CampaignRequest, request_fingerprint
from .http import HttpError, HttpRequest, HttpResponse, HttpServer, json_response
from .jobs import CampaignJob, JobStore
from .progress import ProgressTracker
from .scheduler import CampaignScheduler, QuotaPolicy
from .store import ResultStore
from .worker import execute_job

__all__ = ["CampaignService", "EVENT_POLL_SECONDS"]

_logger = logging.getLogger("repro.service")

#: How often the chunked event stream polls the tracker for news.
EVENT_POLL_SECONDS = 0.05


class CampaignService:
    """One service instance rooted at a data directory.

    Layout: ``<data_dir>/jobs/`` (job records), ``<data_dir>/store/``
    (archives by fingerprint), ``<data_dir>/ckpt/`` (checkpoint
    journals by fingerprint). Everything a restart needs is on disk;
    call :meth:`restore` (or :meth:`serve`) to rebuild the queue.

    Raises:
        ConfigurationError: ``max_workers > 1`` together with a
            ``queue_dir``, which every job would refuse.
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        *,
        quota: Optional[QuotaPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        max_workers: int = 1,
        chunk_size: Optional[int] = 1,
        queue_dir: Optional[Union[str, Path]] = None,
        store_max_archives: Optional[int] = None,
        store_max_bytes: Optional[int] = None,
    ) -> None:
        if queue_dir is not None and max_workers > 1:
            raise ConfigurationError(
                "a work queue runs campaign chunks on 'm2hew worker' "
                "processes, never on a local pool; pass --workers 1 "
                "with --queue"
            )
        data = Path(data_dir)
        self.data_dir = data
        self.jobs = JobStore(data / "jobs")
        self.store = ResultStore(
            data / "store",
            max_archives=store_max_archives,
            max_bytes=store_max_bytes,
        )
        self.checkpoint_root = data / "ckpt"
        self.scheduler = CampaignScheduler(quota)
        self.progress = ProgressTracker()
        self.retry = retry or RetryPolicy()
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        #: Shared distributed work queue; jobs fan chunks out to any
        #: ``m2hew worker --queue`` process that mounts it.
        self.queue_dir = None if queue_dir is None else Path(queue_dir)
        #: fingerprint → job_id for queued/running jobs (join-dedup).
        self._inflight: Dict[str, str] = {}
        self._cancel_flags: Dict[str, threading.Event] = {}
        self._wake = asyncio.Event()
        self._tasks: Set["asyncio.Task[None]"] = set()

    # -- lifecycle -------------------------------------------------------

    def restore(self) -> int:
        """Rebuild queue state from persisted job records; returns count requeued."""
        requeued = 0
        for job in self.jobs.load_all():
            if job.state == "queued":
                self.scheduler.requeue(job)
                self._inflight[job.fingerprint] = job.job_id
                self._cancel_flags[job.job_id] = threading.Event()
                self.progress.emit(job.job_id, "state", "queued")
                requeued += 1
        return requeued

    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> HttpServer:
        """Restore, bind, and start dispatching; returns the live server.

        The caller owns the loop: await :meth:`run_forever` (CLI) or
        keep the loop alive some other way (tests), then
        :meth:`shutdown`.
        """
        requeued = self.restore()
        if requeued:
            _logger.info("restored %d queued campaign job(s)", requeued)
        server = HttpServer(self.handle_request, host, port)
        await server.start()
        dispatcher = asyncio.create_task(self._dispatch_loop())
        self._tasks.add(dispatcher)
        dispatcher.add_done_callback(self._tasks.discard)
        self._wake.set()
        return server

    async def run_forever(self, host: str, port: int) -> None:
        """Serve until cancelled (the CLI entry point's body)."""
        server = await self.serve(host, port)
        print(
            f"m2hew service listening on http://{server.host}:{server.port} "
            f"(data: {self.data_dir})",
            flush=True,
        )
        try:
            await asyncio.Event().wait()
        finally:
            await self.shutdown(server)

    async def shutdown(self, server: HttpServer) -> None:
        """Stop accepting connections and cancel the dispatcher.

        Running campaign threads are asked to stop via their cancel
        flags; their journals keep whatever completed, so a restart
        resumes them.
        """
        await server.close()
        for flag in list(self._cancel_flags.values()):
            flag.set()
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    # -- dispatch --------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while True:
                job = self.scheduler.start_next()
                if job is None:
                    break
                task = asyncio.create_task(self._run_job(job))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)

    async def _run_job(self, job: CampaignJob) -> None:
        job.state = "running"
        self.jobs.save(job)
        self.progress.emit(job.job_id, "state", "running")
        flag = self._cancel_flags.setdefault(job.job_id, threading.Event())

        def on_progress(experiment: str, completed: int, total: int) -> None:
            self.progress.emit(
                job.job_id,
                "progress",
                "running",
                experiment=experiment,
                completed=completed,
                total=total,
            )

        try:
            result = await asyncio.to_thread(
                execute_job,
                job,
                store=self.store,
                checkpoint_root=self.checkpoint_root,
                retry=self.retry,
                max_workers=self.max_workers,
                chunk_size=self.chunk_size,
                on_progress=on_progress,
                cancelled=flag.is_set,
                queue_dir=self.queue_dir,
            )
        except JobCancelledError:
            job.state = "cancelled"
        except Exception as exc:
            job.state = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            _logger.exception("job %s failed", job.job_id)
        else:
            job.state = "done"
            job.cached = result.cached
            job.restored = result.restored
        finally:
            self.scheduler.finish(job.job_id)
            if self._inflight.get(job.fingerprint) == job.job_id:
                del self._inflight[job.fingerprint]
            self._cancel_flags.pop(job.job_id, None)
            self.jobs.save(job)
            self.progress.emit(job.job_id, "state", job.state)
            # Bound the store: in-flight fingerprints and the archive
            # this job just produced are protected from eviction.
            try:
                evicted = self.store.enforce_limits(
                    protect=set(self._inflight) | {job.fingerprint}
                )
            except OSError:
                evicted = []
            for fingerprint in evicted:
                _logger.info("evicted archive %s…", fingerprint[:12])
            self._wake.set()

    # -- routing ---------------------------------------------------------

    async def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Route one request (the :class:`HttpServer` handler)."""
        segments = [s for s in request.path.split("/") if s]
        if segments == ["health"] and request.method == "GET":
            return self._health()
        if not segments or segments[0] != "campaigns":
            raise HttpError(404, f"no such resource {request.path!r}")
        if len(segments) == 1:
            if request.method == "POST":
                return self._submit(request)
            if request.method == "GET":
                return self._list()
            raise HttpError(405, f"{request.method} not allowed here")
        job = self.jobs.get(segments[1])
        if job is None:
            raise HttpError(404, f"no such job {segments[1]!r}")
        rest = segments[2:]
        if not rest and request.method == "GET":
            return self._status(job, request)
        if rest == ["events"] and request.method == "GET":
            return self._events(job, request)
        if rest == ["result"] and request.method == "GET":
            return self._result(job)
        if len(rest) == 2 and rest[0] == "files" and request.method == "GET":
            return self._file(job, rest[1])
        if rest == ["cancel"] and request.method == "POST":
            return self._cancel(job)
        raise HttpError(404, f"no such resource {request.path!r}")

    # -- handlers --------------------------------------------------------

    def _health(self) -> HttpResponse:
        states: Dict[str, int] = {}
        for job in self.jobs.jobs_in_order():
            states[job.state] = states.get(job.state, 0) + 1
        return json_response(
            {
                "status": "ok",
                "jobs": states,
                "queued": len(self.scheduler.queued_jobs()),
                "running": len(self.scheduler.running_jobs()),
            }
        )

    def _submit(self, request: HttpRequest) -> HttpResponse:
        try:
            campaign = CampaignRequest.from_dict(request.json())
            fingerprint = request_fingerprint(campaign)
        except ConfigurationError as exc:
            raise HttpError(400, str(exc)) from exc

        inflight_id = self._inflight.get(fingerprint)
        if inflight_id is not None:
            joined = self.jobs.get(inflight_id)
            if joined is not None:
                return json_response(
                    {"job": joined.as_dict(), "created": False, "cache_hit": False}
                )

        if self.store.lookup(fingerprint) is not None:
            for done in reversed(self.jobs.jobs_in_order()):
                if done.fingerprint == fingerprint and done.state == "done":
                    return json_response(
                        {"job": done.as_dict(), "created": False, "cache_hit": True}
                    )
            job = self._new_job(campaign, fingerprint)
            job.state = "done"
            job.cached = True
            self.jobs.save(job)
            self.progress.emit(job.job_id, "state", "done")
            return json_response(
                {"job": job.as_dict(), "created": True, "cache_hit": True}
            )

        job = self._new_job(campaign, fingerprint)
        try:
            self.scheduler.submit(job)
        except QuotaExceededError as exc:
            raise HttpError(429, str(exc)) from exc
        self.jobs.save(job)
        self._inflight[fingerprint] = job.job_id
        self._cancel_flags[job.job_id] = threading.Event()
        self.progress.emit(job.job_id, "state", "queued")
        self._wake.set()
        return json_response(
            {"job": job.as_dict(), "created": True, "cache_hit": False}, status=202
        )

    def _new_job(self, campaign: CampaignRequest, fingerprint: str) -> CampaignJob:
        seq = self.jobs.next_seq()
        return CampaignJob(
            job_id=f"job-{seq:06d}",
            seq=seq,
            request=campaign,
            fingerprint=fingerprint,
        )

    def _list(self) -> HttpResponse:
        return json_response(
            {"jobs": [job.as_dict() for job in self.jobs.jobs_in_order()]}
        )

    def _status(self, job: CampaignJob, request: HttpRequest) -> HttpResponse:
        payload: Dict[str, Any] = {"job": job.as_dict()}
        latest = self.progress.latest(job.job_id)
        payload["latest_event"] = None if latest is None else latest.as_dict()
        since = request.query.get("since")
        if since is not None:
            try:
                cursor = int(since)
            except ValueError as exc:
                raise HttpError(400, "since must be an integer cursor") from exc
            events = self.progress.events_since(job.job_id, cursor)
            payload["events"] = [event.as_dict() for event in events]
            payload["next_cursor"] = (
                events[-1].seq + 1 if events else cursor
            )
        return json_response(payload)

    def _events(self, job: CampaignJob, request: HttpRequest) -> HttpResponse:
        since = request.query.get("since", "0")
        try:
            cursor = int(since)
        except ValueError as exc:
            raise HttpError(400, "since must be an integer cursor") from exc

        async def stream() -> AsyncIterator[bytes]:
            position = cursor
            while True:
                events = self.progress.events_since(job.job_id, position)
                for event in events:
                    position = event.seq + 1
                    line = json_response(event.as_dict()).body
                    yield b"".join(line.split(b"\n")) + b"\n"
                current = self.jobs.get(job.job_id)
                if (
                    not events
                    and (current is None or current.terminal)
                ):
                    return
                if not events:
                    await asyncio.sleep(EVENT_POLL_SECONDS)

        return HttpResponse(stream=stream(), content_type="application/jsonl")

    def _result(self, job: CampaignJob) -> HttpResponse:
        if job.state != "done":
            raise HttpError(
                409, f"job {job.job_id} is {job.state}, not done"
            )
        report = self.store.verify(job.fingerprint)
        if not report.ok:
            # The archive rotted (or was torn) after the job finished;
            # serving it is not an option and the job can no longer
            # honor its result, so it degrades to failed. Resubmitting
            # the campaign recomputes it.
            self.store.discard(job.fingerprint)
            job.state = "failed"
            job.error = "stored archive failed verification; resubmit"
            self.jobs.save(job)
            self.progress.emit(job.job_id, "state", "failed")
            raise HttpError(500, job.error)
        return json_response(
            {
                "job_id": job.job_id,
                "fingerprint": job.fingerprint,
                "files": self.store.archive_files(job.fingerprint),
                "verification": report.as_dict(),
            }
        )

    def _file(self, job: CampaignJob, name: str) -> HttpResponse:
        if job.state != "done":
            raise HttpError(
                409, f"job {job.job_id} is {job.state}, not done"
            )
        try:
            body = self.store.read_file(job.fingerprint, name)
        except (ConfigurationError, OSError) as exc:
            raise HttpError(404, f"archive file {name!r}: {exc}") from exc
        return HttpResponse(body=body, content_type="application/json")

    def _cancel(self, job: CampaignJob) -> HttpResponse:
        if job.terminal:
            raise HttpError(
                409, f"job {job.job_id} already {job.state}"
            )
        if self.scheduler.cancel_queued(job.job_id):
            job.state = "cancelled"
            if self._inflight.get(job.fingerprint) == job.job_id:
                del self._inflight[job.fingerprint]
            self._cancel_flags.pop(job.job_id, None)
            self.jobs.save(job)
            self.progress.emit(job.job_id, "state", "cancelled")
        else:
            # Running: cooperative — the worker observes the flag at its
            # next progress point and unwinds, keeping journaled trials.
            flag = self._cancel_flags.get(job.job_id)
            if flag is not None:
                flag.set()
        return json_response({"job": job.as_dict()})
