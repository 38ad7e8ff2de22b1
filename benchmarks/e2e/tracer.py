"""Span recorder for the end-to-end benchmark's traced runs.

The tracer observes the program from outside. It rebinds the module (or
class) attributes through which callers look up public functions, so
every call made through them opens a span, and it substitutes engine
subclasses that switch on the program's own ``SlotProfiler``. Nothing
under ``src/`` is edited, and archived bytes cannot change: the wrappers
return exactly what the wrapped functions return.

Spans record name, start, end, parent and a trace id (the campaign
fingerprint or job id of the work they belong to). They stay in memory
until :meth:`Tracer.dump`. All processes of a workload read
``time.perf_counter``, which on Linux is the system-wide monotonic clock,
so spans from the coordinator, the server and the workers share one
time axis.

:func:`layer_metrics` turns the dumps of every process into the
per-layer metrics that ``BENCHMARK.json`` declares; the README maps each
one to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


@dataclass
class Span:
    """One timed call at a layer boundary."""

    span_id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    trace: str = ""
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """Layer name, qualified by the tag an engine or size gave it."""
        tag = self.attrs.get("tag")
        return f"{self.name}.{tag}" if tag else self.name

    def as_list(self) -> List[Any]:
        return [
            self.span_id,
            self.parent,
            self.name,
            self.start,
            self.end,
            self.trace,
            self.attrs,
        ]

    @classmethod
    def from_list(cls, row: Sequence[Any]) -> "Span":
        return cls(*row[:6], attrs=dict(row[6]))


Hook = Callable[[Span, tuple, dict, Any], None]


class Tracer:
    """Records spans and counts for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(time, name, value)`` samples recorded inside spans.
        self.counts: List[Tuple[float, str, float]] = []
        #: Patch targets that no longer exist in the program.
        self.skipped: List[str] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("e2e_span", default=None)
        )
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, trace: Optional[str] = None) -> Iterator[Span]:
        parent = self._current.get()
        record = Span(
            span_id=next(self._ids),
            parent=None if parent is None else parent.span_id,
            name=name,
            start=perf_counter(),
            trace=trace or ("" if parent is None else parent.trace),
        )
        token = self._current.set(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._current.reset(token)
            self.spans.append(record)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts.append((perf_counter(), name, float(value)))

    def tag_current(self, tag: str) -> None:
        """Qualify the innermost open span (engines name their kind)."""
        current = self._current.get()
        if current is not None:
            current.attrs["tag"] = tag

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        *,
        trace: Optional[Callable[[tuple, dict], str]] = None,
        tag: Optional[Callable[[tuple, dict], str]] = None,
        observe: Optional[Hook] = None,
    ) -> Callable[..., Any]:
        """A wrapper around ``fn`` that records one span per call."""

        def enter(record: Span, args: tuple, kwargs: dict) -> None:
            if tag is not None:
                record.attrs["tag"] = tag(args, kwargs)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                with self.span(name, trace(args, kwargs) if trace else None) as rec:
                    enter(rec, args, kwargs)
                    result = await fn(*args, **kwargs)
                    if observe is not None:
                        observe(rec, args, kwargs, result)
                    return result

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, trace(args, kwargs) if trace else None) as rec:
                enter(rec, args, kwargs)
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(rec, args, kwargs, result)
                return result

        return traced

    # -- patching --------------------------------------------------------

    def _resolve(self, module_name: str, qualname: str) -> Optional[Tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` or ``None`` (recorded as skipped)."""
        try:
            owner: Any = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if path else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.skipped.append(f"{module_name}.{qualname}")
            return None
        return owner, attr, original

    def _rebind(self, original: Any, replacement: Any) -> None:
        """Replace ``original`` in every ``repro`` module that binds it."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, original))

    def patch(self, module_name: str, qualname: str, name: str, **hooks: Any) -> None:
        """Trace a function or method looked up as ``module.qualname``."""
        found = self._resolve(module_name, qualname)
        if found is None:
            return
        owner, attr, original = found
        wrapper = self.wrap(original, name, **hooks)
        if "." in qualname:  # a method: callers look it up on the class
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
        else:
            self._rebind(original, wrapper)

    def substitute_engine(
        self,
        module_name: str,
        class_name: str,
        tag: Optional[str],
        phases: Optional[str],
    ) -> None:
        """Swap an engine class for a subclass that tags and profiles it.

        ``tag`` qualifies the span the engine runs in (the engine kind);
        ``phases`` names the prefix its ``SlotProfiler`` phases are
        counted under, ``None`` for engines without a profiler.
        """
        found = self._resolve(module_name, class_name)
        if found is None:
            return
        _, _, base = found
        tracer = self

        class Traced(base):  # type: ignore[misc,valid-type]
            def __init__(self, *args: Any, **kwargs: Any) -> None:
                if phases is not None:
                    kwargs["profile"] = True
                super().__init__(*args, **kwargs)
                if tag is not None:
                    tracer.tag_current(tag)

            def run(self, *args: Any, **kwargs: Any) -> Any:
                result = super().run(*args, **kwargs)
                if phases is not None:
                    for phase, stats in (self.profile() or {}).items():
                        tracer.count(f"{phases}.{phase}.s", stats["seconds"])
                return result

        Traced.__name__ = Traced.__qualname__ = base.__name__
        self._rebind(base, Traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ----------------------------------------------------------

    def document(self, role: str) -> Dict[str, Any]:
        """Everything recorded, as JSON-ready data for :class:`ProcessTrace`."""
        return {
            "role": role,
            "pid": os.getpid(),
            "spans": [s.as_list() for s in self.spans],
            "counts": self.counts,
            "skipped": self.skipped,
        }

    def dump(self, path: Path, role: str) -> None:
        Path(path).write_text(json.dumps(self.document(role)), encoding="utf-8")


# ----------------------------------------------------------------------
# what gets traced
# ----------------------------------------------------------------------


def _observe_write(record: Span, args: tuple, kwargs: dict, _: Any) -> None:
    record.attrs["bytes"] = len(args[1] if len(args) > 1 else kwargs["text"])


def _observe_supervised(record: Span, args: tuple, kwargs: dict, outcome: Any) -> None:
    kinds = [event.kind for event in outcome.events]
    record.attrs["retries"] = kinds.count("retry")
    record.attrs["reclaims"] = kinds.count("lease_reclaim")
    record.attrs["quarantined"] = len(outcome.quarantined)


def _observe_publish(record: Span, args: tuple, kwargs: dict, task_id: str) -> None:
    queue, payload = args[0], args[1]
    record.attrs["task"] = task_id
    record.attrs["chunks"] = len(payload.get("chunks") or [])
    record.attrs["bytes"] = os.path.getsize(queue.task_path(task_id))


def _observe_claim(record: Span, args: tuple, kwargs: dict, ok: bool) -> None:
    record.attrs.update(task=args[1], chunk=args[2], ok=bool(ok))


def _observe_step(record: Span, args: tuple, kwargs: dict, status: Any) -> None:
    record.attrs["busy"] = status is not None


def _observe_request(record: Span, args: tuple, kwargs: dict, response: Any) -> None:
    request = args[1]
    segments = [s for s in request.path.split("/") if s]
    if len(segments) >= 2:
        record.trace = segments[1]
    if request.method == "POST" and segments == ["campaigns"] and response.status == 202:
        record.attrs["accepted"] = json.loads(response.body)["job"]["job_id"]


def _observe_execute(record: Span, args: tuple, kwargs: dict, result: Any) -> None:
    record.attrs["job"] = args[0].job_id


def _observe_evictions(record: Span, args: tuple, kwargs: dict, evicted: List[str]) -> None:
    record.attrs["evicted"] = len(evicted)


def install_program_tracing(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics read.

    Called in the coordinator, and by ``launch.py`` in the server and
    worker processes.
    """
    p = tracer.patch
    p("repro.workloads.generator", "generate_network", "workloads.generate_network")
    p("repro.service.campaigns", "campaign_specs", "service.campaigns.campaign_specs")
    p("repro.sim.batch", "run_batch", "sim.batch.run_batch")
    p(
        "repro.resilience.atomic",
        "atomic_write_text",
        "resilience.atomic.atomic_write_text",
        observe=_observe_write,
    )
    p("repro.resilience.verify", "verify_archive", "resilience.verify.verify_archive")
    p(
        "repro.resilience.checkpoint",
        "TrialJournal.record",
        "resilience.checkpoint.TrialJournal.record",
    )
    p(
        "repro.resilience.supervisor",
        "run_supervised_trials",
        "resilience.supervisor.run_supervised_trials",
        observe=_observe_supervised,
    )
    p("repro.sim.parallel", "run_spec_trials", "sim.parallel.run_spec_trials")
    p("repro.sim.parallel", "run_grid_spec_trials", "sim.parallel.run_grid_spec_trials")
    p("repro.sim.runner", "run_experiment_trial", "sim.runner.run_experiment_trial")
    p(
        "repro.sim.runner",
        "run_experiment_grid_batched",
        "sim.runner.run_experiment_grid_batched",
        tag=lambda args, kwargs: f"n{args[0].num_nodes}",
    )
    tracer.substitute_engine("repro.sim.fast_slotted", "FastSlottedSimulator", "fast", "sim.fast_slotted")
    tracer.substitute_engine("repro.sim.slotted", "SlottedSimulator", "reference", None)
    tracer.substitute_engine("repro.sim.async_engine", "AsyncSimulator", "async", None)
    # Grid spans are tagged by network size instead (see above).
    tracer.substitute_engine("repro.sim.batched", "GridBatchedSimulator", None, "sim.batched")

    q = "repro.resilience.distributed"
    p(q, "WorkQueue.publish_task", "resilience.distributed.publish_task", observe=_observe_publish)
    p(q, "WorkQueue.claim", "resilience.distributed.claim", observe=_observe_claim)
    p(q, "WorkQueue.heartbeat", "resilience.distributed.heartbeat")
    p(q, "WorkQueue.write_marker", "resilience.distributed.write_marker")
    p(q, "QueueWorker.step", "worker.step", observe=_observe_step)

    p(
        "repro.service.app",
        "CampaignService.handle_request",
        "service.app.handle_request",
        observe=_observe_request,
    )
    p(
        "repro.service.worker",
        "execute_job",
        "service.worker.execute_job",
        trace=lambda args, kwargs: args[0].job_id,
        observe=_observe_execute,
    )
    p("repro.service.store", "ResultStore.lookup", "service.store.lookup")
    p(
        "repro.service.store",
        "ResultStore.enforce_limits",
        "service.store.enforce_limits",
        observe=_observe_evictions,
    )
    p("repro.service.client", "ServiceClient.status", "client.status")


# ----------------------------------------------------------------------
# self time and per-layer metrics
# ----------------------------------------------------------------------


def union_length(intervals: Sequence[Interval]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, so a child that
    outlives its parent (a task it started) is charged only for the
    overlap. ``spans`` must come from one process (span ids are local).
    """
    children: Dict[int, List[Interval]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result = {}
    for s in spans:
        clipped = [
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(s.span_id, ())
            if hi > s.start and lo < s.end
        ]
        result[s.span_id] = (s.end - s.start) - union_length(clipped)
    return result


@dataclass
class ProcessTrace:
    """One process's dump, restricted to a time window."""

    role: str
    spans: List[Span]
    counts: List[Tuple[float, str, float]]
    skipped: List[str]

    @classmethod
    def load(cls, document: Dict[str, Any], window: Interval) -> "ProcessTrace":
        lo, hi = window
        return cls(
            role=document["role"],
            spans=[
                s
                for s in (Span.from_list(row) for row in document["spans"])
                if lo <= s.start <= hi
            ],
            counts=[tuple(c) for c in document["counts"] if lo <= c[0] <= hi],  # type: ignore[misc]
            skipped=list(document["skipped"]),
        )


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(
    processes: Sequence[ProcessTrace],
    names: Sequence[str],
    *,
    window: Interval,
    jobs: int,
    simulated_slots: float,
    overhead_frac: float,
) -> Dict[str, float]:
    """The per-layer metrics ``names`` from the traced window of one workload.

    Times and counts are per completed job, so runs that complete
    different numbers of jobs compare directly. A layer the workload
    never enters reads 0.
    """
    per_job = 1.0 / max(jobs, 1)
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    attr_sum: Dict[str, float] = defaultdict(float)
    counted: Dict[str, float] = defaultdict(float)
    publish_end: Dict[str, float] = {}
    claims: List[Span] = []
    accepted_at: Dict[str, float] = {}
    started_at: Dict[str, float] = {}
    task_bytes: List[float] = []
    chunks_published = 0.0
    idle = 0.0
    for proc in processes:
        own = self_times(proc.spans)
        busy: List[Interval] = []
        for s in proc.spans:
            self_s[s.key] += own[s.span_id]
            calls[s.key] += 1
            for key in ("bytes", "retries", "reclaims", "quarantined", "evicted"):
                if key in s.attrs:
                    attr_sum[f"{s.name}.{key}"] += s.attrs[key]
            if s.name == "resilience.distributed.publish_task":
                publish_end[s.attrs["task"]] = s.end
                task_bytes.append(s.attrs["bytes"])
                chunks_published += s.attrs["chunks"]
            elif s.name == "resilience.distributed.claim" and s.attrs.get("ok"):
                claims.append(s)
            elif s.name == "service.app.handle_request" and "accepted" in s.attrs:
                accepted_at[s.attrs["accepted"]] = s.end
            elif s.name == "service.worker.execute_job":
                started_at[s.attrs["job"]] = s.start
            elif s.name == "worker.step" and s.attrs.get("busy"):
                busy.append((s.start, s.end))
        for _, name, value in proc.counts:
            counted[name] += value
        if proc.role == "worker":
            idle += (window[1] - window[0]) - union_length(
                [(max(lo, window[0]), min(hi, window[1])) for lo, hi in busy]
            )

    # Totals over the window, keyed by metric name, then made per job.
    totals: Dict[str, float] = defaultdict(float, counted)
    totals.update(attr_sum)
    totals.update({f"{key}.s": secs for key, secs in self_s.items()})
    totals.update({f"{key}.calls": n for key, n in calls.items()})
    totals["resilience.distributed.reclaims"] = attr_sum[
        "resilience.supervisor.run_supervised_trials.reclaims"
    ]
    totals["service.store.evictions"] = attr_sum["service.store.enforce_limits.evicted"]
    totals["client.status_polls"] = calls["client.status"]
    totals["worker.idle_s"] = idle
    out = {name: totals[name] * per_job for name in names}

    waits = [c.start - publish_end[c.attrs["task"]] for c in claims if c.attrs["task"] in publish_end]
    queue_waits = [started_at[job] - accepted_at[job] for job in started_at if job in accepted_at]
    out.update(
        {
            "resilience.distributed.claim_wait_s": _median(waits),
            "resilience.distributed.task_bytes": _median(task_bytes),
            "resilience.distributed.useful_ratio": (
                chunks_published / len(claims) if claims else 1.0
            ),
            "service.queue_wait_s.p50": _median(queue_waits),
            "sim.simulated_slots": simulated_slots,
            "trace.overhead_frac": overhead_frac,
        }
    )
    return {name: float(out[name]) for name in names}


def self_time_table(processes: Sequence[ProcessTrace], jobs: int) -> List[str]:
    """Human-readable rows: every span name, its calls and self seconds."""
    rows: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0.0, 0.0])
    for proc in processes:
        own = self_times(proc.spans)
        for s in proc.spans:
            row = rows[(proc.role, s.key)]
            row[0] += 1
            row[1] += own[s.span_id]
    lines = [f"{'process':<12} {'layer':<52} {'calls':>8} {'self_s':>10} {'self_s/job':>11}"]
    for (role, key), (n, secs) in sorted(rows.items(), key=lambda item: -item[1][1]):
        lines.append(
            f"{role:<12} {key:<52} {int(n):>8} {secs:>10.4f} {secs / max(jobs, 1):>11.5f}"
        )
    return lines
