"""Declarative experiment batches.

A release-quality reproduction needs a way to describe a whole campaign
— several (workload, protocol, parameters) combinations, each with
seeded trials — and archive everything it produced. An
:class:`ExperimentSpec` names one combination; :func:`run_batch`
executes the campaign and (optionally) writes one JSON file per
experiment plus a manifest, so a results directory is self-describing
and every number in a paper table can be traced to raw trial files.

Archives are written in format 2 (:data:`ARCHIVE_SCHEMA_VERSION`):
every file lands atomically (tmp + fsync + rename), every payload
carries a ``schema_version`` and the manifest records a SHA-256 per
file — ``m2hew verify-archive`` checks all of it.

Every campaign runs through one dispatch path, the supervisor's chunk
executors (:func:`~repro.resilience.supervisor.run_trial_group`), one
trial group per network at a time: the specs that realize the same
network share one group, whose chunks advance every spec in one grid
pass (the runner runs the specs the grid cannot take trial by trial).
Without a retry policy it fails fast on the first failing trial chunk.
With one (``retry``, or implied by ``checkpoint_dir``, ``chaos`` or a
work queue) failing chunks are retried with seeded backoff, trials that
exhaust their budget are quarantined into the manifest with replay
seeds instead of aborting the campaign, and completed trials are
journaled so an interrupted campaign resumes where it stopped. The
archived bytes of a supervised campaign that recovered are identical to
those of one that ran clean — see :mod:`repro.resilience`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Union,
)

from ..analysis.stats import SampleSummary, summarize
from ..exceptions import ConfigurationError
from ..resilience.atomic import atomic_write_text, sha256_of_text
from ..resilience.chaos import ChaosPlan
from ..resilience.checkpoint import TrialJournal, campaign_fingerprint
from ..resilience.policy import RetryPolicy
from ..resilience.verify import ARCHIVE_SCHEMA_VERSION
from ..workloads.generator import WorkloadConfig, generate_network
from ..core.registry import ASYNCHRONOUS_PROTOCOLS
from .results import DiscoveryResult, indented_json
from .runner import SYNC_PROTOCOLS

if TYPE_CHECKING:  # import cycle: resilience.supervisor dispatches via sim
    from ..resilience.supervisor import QuarantinedTrial, SupervisorEvent

__all__ = [
    "ARCHIVE_SCHEMA_VERSION",
    "ExperimentSpec",
    "BatchOutcome",
    "SYNC_PROTOCOLS",
    "batch_fingerprint",
    "run_batch",
    "spec_fingerprint",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment of a batch.

    Attributes:
        name: Unique label (also the archive file stem).
        workload: Network recipe.
        protocol: Any registered name — :data:`SYNC_PROTOCOLS`
            (synchronous, incl. rivals and baselines) or ``algorithm4``
            (asynchronous).
        trials: Seeded trials to run.
        network_seed: Seed for realizing the workload (one instance per
            distinct network; per-trial randomness varies only the protocol).
        runner_params: Extra keyword arguments for
            :func:`~repro.sim.runner.run_synchronous` /
            :func:`~repro.sim.runner.run_asynchronous` (budgets,
            ``delta_est``, drift, …).
    """

    name: str
    workload: WorkloadConfig
    protocol: str
    trials: int = 5
    network_seed: int = 0
    runner_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise ConfigurationError(
                f"experiment name must be a non-empty file stem, got {self.name!r}"
            )
        if self.protocol not in SYNC_PROTOCOLS + ASYNCHRONOUS_PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r} for batch experiments"
            )
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")


@dataclass
class BatchOutcome:
    """All trials of one experiment, with a completion-time summary.

    ``results`` holds one entry per *completed* trial; a supervised
    campaign with quarantined trials lists them in ``quarantined`` (with
    replay coordinates) instead. Each result's ``metadata["trial"]``
    carries its true trial index, so gaps are attributable.
    """

    spec: ExperimentSpec
    results: List[DiscoveryResult]
    network_params: Dict[str, float]
    completion: Optional[SampleSummary]
    completed_fraction: float
    quarantined: List["QuarantinedTrial"] = field(default_factory=list)
    events: List["SupervisorEvent"] = field(default_factory=list)
    #: Trials restored from a checkpoint journal rather than executed.
    restored: int = 0

    def as_row(self) -> Dict[str, Any]:
        """Row form for table rendering."""
        row: Dict[str, Any] = {
            "experiment": self.spec.name,
            "protocol": self.spec.protocol,
            "trials": len(self.results),
            "completed": round(self.completed_fraction, 3),
        }
        if self.completion is not None:
            row["mean_time"] = round(self.completion.mean, 2)
            row["p90_time"] = round(self.completion.p90, 2)
        return row


def spec_fingerprint(spec: ExperimentSpec, base_seed: Optional[int]) -> str:
    """Content fingerprint of one experiment's *inputs*.

    Hashes everything that determines the experiment's archived bytes —
    the workload recipe, network seed, protocol, trial count, base seed
    and the archived form of the runner params — and nothing about *how*
    it executes (workers, backend, chunking, supervision), which by the
    byte-identity contract cannot influence the output. A checkpoint
    journal must match this fingerprint to resume, and the campaign
    service keys its dedup store on :func:`batch_fingerprint`, which is
    built from these.
    """
    return campaign_fingerprint(
        {
            "base_seed": base_seed,
            "name": spec.name,
            "network_seed": spec.network_seed,
            "protocol": spec.protocol,
            "runner_params": _archived_runner_params(spec.runner_params),
            "trials": spec.trials,
            "workload": spec.workload.describe(),
        }
    )


def batch_fingerprint(
    specs: Sequence[ExperimentSpec], base_seed: Optional[int]
) -> str:
    """Content fingerprint of a whole campaign (``run_batch`` inputs).

    Per-experiment fingerprints are combined *in spec order* because the
    manifest lists experiments in that order — reordering the same specs
    produces a different archive, so it must produce a different
    fingerprint. Two campaigns with equal fingerprints archive
    byte-identical directories; any change to a parameter, seed, trial
    count, fault plan or experiment order changes the fingerprint.
    """
    return campaign_fingerprint(
        {
            "base_seed": base_seed,
            "experiments": [
                {"name": spec.name, "fingerprint": spec_fingerprint(spec, base_seed)}
                for spec in specs
            ],
        }
    )


def _network_groups(specs: Sequence[ExperimentSpec]) -> List[List[int]]:
    """Spec indices grouped by workload recipe and network seed, in order."""
    groups: Dict[str, List[int]] = {}
    for i, spec in enumerate(specs):
        key = json.dumps(
            {"workload": spec.workload.describe(), "seed": spec.network_seed},
            sort_keys=True,
        )
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _run_group(
    group: Sequence[ExperimentSpec],
    base_seed: Optional[int],
    *,
    checkpoint_dir: Optional[Union[str, Path]],
    on_progress: Optional[Callable[[str, int, int], None]],
    **dispatch: Any,
) -> List[BatchOutcome]:
    """Run specs that share one network as one trial group.

    The network is realized once and every spec gets its own journal,
    outcome and progress reports (see
    :func:`~repro.resilience.supervisor.run_trial_group`).
    """
    # Deferred import: repro.sim's eager imports would otherwise race
    # the resilience package's own initialization.
    from ..resilience.supervisor import GroupEntry, run_trial_group

    network = generate_network(group[0].workload, seed=group[0].network_seed)
    journals: List[Optional[TrialJournal]] = []
    try:
        for spec in group:
            journals.append(
                None
                if checkpoint_dir is None
                else TrialJournal.open(
                    checkpoint_dir, spec.name, spec_fingerprint(spec, base_seed)
                )
            )
        supervised = run_trial_group(
            network,
            [
                GroupEntry(s.name, s.protocol, s.trials, s.runner_params)
                for s in group
            ],
            base_seed=base_seed,
            label=" + ".join(s.name for s in group),
            journals=journals,
            on_progress=(
                None
                if on_progress is None
                else lambda j, done, total: on_progress(group[j].name, done, total)
            ),
            **dispatch,
        )
    finally:
        for journal in journals:
            if journal is not None:
                journal.close()

    outcomes = []
    for spec, trials in zip(group, supervised):
        # Campaign metadata is stamped in the parent, after reassembly
        # (and after any checkpoint restore), so archived bytes cannot
        # depend on where — or in which run — a trial happened to execute.
        indexed = trials.results_in_order()
        for t, result in indexed:
            result.metadata["experiment"] = spec.name
            result.metadata["trial"] = t
            result.metadata["workload"] = spec.workload.describe()
        results = [result for _, result in indexed]
        times = [
            float(r.completion_time) for r in results if r.completion_time is not None
        ]
        outcomes.append(
            BatchOutcome(
                spec=spec,
                results=results,
                network_params=dict(network.parameter_summary()),
                completion=summarize(times) if times else None,
                completed_fraction=sum(r.completed for r in results) / spec.trials,
                quarantined=list(trials.quarantined),
                events=list(trials.events),
                restored=trials.restored,
            )
        )
    return outcomes


def run_batch(
    specs: Sequence[ExperimentSpec],
    base_seed: Optional[int] = 0,
    output_dir: Optional[Union[str, Path]] = None,
    *,
    max_workers: int = 1,
    backend: str = "auto",
    chunk_size: Optional[int] = None,
    trial_timeout: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    chaos: Optional[ChaosPlan] = None,
    on_progress: Optional[Callable[[str, int, int], None]] = None,
    queue_dir: Optional[Union[str, Path]] = None,
    lease: Optional[Any] = None,
) -> List[BatchOutcome]:
    """Run every experiment; optionally archive raw trials + manifest.

    Args:
        specs: The campaign; names must be unique.
        base_seed: Root seed — trial ``t`` of every experiment uses
            ``derive_trial_seed(base_seed, t)``, so two experiments on
            the same workload face identical protocol randomness and
            differ only in what is being compared.
        output_dir: If given, write ``<name>.json`` per experiment (all
            trial results) and ``manifest.json``, all atomically and
            checksummed (format :data:`ARCHIVE_SCHEMA_VERSION`).
        max_workers: Trial fan-out per experiment: more than 1 runs a
            process pool where the platform can host one (see
            :func:`~repro.resilience.supervisor.run_trial_group`).
            Archived output is byte-identical for any worker count, so
            neither it nor ``backend`` is recorded in the manifest.
        backend: ``auto`` (default) or ``vectorized`` (an in-process
            group runs as one chunk; see
            :data:`~repro.sim.parallel.BACKENDS`), or ``distributed``
            (with ``queue_dir``; chunks run on ``m2hew worker``
            processes). Under each of them experiments that share a
            workload recipe and network seed run as one trial group on
            one realized network, fused into parameter-grid chunks
            (:class:`~repro.sim.batched.GridBatchedSimulator`) — still
            byte-identical to per-spec execution, under every retry,
            checkpoint and chaos setting. The group's retry budget and
            pool-breakage count span all of its specs.
        chunk_size: Trials per dispatch unit (default: auto when
            pooled or queued, else per trial index, or every trial
            under ``vectorized``).
        trial_timeout: Per-trial wall-clock budget in seconds; only a
            pool enforces it, so it needs ``max_workers > 1``.
        retry: Supervise execution with this retry/quarantine policy
            (see :class:`~repro.resilience.policy.RetryPolicy`) instead
            of failing the campaign on the first trial error.
        checkpoint_dir: Journal completed trials here and restore any
            found from a previous interrupted run of the same campaign
            (implies supervision). The resumed campaign's archives are
            byte-identical to an uninterrupted run's.
        chaos: Deterministic execution-layer fault plan (implies
            supervision); for tests and recovery drills.
        queue_dir: Shared work-queue directory (implies supervision):
            chunks are published for ``m2hew worker`` processes on any
            host to claim, with this process coordinating — see
            :mod:`repro.resilience.distributed`. Archives stay
            byte-identical for any worker count or kill schedule. It
            takes no ``max_workers > 1``: the queue's workers are the
            fan-out.
        lease: Optional
            :class:`~repro.resilience.distributed.LeasePolicy`
            (cadence/TTL knobs for the queue protocol); only with
            ``queue_dir``.
        on_progress: Optional observer called with ``(experiment name,
            trials completed, trials total)`` as each experiment
            advances (per collected chunk — per trial index on a
            default serial run, so a network's experiments interleave
            — always in dispatch order). Purely
            observational and never recorded, so passing it cannot
            change archived bytes; an exception it raises aborts the
            campaign (cooperative cancellation).

    Campaigns that quarantined trials or degraded their backend record
    a ``"resilience"`` section in the manifest (with replay seeds per
    quarantined trial); campaigns that ran clean — retries included —
    archive bytes indistinguishable from a fail-fast run.
    """
    if not specs:
        raise ConfigurationError("batch needs at least one experiment")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate experiment names: {sorted(names)}")

    if retry is None and (
        checkpoint_dir is not None
        or chaos is not None
        or queue_dir is not None
        or backend == "distributed"
    ):
        retry = RetryPolicy()  # resuming, drills and sharding imply recovery
    outcomes: Dict[int, BatchOutcome] = {}
    for group in _network_groups(specs):
        for i, outcome in zip(
            group,
            _run_group(
                [specs[i] for i in group],
                base_seed,
                checkpoint_dir=checkpoint_dir,
                on_progress=on_progress,
                max_workers=max_workers,
                backend=backend,
                chunk_size=chunk_size,
                trial_timeout=trial_timeout,
                policy=retry,
                chaos=chaos,
                queue_dir=None if queue_dir is None else Path(queue_dir),
                lease=lease,
            ),
        ):
            outcomes[i] = outcome
    ordered = [outcomes[i] for i in range(len(specs))]

    if output_dir is not None:
        _archive(ordered, base_seed, Path(output_dir))
    return ordered


def _archive(
    outcomes: Sequence[BatchOutcome], base_seed: Optional[int], out: Path
) -> None:
    """Write the format-2 archive: per-experiment payloads + manifest."""
    from ..resilience.supervisor import ARCHIVED_EVENT_KINDS

    out.mkdir(parents=True, exist_ok=True)
    manifest: Dict[str, Any] = {
        "schema_version": ARCHIVE_SCHEMA_VERSION,
        "base_seed": base_seed,
        "experiments": [],
    }
    quarantined: List[Dict[str, Any]] = []
    downgrades: List[Dict[str, Any]] = []
    for outcome in outcomes:
        text = _payload_text(outcome)
        atomic_write_text(out / f"{outcome.spec.name}.json", text)
        manifest["experiments"].append(
            {
                "name": outcome.spec.name,
                "file": f"{outcome.spec.name}.json",
                "sha256": sha256_of_text(text),
                "summary": outcome.as_row(),
            }
        )
        quarantined.extend(q.as_dict() for q in outcome.quarantined)
        downgrades.extend(
            e.as_dict()
            for e in outcome.events
            if e.kind in ARCHIVED_EVENT_KINDS
        )
    # Only a campaign that actually lost trials or changed how it
    # executed gets a resilience section — recovered-but-clean runs must
    # archive byte-identical to never-faulted ones.
    if quarantined or downgrades:
        manifest["resilience"] = {
            "quarantined": quarantined,
            "downgrades": downgrades,
        }
    atomic_write_text(
        out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True)
    )


def _archived_spec(spec: ExperimentSpec) -> Dict[str, Any]:
    """The ``spec`` entry of an experiment file."""
    return {
        "name": spec.name,
        "protocol": spec.protocol,
        "trials": spec.trials,
        "network_seed": spec.network_seed,
        "workload": spec.workload.describe(),
        "runner_params": _archived_runner_params(spec.runner_params),
    }


def _payload_text(outcome: BatchOutcome) -> str:
    """One experiment file, as ``json.dumps(indent=2, sort_keys=True)`` of::

        {"network_params": ..., "schema_version": ...,
         "spec": _archived_spec(...), "trials": [DiscoveryResult.to_dict(), ...]}

    composed in that (sorted) key order, each trial through
    :meth:`~repro.sim.results.DiscoveryResult.to_json`, so the bytes
    are the stdlib's without its pure-Python indent encoder.
    """
    if outcome.results:
        trials = (
            "[\n    "
            + ",\n    ".join([r.to_json(2) for r in outcome.results])
            + "\n  ]"
        )
    else:
        trials = "[]"
    return (
        '{\n  "network_params": '
        + indented_json(outcome.network_params, 1)
        + ',\n  "schema_version": '
        + indented_json(ARCHIVE_SCHEMA_VERSION, 1)
        + ',\n  "spec": '
        + indented_json(_archived_spec(outcome.spec), 1)
        + ',\n  "trials": '
        + trials
        + "\n}"
    )


def _jsonable(value: Any) -> Any:
    try:
        json.dumps(value)
        return value
    except TypeError:
        return str(value)


def _archived_runner_params(params: Dict[str, Any]) -> Dict[str, Any]:
    """JSON form of a spec's runner params for the experiment archive.

    Fault plans archive via their dict form (so a replay rebuilds the
    exact plan); trivial or absent plans are omitted entirely, keeping
    the archived bytes of a zero-intensity campaign identical to those
    of a fault-free one.
    """
    archived: Dict[str, Any] = {}
    for k, v in params.items():
        if k == "faults":
            from ..faults.serialization import as_fault_plan, plan_to_dict

            plan = as_fault_plan(v)
            if plan is None or plan.is_trivial:
                continue
            archived[k] = plan_to_dict(plan)
        else:
            archived[k] = _jsonable(v)
    return archived
