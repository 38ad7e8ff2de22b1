"""Command-line interface (``m2hew``).

Subcommands:

* ``scenarios`` — list the named workloads;
* ``info`` — realize a scenario and print its N/S/Δ/ρ parameters;
* ``profile`` — detailed structural statistics of a scenario instance;
* ``run-sync`` — run a synchronous algorithm on a scenario;
* ``run-async`` — run Algorithm 4 on a scenario with drifting clocks;
* ``compare`` — run several algorithms on one scenario and tabulate;
* ``batch`` — run a seeded multi-protocol campaign, optionally fanned
  out over worker processes (``--workers``), with JSON archiving;
  ``--retries``/``--checkpoint``/``--resume`` run it supervised
  (retry + quarantine + checkpoint/resume, see
  :mod:`repro.resilience`); ``--queue DIR`` (or ``--backend
  distributed``) shards trial chunks over ``m2hew worker`` processes
  through a lease-based file queue, archiving byte-identical results;
* ``worker`` — run one distributed campaign worker against a shared
  ``--queue`` directory: claim chunks by atomic lease, heartbeat,
  execute, publish results (see :mod:`repro.resilience.distributed`);
* ``submit`` — submit a campaign to a running ``m2hew serve`` over
  HTTP (stdlib client), stream its progress, and optionally download
  the verified archive;
* ``tournament`` — race every registered protocol across the standing
  league of (workload × fault preset) cells and print Welch-ranked
  standings (see :mod:`repro.analysis.tournament`);
* ``serve`` — run the async HTTP campaign service: submissions queue
  under quota control, execute supervised with checkpoint journals,
  dedup by campaign fingerprint against a store of verified archives,
  and stream per-job progress (see :mod:`repro.service`);
* ``fingerprint`` — compute a campaign's content fingerprint from its
  parameters without running it (the dedup/store key);
* ``verify-archive`` — check a campaign archive against its manifest
  (checksums, schema stamps, truncation, orphan files); ``--json``
  emits the machine-readable report;
* ``timeline`` — render an asynchronous frame timeline (paper Fig. 2);
* ``terminate`` — run with node-local termination and report energy;
* ``bounds`` — print every theorem budget for given parameters;
* ``lint`` — run the repo's determinism/model-invariant static analysis;
* ``audit`` — run the whole-program determinism audit: RNG
  stream-provenance registry, parallel-ordering rules, and cross-layer
  parity contracts (see :mod:`repro.devtools.audit`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .analysis.energy import EnergyModel, energy_report
from .analysis.network_stats import profile_network
from .analysis.tables import format_table
from .analysis.tournament import DEFAULT_MAX_SLOTS, DEFAULT_TRIALS
from .core import bounds
from .core.registry import ASYNCHRONOUS_PROTOCOLS
from .core.termination import TerminationPolicy, recommended_quiet_threshold
from .exceptions import ConfigurationError
from .faults.plan import FaultPlan
from .faults.presets import fault_preset_names
from .resilience.distributed import DISTRIBUTED_BACKEND
from .sim.parallel import BACKENDS
from .sim.rng import RngFactory
from .sim.runner import (
    CLOCK_MODELS,
    SYNC_PROTOCOLS,
    experiment_runner_params,
    random_start_offsets,
    run_asynchronous,
    run_synchronous,
)
from .sim.termination_runner import run_terminating_sync
from .workloads.scenarios import Scenario, scenario, scenario_names

__all__ = ["main", "build_parser"]


def _add_faults_argument(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--faults",
        default="scenario",
        choices=["scenario", "none"] + fault_preset_names(),
        help=(
            "fault plan: 'scenario' (the scenario's own plan, if any), "
            "'none', or a named preset"
        ),
    )


def _resolve_faults(args: argparse.Namespace, s: Scenario) -> Optional[FaultPlan]:
    from .service.campaigns import resolve_fault_plan

    return resolve_fault_plan(args.faults, s)


def _campaign_arguments(cmd: argparse.ArgumentParser) -> None:
    """Campaign-identity flags shared by ``batch`` and ``fingerprint``.

    One helper so the two commands cannot drift: a fingerprint computed
    from these flags is the fingerprint the equivalent ``batch`` run
    (and the service) will use.
    """
    cmd.add_argument("scenario", choices=scenario_names())
    cmd.add_argument(
        "--protocols",
        nargs="+",
        default=list(SYNC_PROTOCOLS),
        choices=SYNC_PROTOCOLS + ASYNCHRONOUS_PROTOCOLS,
    )
    cmd.add_argument("--trials", type=int, default=5)
    cmd.add_argument("--seed", type=int, default=0, help="campaign base seed")
    cmd.add_argument(
        "--network-seed", type=int, default=0, help="workload realization seed"
    )
    cmd.add_argument("--max-slots", type=int, default=200_000)
    cmd.add_argument("--delta-est", type=int, default=None)
    _add_faults_argument(cmd)


def _campaign_request(args: argparse.Namespace) -> "Any":
    """Build the validated campaign request the flags describe."""
    from .service.campaigns import CampaignRequest

    return CampaignRequest(
        scenario=args.scenario,
        protocols=tuple(args.protocols),
        trials=args.trials,
        base_seed=args.seed,
        network_seed=args.network_seed,
        max_slots=args.max_slots,
        delta_est=args.delta_est,
        faults=args.faults,
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``m2hew`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="m2hew",
        description=(
            "Neighbor discovery in multi-hop multi-channel heterogeneous "
            "wireless networks (ICDCS 2011 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenarios", help="list named workload scenarios")

    info = sub.add_parser("info", help="print a scenario's network parameters")
    info.add_argument("scenario", choices=scenario_names())
    info.add_argument("--seed", type=int, default=0)

    profile = sub.add_parser(
        "profile", help="structural statistics of a scenario instance"
    )
    profile.add_argument("scenario", choices=scenario_names())
    profile.add_argument("--seed", type=int, default=0)

    term = sub.add_parser(
        "terminate",
        help="run with node-local termination detection and report energy",
    )
    term.add_argument("scenario", choices=scenario_names())
    term.add_argument("--seed", type=int, default=0)
    term.add_argument("--delta-est", type=int, default=None)
    term.add_argument(
        "--policy", default="beacon", choices=("beacon", "sleep")
    )
    term.add_argument(
        "--local-epsilon",
        type=float,
        default=1e-3,
        help="per-node false-stop probability target for the threshold",
    )
    term.add_argument("--slot-ms", type=float, default=10.0)

    sync = sub.add_parser("run-sync", help="run a synchronous algorithm")
    sync.add_argument("scenario", choices=scenario_names())
    sync.add_argument(
        "--protocol",
        default="algorithm3",
        choices=SYNC_PROTOCOLS,
    )
    sync.add_argument("--seed", type=int, default=0)
    sync.add_argument("--max-slots", type=int, default=200_000)
    sync.add_argument("--delta-est", type=int, default=None)
    sync.add_argument(
        "--stagger",
        type=int,
        default=0,
        help="random start offsets in [0, STAGGER] slots",
    )
    _add_faults_argument(sync)

    asyn = sub.add_parser("run-async", help="run Algorithm 4 with drifting clocks")
    asyn.add_argument("scenario", choices=scenario_names())
    asyn.add_argument("--seed", type=int, default=0)
    asyn.add_argument("--delta-est", type=int, default=None)
    asyn.add_argument("--drift", type=float, default=0.01)
    asyn.add_argument(
        "--clock-model",
        default="constant",
        choices=CLOCK_MODELS,
    )
    asyn.add_argument("--frame-length", type=float, default=1.0)
    asyn.add_argument("--max-frames", type=int, default=100_000)
    asyn.add_argument("--start-spread", type=float, default=5.0)
    _add_faults_argument(asyn)

    tline = sub.add_parser(
        "timeline",
        help="render an asynchronous run's frame timeline (paper Fig. 2)",
    )
    tline.add_argument("scenario", choices=scenario_names())
    tline.add_argument("--seed", type=int, default=0)
    tline.add_argument("--delta-est", type=int, default=None)
    tline.add_argument("--drift", type=float, default=0.05)
    tline.add_argument("--start", type=float, default=10.0)
    tline.add_argument("--end", type=float, default=25.0)
    tline.add_argument("--width", type=int, default=100)
    tline.add_argument("--nodes", type=int, default=4, help="rows to show")

    comp = sub.add_parser(
        "compare",
        help="run several algorithms on one scenario and tabulate",
    )
    comp.add_argument("scenario", choices=scenario_names())
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument("--trials", type=int, default=5)
    comp.add_argument("--max-slots", type=int, default=200_000)
    comp.add_argument("--delta-est", type=int, default=None)
    comp.add_argument(
        "--protocols",
        nargs="+",
        default=list(SYNC_PROTOCOLS),
        choices=SYNC_PROTOCOLS,
    )

    batch = sub.add_parser(
        "batch",
        help=(
            "run a seeded multi-protocol campaign, optionally fanned out "
            "over worker processes, archiving JSON results"
        ),
    )
    _campaign_arguments(batch)
    batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="trial fan-out processes (1 = serial; output is identical)",
    )
    batch.add_argument(
        "--backend",
        choices=BACKENDS + (DISTRIBUTED_BACKEND,),
        default="auto",
    )
    batch.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help=(
            "trial indices per dispatch chunk, each run as one grid pass "
            "(default: 1 in-process, auto with --workers or --queue)"
        ),
    )
    batch.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        help=(
            "per-trial wall-clock budget in seconds (only a pool enforces "
            "it: needs --workers > 1)"
        ),
    )
    batch.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="archive directory (one JSON per experiment + manifest.json)",
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "supervise execution: retry each failing trial chunk up to N "
            "times with seeded backoff before quarantining it"
        ),
    )
    batch.add_argument(
        "--no-quarantine",
        action="store_true",
        help=(
            "abort the campaign when a trial exhausts its retries instead "
            "of quarantining it into the manifest"
        ),
    )
    batch.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help=(
            "journal completed trials to DIR so an interrupted campaign "
            "can be resumed (implies supervision)"
        ),
    )
    batch.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help=(
            "resume from the checkpoint journals in DIR, skipping trials "
            "they already record (same as --checkpoint, but DIR must exist)"
        ),
    )
    batch.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help=(
            "inject deterministic execution-layer faults for recovery "
            "drills: comma-separated mode@trial[xTIMES] with mode in "
            "raise|exit|timeout|worker-kill|lease-steal|stale-heartbeat, "
            "e.g. 'raise@3,exit@0x2'"
        ),
    )
    batch.add_argument(
        "--queue",
        default=None,
        metavar="DIR",
        help=(
            "shared distributed work-queue directory: trial chunks are "
            "published for 'm2hew worker --queue DIR' processes (any "
            "host mounting DIR) and reclaimed from dead workers; output "
            "is byte-identical to a serial run (implies --backend "
            "distributed)"
        ),
    )
    batch.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "distributed lease time-to-live: a chunk lease whose worker "
            "heartbeat goes stale for this long is reclaimed (default 15; "
            "needs --queue)"
        ),
    )

    fingerprint = sub.add_parser(
        "fingerprint",
        help=(
            "compute a campaign's content fingerprint from its parameters "
            "without running it (the dedup key used by the service store "
            "and checkpoint journals)"
        ),
    )
    _campaign_arguments(fingerprint)
    fingerprint.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit {fingerprint, request} as JSON",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the async HTTP campaign service (submit/status/result/"
            "cancel/list + health; fingerprint dedup, checkpoint resume, "
            "progress streaming)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--data-dir",
        default="m2hew-service",
        metavar="DIR",
        help="service state root (job records, result store, checkpoints)",
    )
    serve.add_argument(
        "--max-active",
        type=int,
        default=1,
        help="campaigns executing concurrently",
    )
    serve.add_argument(
        "--max-queued", type=int, default=16, help="submissions allowed to wait"
    )
    serve.add_argument(
        "--max-per-client",
        type=int,
        default=8,
        help="open (queued+running) jobs per client",
    )
    serve.add_argument(
        "--min-interval",
        type=float,
        default=0.0,
        help="minimum seconds between one client's submissions",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "trial fan-out processes per campaign (output is identical; "
            "1 with --queue)"
        ),
    )
    serve.add_argument(
        "--chunk-size",
        type=int,
        default=1,
        help=(
            "trials per dispatch unit (default 1: per-trial journaling "
            "and progress; archives are chunking-invariant)"
        ),
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=2,
        help="supervised retry budget per failing trial chunk",
    )
    serve.add_argument(
        "--queue",
        default=None,
        metavar="DIR",
        help=(
            "shared distributed work-queue directory: campaign chunks "
            "are published for 'm2hew worker --queue DIR' processes "
            "instead of running in the service process"
        ),
    )
    serve.add_argument(
        "--store-max-archives",
        type=int,
        default=None,
        metavar="N",
        help=(
            "cap the result store at N archives; least-recently-used "
            "archives are evicted after each job (in-flight "
            "jobs' archives are never evicted)"
        ),
    )
    serve.add_argument(
        "--store-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="cap the result store's total archive bytes (LRU eviction)",
    )

    worker = sub.add_parser(
        "worker",
        help=(
            "run one distributed campaign worker: claim trial chunks "
            "from a shared queue directory by atomic lease, heartbeat, "
            "execute, publish results (crash-tolerant; see "
            "docs/resilience.md)"
        ),
    )
    worker.add_argument(
        "--queue",
        required=True,
        metavar="DIR",
        help="shared work-queue directory (same DIR the coordinator uses)",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity (default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        metavar="N",
        help="exit after executing N chunks (default: run until idle-exit)",
    )
    worker.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "exit after this long with no claimable work "
            "(default: keep polling forever)"
        ),
    )
    worker.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="lease time-to-live advertised by heartbeats (default 15)",
    )
    worker.add_argument(
        "--poll-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds between queue scans when idle (default 0.2)",
    )

    submit = sub.add_parser(
        "submit",
        help=(
            "submit a campaign to a running 'm2hew serve' instance over "
            "HTTP, stream its progress, and optionally download the "
            "verified archive"
        ),
    )
    _campaign_arguments(submit)
    submit.add_argument("--host", default="127.0.0.1", help="service host")
    submit.add_argument("--port", type=int, default=8642, help="service port")
    submit.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help=(
            "download the verified archive into DIR (it remains "
            "self-verifying: 'm2hew verify-archive DIR' checks it)"
        ),
    )
    submit.add_argument(
        "--poll-interval",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="seconds between status polls while waiting",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up waiting after this long (default: wait forever)",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="submit and print the job record without waiting",
    )

    tour = sub.add_parser(
        "tournament",
        help=(
            "race registered protocols across the standing league of "
            "(workload x fault preset) cells; print Welch-ranked standings"
        ),
    )
    tour.add_argument(
        "--protocols",
        nargs="+",
        default=list(SYNC_PROTOCOLS),
        choices=SYNC_PROTOCOLS,
    )
    tour.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    tour.add_argument("--max-slots", type=int, default=DEFAULT_MAX_SLOTS)
    tour.add_argument("--seed", type=int, default=0, help="campaign base seed")
    tour.add_argument(
        "--workers",
        type=int,
        default=1,
        help="trial fan-out processes (1 = serial; output is identical)",
    )
    tour.add_argument("--backend", choices=BACKENDS, default="auto")
    tour.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="archive directory (one JSON per cell x protocol + manifest.json)",
    )

    varch = sub.add_parser(
        "verify-archive",
        help="check a campaign archive against its manifest checksums",
    )
    varch.add_argument("directory", help="archive directory to verify")
    varch.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the machine-readable verification report as JSON",
    )

    bnd = sub.add_parser("bounds", help="print the paper's theorem budgets")
    bnd.add_argument("--s", type=int, required=True, help="S (max channel set size)")
    bnd.add_argument("--delta", type=int, required=True, help="max degree")
    bnd.add_argument("--rho", type=float, required=True, help="min span-ratio")
    bnd.add_argument("--n", type=int, required=True, help="number of nodes")
    bnd.add_argument("--epsilon", type=float, default=0.1)
    bnd.add_argument("--delta-est", type=int, required=True)
    bnd.add_argument("--frame-length", type=float, default=1.0)
    bnd.add_argument("--drift", type=float, default=0.0)

    lint = sub.add_parser(
        "lint",
        help="determinism & model-invariant static analysis (D/M/Q rules)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule ID (repeatable), e.g. --rule D102",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--list-rules", action="store_true", help="list rule IDs and exit"
    )

    audit = sub.add_parser(
        "audit",
        help=(
            "whole-program determinism audit: RNG stream provenance, "
            "parallel-ordering hazards, engine parity contracts "
            "(S/P/C rules + stream-registry drift)"
        ),
    )
    audit.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to audit (default: src)",
    )
    audit.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this audit rule ID (repeatable), e.g. --rule S401",
    )
    audit.add_argument("--format", choices=("text", "json"), default="text")
    audit.add_argument(
        "--list-rules", action="store_true", help="list audit rule IDs and exit"
    )
    audit.add_argument(
        "--registry",
        default=None,
        metavar="PATH",
        help=(
            "stream-registry snapshot to diff against (default: the "
            "committed src/repro/devtools/stream_registry.json)"
        ),
    )
    audit.add_argument(
        "--update-registry",
        action="store_true",
        help="rewrite the registry snapshot from the audited sources",
    )
    audit.add_argument(
        "--no-registry-check",
        action="store_true",
        help="skip the registry drift comparison",
    )

    return parser


def _cmd_scenarios() -> int:
    rows = []
    for name in scenario_names():
        s = scenario(name)
        rows.append(
            {
                "name": s.name,
                "delta_est": s.delta_est,
                "epsilon": s.epsilon,
                "description": s.description,
            }
        )
    print(format_table(rows, columns=["name", "delta_est", "epsilon", "description"]))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    s = scenario(args.scenario)
    network = s.build(args.seed)
    rows = [network.parameter_summary()]
    print(format_table(rows, title=f"{s.name} (seed {args.seed})"))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    s = scenario(args.scenario)
    network = s.build(args.seed)
    profile = profile_network(network)
    print(format_table([network.parameter_summary()], title=f"{s.name} parameters"))
    print()
    print(
        format_table(
            [
                {
                    "mean_span_ratio": round(profile.mean_span_ratio, 3),
                    "heterogeneity_index": round(profile.heterogeneity_index, 3),
                    "asymmetric_links": profile.asymmetric_links,
                    "isolated_nodes": len(profile.isolated_nodes),
                }
            ],
            title="Heterogeneity",
        )
    )
    print()
    print(format_table(profile.as_rows(), title="Per-channel structure"))
    return 0


def _cmd_terminate(args: argparse.Namespace) -> int:
    s = scenario(args.scenario)
    network = s.build(args.seed)
    delta_est = args.delta_est if args.delta_est is not None else s.delta_est
    threshold = recommended_quiet_threshold(
        network.max_channel_set_size,
        delta_est,
        network.min_span_ratio,
        args.local_epsilon,
    )
    outcome = run_terminating_sync(
        network,
        "algorithm3",
        seed=args.seed,
        max_slots=10 * threshold,
        quiet_threshold=threshold,
        delta_est=delta_est,
        policy=TerminationPolicy(args.policy),
    )
    report = energy_report(
        outcome.result, EnergyModel.cc2420(), slot_seconds=args.slot_ms / 1000.0
    )
    stops = sorted(
        t for t in outcome.terminated_at.values() if t is not None
    )
    print(
        format_table(
            [
                {
                    "quiet_threshold": threshold,
                    "policy": args.policy,
                    "all_stopped": outcome.all_stopped,
                    "false_stops": len(outcome.false_stops),
                    "output_complete": outcome.output_complete,
                    "median_stop_slot": stops[len(stops) // 2] if stops else None,
                    "total_joules": round(report.total_joules, 3),
                }
            ],
            title=f"{s.name} / algorithm3 with quiescence termination",
        )
    )
    return 0 if outcome.output_complete else 1


def _cmd_run_sync(args: argparse.Namespace) -> int:
    s = scenario(args.scenario)
    network = s.build(args.seed)
    delta_est = args.delta_est if args.delta_est is not None else s.delta_est
    offsets = None
    if args.stagger > 0:
        offsets = random_start_offsets(
            network, args.stagger, RngFactory(args.seed).stream("offsets")
        )
    result = run_synchronous(
        network,
        args.protocol,
        seed=args.seed,
        start_offsets=offsets,
        faults=_resolve_faults(args, s),
        **experiment_runner_params(
            args.protocol, network, delta_est=delta_est, max_slots=args.max_slots
        ),
    )
    print(format_table([dict(result.summary())], title=f"{s.name} / {args.protocol}"))
    if not result.completed:
        print(f"uncovered links: {result.uncovered_links()[:10]}", file=sys.stderr)
        return 1
    return 0


def _cmd_run_async(args: argparse.Namespace) -> int:
    s = scenario(args.scenario)
    network = s.build(args.seed)
    delta_est = args.delta_est if args.delta_est is not None else s.delta_est
    result = run_asynchronous(
        network,
        seed=args.seed,
        delta_est=delta_est,
        frame_length=args.frame_length,
        max_frames_per_node=args.max_frames,
        drift_bound=args.drift,
        clock_model=args.clock_model,
        start_spread=args.start_spread,
        faults=_resolve_faults(args, s),
    )
    print(
        format_table(
            [dict(result.summary())],
            title=f"{s.name} / algorithm4 (drift {args.drift})",
        )
    )
    return 0 if result.completed else 1


def _cmd_timeline(args: argparse.Namespace) -> int:
    from .analysis.timeline import render_trace
    from .sim.trace import ExecutionTrace

    s = scenario(args.scenario)
    network = s.build(args.seed)
    delta_est = args.delta_est if args.delta_est is not None else s.delta_est
    trace = ExecutionTrace()
    run_asynchronous(
        network,
        seed=args.seed,
        delta_est=delta_est,
        max_frames_per_node=max(50, int(args.end) + 10),
        drift_bound=args.drift,
        clock_model="constant",
        start_spread=min(args.start, 5.0),
        stop_on_full_coverage=False,
        trace=trace,
    )
    print(
        f"{s.name}: frames over real time [{args.start}, {args.end}] "
        f"(drift {args.drift}; T=transmit, L=listen, |=frame, .=slot)"
    )
    print(
        render_trace(
            trace,
            args.start,
            args.end,
            width=args.width,
            nodes=trace.node_ids[: args.nodes],
        )
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .service.campaigns import CampaignRequest, campaign_specs
    from .sim.batch import run_batch

    s = scenario(args.scenario)
    delta_est = args.delta_est if args.delta_est is not None else s.delta_est
    # One fault-free campaign on the network of ``--seed``: the
    # protocols share that network and every trial seed, so each trial
    # index runs as one grid pass over the protocols the grid takes.
    specs = campaign_specs(
        CampaignRequest(
            scenario=args.scenario,
            protocols=tuple(args.protocols),
            trials=args.trials,
            base_seed=args.seed,
            network_seed=args.seed,
            max_slots=args.max_slots,
            delta_est=args.delta_est,
            faults="none",
        )
    )
    outcomes = run_batch(specs, base_seed=args.seed)
    rows = []
    for outcome in outcomes:
        completed = sum(r.completed for r in outcome.results)
        row: Dict[str, Any] = {
            "protocol": outcome.spec.protocol,
            "completed": f"{completed}/{args.trials}",
        }
        if outcome.completion is not None:
            row["mean_slots"] = round(outcome.completion.mean, 1)
            row["p90_slots"] = round(outcome.completion.p90, 1)
            row["max_slots"] = outcome.completion.maximum
        rows.append(row)
    print(
        format_table(
            rows,
            title=(
                f"{s.name}: protocol comparison "
                f"(delta_est={delta_est}, {args.trials} trials)"
            ),
        )
    )
    return 0 if all(o.completed_fraction == 1.0 for o in outcomes) else 1


def _resolve_resilience(
    args: argparse.Namespace,
) -> "tuple[Any, Optional[str], Any]":
    """(retry policy, checkpoint dir, chaos plan) from batch flags."""
    from .resilience import RetryPolicy, parse_chaos_spec

    retry = None
    if args.retries is not None or args.no_quarantine:
        kwargs: Dict[str, Any] = {"quarantine": not args.no_quarantine}
        if args.retries is not None:
            kwargs["max_retries"] = args.retries
        retry = RetryPolicy(**kwargs)
    if args.checkpoint is not None and args.resume is not None:
        raise ConfigurationError(
            "pass either --checkpoint or --resume, not both (resume "
            "already journals the trials it runs)"
        )
    checkpoint_dir = args.checkpoint or args.resume
    if args.resume is not None and not Path(args.resume).is_dir():
        raise ConfigurationError(
            f"--resume {args.resume}: no such checkpoint directory"
        )
    chaos = parse_chaos_spec(args.chaos) if args.chaos is not None else None
    return retry, checkpoint_dir, chaos


def _lease_policy(
    lease_ttl: Optional[float], poll_interval: Optional[float] = None
) -> "Any":
    """A :class:`LeasePolicy` from CLI overrides, or ``None`` for defaults.

    A short ``--lease-ttl`` drags the heartbeat interval down with it so
    the policy stays self-consistent (heartbeats must outpace the TTL).
    """
    from .resilience.distributed import LeasePolicy

    if lease_ttl is None and poll_interval is None:
        return None
    kwargs: Dict[str, Any] = {}
    if lease_ttl is not None:
        kwargs["lease_ttl"] = lease_ttl
        kwargs["heartbeat_interval"] = min(2.0, lease_ttl / 4.0)
    if poll_interval is not None:
        kwargs["poll_interval"] = poll_interval
    return LeasePolicy(**kwargs)


def _cmd_batch(args: argparse.Namespace) -> int:
    from .exceptions import TrialExecutionError
    from .service.campaigns import campaign_specs
    from .sim.batch import batch_fingerprint, run_batch

    s = scenario(args.scenario)
    # The expansion is shared with the campaign service (m2hew serve) so
    # both surfaces hand run_batch identical specs — hence identical
    # archived bytes and identical fingerprints — for equal parameters.
    specs = campaign_specs(_campaign_request(args))
    retry, checkpoint_dir, chaos = _resolve_resilience(args)
    print(
        f"campaign fingerprint: {batch_fingerprint(specs, args.seed)}",
        file=sys.stderr,
    )
    try:
        outcomes = run_batch(
            specs,
            base_seed=args.seed,
            output_dir=args.output,
            max_workers=args.workers,
            backend=args.backend,
            chunk_size=args.chunk_size,
            trial_timeout=args.trial_timeout,
            retry=retry,
            checkpoint_dir=checkpoint_dir,
            chaos=chaos,
            queue_dir=args.queue,
            lease=_lease_policy(args.lease_ttl),
        )
    except TrialExecutionError as exc:
        # The campaign aborted (no supervision, quarantine disabled, or
        # the retry budget ran out); the message carries the replay
        # coordinates: derive_trial_seed(base_seed, trial).
        print(f"campaign failed: {exc}", file=sys.stderr)
        return 3
    print(
        format_table(
            [o.as_row() for o in outcomes],
            title=(
                f"{s.name}: campaign of {args.trials} trials "
                f"(base seed {args.seed}, {args.workers} worker(s))"
            ),
        )
    )
    restored = sum(o.restored for o in outcomes)
    if restored:
        print(
            f"resumed: {restored} trial(s) restored from checkpoint",
            file=sys.stderr,
        )
    for outcome in outcomes:
        for q in outcome.quarantined:
            print(
                f"quarantined: {q.experiment} trial {q.trial} "
                f"(replay seed derive_trial_seed({q.base_seed}, {q.trial})): "
                f"{q.error}",
                file=sys.stderr,
            )
    if args.output:
        print(f"archived to {args.output}/manifest.json", file=sys.stderr)
    return 0 if all(o.completed_fraction == 1.0 for o in outcomes) else 1


def _cmd_tournament(args: argparse.Namespace) -> int:
    from .analysis.tournament import run_tournament

    result = run_tournament(
        protocols=args.protocols,
        trials=args.trials,
        base_seed=args.seed,
        max_slots=args.max_slots,
        output_dir=args.output,
        max_workers=args.workers,
        backend=args.backend,
    )
    print(result.render())
    if args.output:
        print(f"archived to {args.output}/manifest.json", file=sys.stderr)
    return 0


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    from .service.campaigns import request_fingerprint

    request = _campaign_request(args)
    fingerprint = request_fingerprint(request)
    if args.as_json:
        print(
            json.dumps(
                {"fingerprint": fingerprint, "request": request.as_dict()},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(fingerprint)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .resilience import RetryPolicy
    from .service import CampaignService, QuotaPolicy

    service = CampaignService(
        args.data_dir,
        quota=QuotaPolicy(
            max_active=args.max_active,
            max_queued=args.max_queued,
            max_per_client=args.max_per_client,
            min_interval=args.min_interval,
        ),
        retry=RetryPolicy(max_retries=args.retries),
        max_workers=args.workers,
        chunk_size=args.chunk_size,
        queue_dir=args.queue,
        store_max_archives=args.store_max_archives,
        store_max_bytes=args.store_max_bytes,
    )
    try:
        asyncio.run(service.run_forever(args.host, args.port))
    except KeyboardInterrupt:
        print(
            "service interrupted; job records and checkpoints preserved — "
            "restart with the same --data-dir to resume",
            file=sys.stderr,
        )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .resilience.distributed import run_worker

    executed = run_worker(
        args.queue,
        worker_id=args.worker_id,
        lease=_lease_policy(args.lease_ttl, args.poll_interval),
        max_chunks=args.max_chunks,
        idle_exit=args.idle_exit,
        on_status=lambda line: print(line, file=sys.stderr, flush=True),
    )
    print(f"worker exiting after {executed} chunk(s)", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port)
    try:
        envelope = client.submit(_campaign_request(args))
    except (ServiceError, OSError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2
    job = envelope["job"]
    job_id = job["job_id"]
    print(
        f"job {job_id}: {job['state']}"
        + (" (cache hit)" if envelope.get("cache_hit") else ""),
        file=sys.stderr,
    )
    if args.no_wait:
        print(json.dumps(job, indent=2, sort_keys=True))
        return 0

    def on_event(event: Dict[str, Any]) -> None:
        if event.get("kind") == "progress":
            print(
                f"  {event.get('experiment')}: "
                f"{event.get('completed')}/{event.get('total')} trials",
                file=sys.stderr,
            )
        elif event.get("kind") == "state":
            print(f"job {job_id}: {event.get('state')}", file=sys.stderr)

    try:
        final = client.wait(
            job_id,
            poll_interval=args.poll_interval,
            timeout=args.timeout,
            on_event=on_event,
        )
    except TimeoutError as exc:
        print(str(exc), file=sys.stderr)
        return 4
    except (ServiceError, OSError) as exc:
        print(f"wait failed: {exc}", file=sys.stderr)
        return 2
    if final.get("state") != "done":
        error = final.get("error") or "no detail"
        print(f"job {job_id} ended {final.get('state')}: {error}", file=sys.stderr)
        return 1
    if args.output is not None:
        try:
            listing = client.fetch_result(job_id)
            out = Path(args.output)
            out.mkdir(parents=True, exist_ok=True)
            for name in listing["files"]:
                (out / name).write_bytes(client.fetch_file(job_id, name))
        except (ServiceError, OSError) as exc:
            print(f"download failed: {exc}", file=sys.stderr)
            return 2
        print(
            f"archive downloaded to {out} "
            f"({len(listing['files'])} file(s), verified server-side); "
            f"check locally with: m2hew verify-archive {out}",
            file=sys.stderr,
        )
    print(json.dumps(final, indent=2, sort_keys=True))
    return 0


def _cmd_verify_archive(args: argparse.Namespace) -> int:
    from .resilience import verify_archive

    report = verify_archive(args.directory)
    if args.as_json:
        print(report.to_json())
        return 0 if report.ok else 1
    if report.ok:
        print(
            f"{args.directory}: OK ({report.files_checked} file(s) verified)"
        )
        return 0
    for issue in report.issues:
        print(str(issue), file=sys.stderr)
    print(
        f"{args.directory}: CORRUPT ({len(report.issues)} issue(s))",
        file=sys.stderr,
    )
    return 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    budget = bounds.summary(
        s=args.s,
        delta=args.delta,
        rho=args.rho,
        n=args.n,
        epsilon=args.epsilon,
        delta_est=args.delta_est,
        frame_length=args.frame_length,
        drift=args.drift,
    )
    rows = [{"bound": k, "value": v} for k, v in budget.items()]
    print(format_table(rows, columns=["bound", "value"]))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools.lint import lint_paths
    from .devtools.rules import all_rules, select_rules

    if args.list_rules:
        rows = [
            {"id": rule.rule_id, "title": rule.title} for rule in all_rules()
        ]
        print(format_table(rows, columns=["id", "title"]))
        return 0
    if args.rule:
        try:
            rules = select_rules(args.rule)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    else:
        rules = None
    report = lint_paths(args.paths, rules=rules)
    print(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    from .devtools.audit import DEFAULT_REGISTRY_PATH, run_audit
    from .devtools.rules import all_audit_rules, select_audit_rules

    if args.list_rules:
        rows = [
            {"id": rule.rule_id, "title": rule.title}
            for rule in all_audit_rules()
        ]
        print(format_table(rows, columns=["id", "title"]))
        return 0
    if args.rule:
        try:
            rules = select_audit_rules(args.rule)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    else:
        rules = None
    registry_path = (
        Path(args.registry) if args.registry is not None else DEFAULT_REGISTRY_PATH
    )
    report = run_audit(
        args.paths,
        rules=rules,
        registry_path=registry_path,
        check_registry=not (args.no_registry_check or args.update_registry),
    )
    if args.update_registry:
        registry_path.write_text(
            json.dumps(report.registry, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"registry snapshot written to {registry_path}", file=sys.stderr)
    print(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    An invalid campaign (:class:`~repro.exceptions.ConfigurationError`)
    exits 2, argparse's usage code, never ``batch``'s 1 or 3.
    """
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        print(f"m2hew: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "scenarios":
        return _cmd_scenarios()
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "terminate":
        return _cmd_terminate(args)
    if args.command == "run-sync":
        return _cmd_run_sync(args)
    if args.command == "run-async":
        return _cmd_run_async(args)
    if args.command == "timeline":
        return _cmd_timeline(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "tournament":
        return _cmd_tournament(args)
    if args.command == "fingerprint":
        return _cmd_fingerprint(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "verify-archive":
        return _cmd_verify_archive(args)
    if args.command == "bounds":
        return _cmd_bounds(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "audit":
        return _cmd_audit(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
