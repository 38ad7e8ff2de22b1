"""The four workloads of the end-to-end benchmark and the loop that drives them.

This is the child process ``run.py`` starts, one per workload::

    python3 benchmarks/e2e/workloads.py WORKLOAD --seed N --seconds S --trace 0|1 --out DIR

It prints the workload's metric lines and, last, one JSON result. With
``--setup`` it instead performs one set-up of an in-process workload
(import, spec expansion, network build) and exits; ``setup_s`` times
five such fresh interpreters.

Every workload is a closed loop: a client submits its next job only
when the previous one returned a verified archive. Job ``k`` is a pure
function of ``(--seed, k)``, so the same seed gives the same inputs and
the program sees nothing but those inputs; with ``c`` clients, client
``k mod c`` runs it. Clients issue jobs for ``--seconds`` seconds, then
the jobs in flight finish.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import repro.resilience.verify as verify  # noqa: E402
import repro.service.campaigns as campaigns  # noqa: E402
import repro.sim.batch as batch  # noqa: E402
import repro.workloads.generator as generator  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402

from run import units  # noqa: E402
from tracer import (  # noqa: E402
    ProcessTrace,
    Span,
    Tracer,
    install_program_tracing,
    layer_metrics,
    self_time_table,
)

SETUPS = 5
MIN_JOBS = 2
GOLDEN_SEED = 7
GOLDENS = HERE / "goldens.json"
T = TypeVar("T")
#: Seconds :func:`probe` takes on the reference host (see the README,
#: "Host-speed adjustment"). Reported times are scaled to that host.
PROBE_REF_S = 0.03
perf_counter = time.perf_counter


def probe() -> float:
    """CPU seconds a fixed piece of work takes right now on this host.

    Pure-Python arithmetic and small NumPy array operations, the mix the
    simulators spend their time in, but no code of the program, so a
    change to the program cannot move it. The host's speed drifts with
    other tenants' load by up to 2x within a minute; a job's latency
    divided by its slowdown (probe before and after it, over
    :data:`PROBE_REF_S`) removes most of that drift. The probe counts
    its own thread's CPU time, so waiting for the GIL or for a core the
    workload's other threads and processes hold does not count as a
    slow host.
    """
    t0 = time.thread_time()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    rng = np.random.default_rng(0)
    for _ in range(150):
        picks = rng.integers(0, 64, size=2000)
        _, counts = np.unique(picks, return_counts=True)
        total += int(picks[picks > 32].sum()) + int(counts.max())
    return time.thread_time() - t0


def timed(action: Callable[[], T]) -> Tuple[T, float, float]:
    """``(result, seconds, slowdown)`` of ``action()``, where the host's
    slowdown is probed right before and right after it."""
    before = probe()
    t0 = perf_counter()
    result = action()
    seconds = perf_counter() - t0
    return result, seconds, (before + probe()) / (2 * PROBE_REF_S)


def job_rng(seed: int, salt: int, k: int) -> np.random.Generator:
    """The generator every input of job ``k`` is drawn from."""
    return np.random.default_rng([seed, salt, k])


def job_seeds(seed: int, salt: int, k: int) -> Tuple[int, int]:
    """``(base_seed, network_seed)`` of job ``k``."""
    base, network = job_rng(seed, salt, k).integers(0, 2**31, size=2)
    return int(base), int(network)


def geometric(nodes: int, radius: float) -> generator.WorkloadConfig:
    """Connected random-geometric network, ``common_channel_plus_random`` U=12 |A|=4."""
    return generator.WorkloadConfig(
        topology="random_geometric",
        topology_params={"num_nodes": nodes, "radius": radius, "require_connected": True},
        channel_model="common_channel_plus_random",
        channel_params={"universal_size": 12, "set_size": 4},
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_archive(archive: Path) -> Tuple[str, List[str]]:
    """``(digest, problems)`` of a ``run_batch`` archive directory.

    The manifest holds the SHA-256 of every experiment file and
    ``verify_archive`` checks them, so the manifest's own hash is a
    digest of the whole verified archive.
    """
    problems = [str(issue) for issue in verify.verify_archive(archive).issues]
    try:
        manifest = (archive / "manifest.json").read_bytes()
        if "resilience" in json.loads(manifest):
            problems.append("archive records quarantined trials or downgrades")
    except (OSError, ValueError) as exc:
        return "", problems + [f"manifest unreadable: {exc}"]
    return sha256(manifest), problems


def results_digest(outcomes: Sequence[batch.BatchOutcome]) -> str:
    """Digest of a campaign's results when it writes no archive.

    Covers every trial's horizon, completion and per-link discovery
    time, in spec and trial order: everything the archive derives from.
    """
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(outcome.spec.name.encode())
        for r in outcome.results:
            times = [-1.0 if t is None else t for _, t in sorted(r.coverage.items())]
            digest.update(np.asarray([r.horizon, r.completed, *times], dtype=float).tobytes())
    return digest.hexdigest()


def slots_of(trials: Sequence[Tuple[str, float]]) -> float:
    """Slots simulated by the synchronous ones of ``(time_unit, horizon)`` trials."""
    return sum(horizon for unit, horizon in trials if unit == "slots")


@dataclass
class Job:
    """One submitted campaign and what the benchmark observed of it."""

    index: int
    trials: int = 0
    digest: str = ""
    problems: List[str] = field(default_factory=list)
    latency: float = 0.0
    #: Host slowdown around the job, from :func:`timed`.
    slowdown: float = 1.0
    end: float = 0.0
    #: The service answered from its result store.
    cached: bool = False
    #: Simulated slots (read for job 0: ``sim.simulated_slots``).
    slots: float = 0.0
    archive: Optional[Path] = None

    @property
    def adjusted(self) -> float:
        """Latency scaled to the reference host."""
        return self.latency / self.slowdown


@dataclass
class Pass:
    """One closed-loop measurement window and the checks made on it."""

    start: float
    end: float
    jobs: List[Job]
    clients: int = 1
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> List[Job]:
        return [j for j in self.jobs if not j.problems]

    def rate(self, amount: Callable[[Job], float]) -> float:
        """Completed ``amount`` per second on the reference host: each
        client's verified amount over its jobs' adjusted latencies,
        summed over the clients."""
        total = 0.0
        for c in range(self.clients):
            mine = [j for j in self.jobs if j.index % self.clients == c]
            busy = sum(j.adjusted for j in mine)
            total += sum(amount(j) for j in mine if not j.problems) / busy if busy else 0.0
        return total

    def trials_per_s(self) -> float:
        return self.rate(lambda j: j.trials)


class Context:
    """What a workload needs from the run: seed, scratch space, tracer."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.tracer: Optional[Tracer] = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
        self._dirs = itertools.count()

    def fresh_path(self, label: str) -> Path:
        return self.work / f"{label}-{next(self._dirs)}"

    @contextlib.contextmanager
    def job_span(self, trace: str) -> Iterator[Optional[Span]]:
        if self.tracer is None:
            yield None
        else:
            with self.tracer.span("e2e.job", trace=trace) as span:
                yield span


# ----------------------------------------------------------------------
# processes a workload starts
# ----------------------------------------------------------------------


def m2hew(ctx: Context, role: str, argv: List[str], traced: bool) -> Tuple[List[str], Optional[Path]]:
    """Command line for ``m2hew <argv>``; through launch.py when traced."""
    if not traced:
        return [sys.executable, "-m", "repro.cli", *argv], None
    spans = ctx.fresh_path(f"spans-{role}")
    return [sys.executable, str(HERE / "launch.py"), str(spans), role, "--", *argv], spans


def stop(proc: "subprocess.Popen[Any]") -> None:
    """Interrupt (a traced process then writes its spans) and reap."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    """An in-process campaign: ``run_batch`` straight into a verified archive."""

    name = ""
    salt = 0
    clients = 1
    archives = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.span_files: List[Path] = []

    def specs(self, k: int) -> Tuple[int, List[batch.ExperimentSpec]]:
        """``(base_seed, specs)`` of job ``k``."""
        raise NotImplementedError

    def run_options(self) -> Dict[str, Any]:
        return {}

    def prepare(self) -> None:
        """One set-up: expand job 0's specs and build their networks."""
        self.specs(0)

    def setup_once(self) -> None:
        """One timed set-up: a fresh interpreter running :meth:`prepare`."""
        cmd = [sys.executable, __file__, self.name, "--seed", str(self.ctx.seed)]
        cmd += ["--out", str(self.ctx.work), "--setup"]
        subprocess.run(cmd, env=self.ctx.env, check=True)

    def measure_setup(self) -> List[Tuple[float, float]]:
        """``(seconds, slowdown)`` of each of :data:`SETUPS` set-ups."""
        times = []
        for _ in range(SETUPS):
            _, seconds, slowdown = timed(self.setup_once)
            times.append((seconds, slowdown))
            self.stop()
        return times

    def start(self, traced: bool) -> None:
        """Start the processes the jobs need (none in-process)."""

    def stop(self) -> List[Path]:
        """Stop what :meth:`start` started; return the span files written."""
        files, self.span_files = self.span_files, []
        return files

    def run_job(self, k: int) -> Job:
        base_seed, specs = self.specs(k)
        archive = self.ctx.fresh_path(f"job{k}") if self.archives else None
        fingerprint = batch.batch_fingerprint(specs, base_seed) if self.ctx.tracer else ""
        with self.ctx.job_span(fingerprint):
            outcomes = batch.run_batch(
                specs, base_seed=base_seed, output_dir=archive, **self.run_options()
            )
            if archive is None:
                digest, problems = results_digest(outcomes), []
            else:
                digest, problems = check_archive(archive)
        slots = slots_of([(r.time_unit, r.horizon) for o in outcomes for r in o.results])
        return Job(k, sum(s.trials for s in specs), digest, problems, slots=slots)

    def warmup(self) -> Job:
        return self.run_job(0)

    def checks(self, warm: Job, jobs: Sequence[Job]) -> List[str]:
        """Output checks across jobs: job 0 must repeat its warm-up bytes."""
        if jobs and jobs[0].index == 0 and jobs[0].digest != warm.digest:
            return ["job 0 archive differs between warm-up and timed run"]
        return []


class PaperCampaign(Workload):
    """The ``m2hew batch`` path behind the paper tables."""

    name = "paper_campaign"
    salt = 1
    CELLS = (
        ("campus_cr", ("algorithm1", "algorithm2", "algorithm3", "mcdis")),
        ("jammed_urban", ("algorithm3", "robust_staged")),
        ("adversarial_heterogeneous", ("algorithm3", "algorithm4")),
    )
    TRIALS = 2

    def specs(self, k: int) -> Tuple[int, List[batch.ExperimentSpec]]:
        base_seed, network_seed = job_seeds(self.ctx.seed, self.salt, k)
        specs: List[batch.ExperimentSpec] = []
        for scenario, protocols in self.CELLS:
            specs += campaigns.campaign_specs(
                campaigns.CampaignRequest(
                    scenario=scenario,
                    protocols=protocols,
                    trials=self.TRIALS,
                    base_seed=base_seed,
                    network_seed=network_seed,
                )
            )
        return base_seed, specs


class GridKernel(Workload):
    """Grid-fused vectorized campaigns on an N=50 and an N=500 network.

    Results stay in memory (no archive), so the kernel does the work and
    the archive layers are bypassed.
    """

    name = "grid_kernel"
    salt = 2
    archives = False
    NETWORKS = ((50, 0.3, 8), (500, 0.09, 2))  # nodes, radius, trials
    PROTOCOLS = ("algorithm1", "algorithm2", "algorithm3", "robust_staged", "robust_flat")

    def specs(self, k: int) -> Tuple[int, List[batch.ExperimentSpec]]:
        base_seed, network_seed = job_seeds(self.ctx.seed, self.salt, k)
        return base_seed, [
            batch.ExperimentSpec(
                name=f"n{nodes}_{protocol}",
                workload=geometric(nodes, radius),
                protocol=protocol,
                trials=trials,
                network_seed=network_seed,
                runner_params={"max_slots": 20_000, "delta_est": 64},
            )
            for nodes, radius, trials in self.NETWORKS
            for protocol in self.PROTOCOLS
        ]

    def prepare(self) -> None:
        _, specs = self.specs(0)
        for spec in specs[:: len(self.PROTOCOLS)]:
            generator.generate_network(spec.workload, seed=spec.network_seed)

    def run_options(self) -> Dict[str, Any]:
        return {"backend": "vectorized"}


class Served(Workload):
    """A workload whose jobs need long-lived processes (server or workers).

    A set-up is starting them: spawn until they are ready to take work.
    """

    def setup_once(self) -> None:
        self.start(traced=False)


class ShardedQueue(Served):
    """One N=200 campaign sharded over two ``m2hew worker`` processes."""

    name = "sharded_queue"
    salt = 3
    WORKERS = 2
    TRIALS = 16

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.queue: Optional[Path] = None
        self.procs: List["subprocess.Popen[bytes]"] = []

    def specs(self, k: int) -> Tuple[int, List[batch.ExperimentSpec]]:
        base_seed, network_seed = job_seeds(self.ctx.seed, self.salt, k)
        return base_seed, [
            batch.ExperimentSpec(
                name="n200_algorithm3",
                workload=geometric(200, 0.12),
                protocol="algorithm3",
                trials=self.TRIALS,
                network_seed=network_seed,
                runner_params={"max_slots": 20_000, "delta_est": 32},
            )
        ]

    def run_options(self) -> Dict[str, Any]:
        return {"backend": "distributed", "queue_dir": self.queue}

    def start(self, traced: bool) -> None:
        self.queue = self.ctx.fresh_path("queue")
        beats = self.queue / "workers"
        for i in range(self.WORKERS):
            # --idle-exit only matters if this process dies without stopping them.
            argv = ["worker", "--queue", str(self.queue), "--worker-id", f"e2e-{i}", "--idle-exit", "600"]
            cmd, spans = m2hew(self.ctx, "worker", argv, traced)
            with open(self.ctx.work / "workers.log", "ab") as log:
                self.procs.append(
                    subprocess.Popen(cmd, env=self.ctx.env, stdout=log, stderr=subprocess.STDOUT)
                )
            if spans is not None:
                self.span_files.append(spans)
        deadline = perf_counter() + 60
        while not beats.is_dir() or len(list(beats.glob("*.json"))) < self.WORKERS:
            if perf_counter() > deadline or any(p.poll() is not None for p in self.procs):
                raise RuntimeError("queue workers did not start; see workers.log")
            time.sleep(0.002)

    def stop(self) -> List[Path]:
        for proc in self.procs:
            stop(proc)
        self.procs = []
        return super().stop()


SCENARIOS = ("rural_sparse", "single_common_channel", "urban_dense", "campus_cr")
PROTOCOLS = ("algorithm1", "algorithm2", "algorithm3")
#: The 24 (scenario, protocols) requests of the service mix, in the
#: order fresh requests cycle through them: every 4 consecutive ones
#: cover every scenario, every 8 add one- and two-protocol campaigns.
#: Scenarios differ 50-fold in cost, so drawing them at random, or
#: starting the walk at a seed-chosen entry, would make the mix's cost
#: depend on the seed.
MIX = tuple(
    (scenario, (p,) if pair == 0 else tuple(q for q in PROTOCOLS if q != p))
    for p in PROTOCOLS
    for pair in (0, 1)
    for scenario in SCENARIOS
)


class ServiceMix(Served):
    """Two closed-loop clients against ``m2hew serve``."""

    name = "service_mix"
    salt = 4
    clients = 2
    TRIALS = 4
    MAX_SLOTS = 50_000
    STORE_ARCHIVES = 24
    POLL = 0.02

    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx)
        self.proc: Optional["subprocess.Popen[str]"] = None
        self.client: Optional[ServiceClient] = None
        self.digests: Dict[int, str] = {}

    def request(self, k: int) -> campaigns.CampaignRequest:
        """The request job ``k`` submits; job -1 is the warm-up.

        Fresh requests walk :data:`MIX` from its start, whatever the
        seed, so every run of a given length submits the same mix; the
        seed picks every request's base and network seeds.
        """
        k = self.original(k)
        c = self.clients
        # Index among fresh requests: the last quarter of every block of
        # 4 * c jobs resubmits (see original).
        fresh = k - c * (k // (4 * c)) - max(0, k % (4 * c) - 3 * c) if k >= 0 else -1
        scenario, protocols = MIX[fresh % len(MIX)]
        base_seed, network_seed = job_seeds(self.ctx.seed, self.salt, k + 1)
        return campaigns.CampaignRequest(
            scenario=scenario,
            protocols=protocols,
            trials=self.TRIALS,
            base_seed=base_seed,
            network_seed=network_seed,
            max_slots=self.MAX_SLOTS,
            client="e2e",
        )

    def original(self, k: int) -> int:
        """The job whose request job ``k`` submits: itself, or for every
        4th job of each client one of that client's last few fresh jobs.

        A client runs its jobs one after the other, so the chosen job has
        finished and the result store answers the resubmission.
        """
        c = self.clients
        if k < 0 or (k // c) % 4 != 3:
            return k
        earlier = [j for j in range(k - 6 * c, k, c) if j >= 0 and (j // c) % 4 != 3]
        return earlier[int(job_rng(self.ctx.seed, self.salt, k).integers(len(earlier)))]

    def start(self, traced: bool) -> None:
        argv = ["serve", "--host", "127.0.0.1", "--port", "0"]
        argv += ["--data-dir", str(self.ctx.fresh_path("service"))]
        argv += ["--store-max-archives", str(self.STORE_ARCHIVES)]
        cmd, spans = m2hew(self.ctx, "server", argv, traced)
        with open(self.ctx.work / "server.log", "ab") as log:
            self.proc = subprocess.Popen(
                cmd, env=self.ctx.env, stdout=subprocess.PIPE, stderr=log, text=True
            )
        if spans is not None:
            self.span_files.append(spans)
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        marker = "listening on http://127.0.0.1:"
        if marker not in line:
            raise RuntimeError(f"service did not start (printed {line!r}); see server.log")
        self.client = ServiceClient("127.0.0.1", int(line.split(marker, 1)[1].split(" ", 1)[0]))
        self.digests = {}

    def stop(self) -> List[Path]:
        if self.proc is not None:
            stop(self.proc)
            self.proc = None
        return super().stop()

    def submit(self, k: int, request: campaigns.CampaignRequest) -> Job:
        """Submit, wait, download every file and check it against the manifest."""
        assert self.client is not None
        job = Job(k, trials=request.trials * len(request.protocols))
        with self.ctx.job_span(f"request-{k}") as span:
            try:
                accepted = self.client.submit(request)
                job_id, job.cached = accepted["job"]["job_id"], accepted["cache_hit"]
                if span is not None:
                    span.trace = job_id
                final = self.client.wait(job_id, poll_interval=self.POLL, timeout=120)
                if final["state"] != "done":
                    job.problems.append(f"{job_id} ended {final['state']}: {final.get('error')}")
                    return job
                listing = self.client.fetch_result(job_id)
                files = self.client.download_archive(job_id, listing["files"])
            except (ServiceError, OSError, TimeoutError) as exc:
                job.problems.append(f"request failed or refused: {exc}")
                return job
            if not listing["verification"]["ok"]:
                job.problems.append(f"{job_id} served an archive that failed verification")
            for entry in json.loads(files["manifest.json"])["experiments"]:
                if sha256(files[entry["file"]]) != entry["sha256"]:
                    job.problems.append(f"{entry['file']} does not match its manifest hash")
            job.digest = sha256(files["manifest.json"])
        if k == 0:  # job 0 also passes through the archive gate and is counted
            job.archive = self.ctx.fresh_path("download")
            job.archive.mkdir()
            for name, data in files.items():
                (job.archive / name).write_bytes(data)
            job.slots = slots_of(
                [
                    (t["time_unit"], t["horizon"])
                    for name, data in files.items()
                    if name != "manifest.json"
                    for t in json.loads(data)["trials"]
                ]
            )
        return job

    def run_job(self, k: int) -> Job:
        job = self.submit(k, self.request(k))
        self.digests[k] = job.digest
        return job

    def warmup(self) -> Job:
        return self.submit(-1, self.request(-1))

    def checks(self, warm: Job, jobs: Sequence[Job]) -> List[str]:
        """Store answers must repeat the original bytes; job 0 must verify."""
        problems = []
        for job in jobs:
            origin = self.original(job.index)
            if origin != job.index and self.digests.get(origin, job.digest) != job.digest:
                problems.append(f"resubmitted job {job.index} served other bytes than job {origin}")
        if jobs and jobs[0].archive is not None:
            problems += check_archive(jobs[0].archive)[1]
        return problems


CLASSES = {cls.name: cls for cls in (PaperCampaign, GridKernel, ServiceMix, ShardedQueue)}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def closed_loop(workload: Workload, seconds: float) -> Pass:
    """Jobs 0, 1, … from ``workload.clients`` clients, issued for ``seconds``.

    Client ``c`` runs jobs ``c``, ``c + clients``, … one after the other.
    """
    lock = threading.Lock()
    jobs: List[Job] = []
    start = perf_counter()
    deadline = start + seconds

    def attempt(k: int) -> Job:
        try:
            return workload.run_job(k)
        except Exception as exc:  # a failed job is a measurement, not a crash
            return Job(k, problems=[f"{type(exc).__name__}: {exc}"])

    def client(c: int) -> None:
        for k in itertools.count(c, workload.clients):
            if perf_counter() >= deadline and k >= MIN_JOBS:
                return
            job, latency, slowdown = timed(lambda: attempt(k))
            job.latency, job.slowdown, job.end = latency, slowdown, perf_counter()
            with lock:
                jobs.append(job)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(workload.clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    jobs.sort(key=lambda j: j.index)
    return Pass(start=start, end=max(j.end for j in jobs), jobs=jobs, clients=workload.clients)


def measure(workload: Workload, seconds: float, traced: bool) -> Tuple[Pass, List[Path]]:
    """Start, warm up once, run the closed loop, stop; checks included."""
    workload.start(traced=traced)
    try:
        warm = workload.warmup()
        run = closed_loop(workload, seconds)
        run.problems = [f"warm-up: {p}" for p in warm.problems] + workload.checks(warm, run.jobs)
    finally:
        span_files = workload.stop()
    return run, span_files


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, interpolated; 0 without samples."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> Tuple[float, float]:
    """Peak resident MB of this process and of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def end_to_end_metrics(workload: Workload, seconds: float) -> Tuple[Dict[str, float], Pass, List[str]]:
    setups = workload.measure_setup()
    run, _ = measure(workload, seconds, traced=False)
    latencies = [j.adjusted for j in run.ok]
    elapsed = run.end - run.start
    rss = peak_rss_mb()
    metrics = {
        "setup_s": statistics.median(s / slowdown for s, slowdown in setups),
        "trials_per_s": run.trials_per_s(),
        "jobs_per_s": run.rate(lambda j: 1),
        "job_latency_s.p50": percentile(latencies, 50),
        "peak_rss_mb": max(rss),
    }
    slowdowns = [j.slowdown for j in run.jobs] + [slowdown for _, slowdown in setups]
    notes = [
        f"peak_rss_mb coordinator={rss[0]:.1f} largest_child={rss[1]:.1f}",
        f"samples jobs={len(run.ok)} trials={sum(j.trials for j in run.ok)} "
        f"setups={len(setups)} window_s={elapsed:.3f}",
        f"host slowdown median={statistics.median(slowdowns)!r} "
        f"min={min(slowdowns):.3f} max={max(slowdowns):.3f} (probe over {PROBE_REF_S} s)",
        f"unadjusted setup_s={statistics.median(s for s, _ in setups)!r} "
        f"trials_per_s={sum(j.trials for j in run.ok) / elapsed!r} "
        f"job_latency_s.p50={percentile([j.latency for j in run.ok], 50)!r}",
        f"cache_hit share {sum(j.cached for j in run.ok) / max(len(run.ok), 1)!r} "
        f"({sum(j.cached for j in run.ok)} of {len(run.ok)} jobs answered by the result store)",
        f"job_latency_s.p90 {percentile(latencies, 90)!r} s "
        f"({len(latencies) - int(0.9 * len(latencies))} of {len(latencies)} samples beyond)",
    ]
    return metrics, run, notes


def layer_trace(workload: Workload, seconds: float, out: Path) -> Tuple[Dict[str, float], Pass, List[str]]:
    """Untraced then traced half-length passes: per-layer metrics, spans, table."""
    ctx = workload.ctx
    plain, _ = measure(workload, seconds / 2, traced=False)
    tracer = ctx.tracer = Tracer()
    install_program_tracing(tracer)
    try:
        run, span_files = measure(workload, seconds / 2, traced=True)
    finally:
        tracer.uninstall()
        ctx.tracer = None
    # Paired by job index: each client stops on its own, so the indices
    # a pass completes can have gaps.
    traced = {j.index: j for j in run.jobs}
    run.problems += plain.problems + [
        f"job {a.index} archive differs between untraced and traced runs"
        for a in plain.jobs
        if a.index in traced and a.digest != traced[a.index].digest
    ]
    window = (run.start, run.end)
    documents = [json.loads(p.read_text(encoding="utf-8")) for p in span_files]
    documents.append(tracer.document("coordinator"))
    processes = [ProcessTrace.load(d, window) for d in documents]
    traced_jobs, traced_rate = len(run.ok), run.trials_per_s()
    metrics = layer_metrics(
        processes,
        list(units("per_layer")),
        window=window,
        jobs=traced_jobs,
        simulated_slots=run.jobs[0].slots,
        overhead_frac=plain.trials_per_s() / traced_rate - 1.0 if traced_rate else 0.0,
    )
    run.jobs = plain.jobs + run.jobs  # every attempted job counts
    table = self_time_table(processes, traced_jobs)
    skipped = sorted({name for d in documents for name in d["skipped"]})
    trace_file = out / f"trace-{workload.name}-seed{ctx.seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": ctx.seed,
                "window": window,
                "jobs": traced_jobs,
                "skipped_layers": skipped,
                "layers": metrics,
                "self_time_table": table,
                "processes": documents,
            }
        ),
        encoding="utf-8",
    )
    notes = [f"samples jobs={traced_jobs} (traced pass)", f"spans written to {trace_file}"]
    notes += [f"skipped layer {name}" for name in skipped] + table
    return metrics, run, notes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".e2e_out")
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args(argv)
    work = args.out / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    workload = CLASSES[args.workload](Context(args.seed, work))
    try:
        if args.setup:
            workload.prepare()
            return 0
        if args.trace:
            metrics, run, notes = layer_trace(workload, args.seconds, args.out)
            declared = units("per_layer")
        else:
            metrics, run, notes = end_to_end_metrics(workload, args.seconds)
            declared = units("end_to_end")
        first = next((j for j in run.jobs if j.index == 0), None)
        if args.seed == GOLDEN_SEED:
            golden = json.loads(GOLDENS.read_text(encoding="utf-8")).get(workload.name)
            if first is None or first.digest != golden:
                run.problems.append(f"job 0 digest {first and first.digest} != golden {golden}")
    finally:
        workload.stop()
        shutil.rmtree(work, ignore_errors=True)

    problems = [f"job {j.index}: {p}" for j in run.jobs for p in j.problems] + run.problems
    attempted = len(run.jobs)
    failed = sum(1 for j in run.jobs if j.problems) + len(run.problems)
    notes += [
        f"failed_frac {failed / attempted!r} ({failed} of {attempted} jobs failed, "
        "were refused or gave wrong output)",
        f"job0 digest {first.digest if first else '-'}",
    ]
    for line in notes + problems:
        print(f"# {workload.name} {line}")
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value!r} {declared[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
