"""Distributed sharding benchmark — sharded vs serial, byte-identity.

Records in ``BENCH_distributed.json`` at the repo root:

* wall-clock of one campaign run serially in-process versus sharded
  over two real ``m2hew worker`` subprocesses through a lease-based
  file queue (coordinator overhead and IPC-through-filesystem cost
  included; worker start-up is not: the workers start once, before the
  first round). The workers are paused (SIGSTOP) through each serial
  round, so their idle polling does not share the cores with it, and
  resumed before each sharded round, which waits for a fresh heartbeat
  from each of them; pausing narrowed the serial rounds' spread
  (interquartile range over median 0.16 → 0.07 and 0.13 → 0.09 in two
  runs of 5 rounds per mode).
  One timing of a campaign this small is mostly noise, so the two sides
  run ``ROUNDS`` times each, interleaved (serial first in even rounds,
  sharded first in odd ones), and the record keeps every run plus each
  side's median, min and max; ``serial_seconds``/``sharded_seconds``
  are the medians and ``sharded_vs_serial_ratio`` is their ratio. On a
  small campaign the sharded run is *expected* to be slower; the record
  is a regression baseline for the protocol's overhead, not a speedup
  claim;
* ``byte_identical`` — the load-bearing assertion: every sharded
  archive must byte-match the serial archive file for file.

Run directly (``PYTHONPATH=src python benchmarks/bench_distributed.py``)
or via pytest-benchmark.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest

from _helpers import emit_bench_record, emit_table
from repro.resilience import LeasePolicy, RetryPolicy, WorkQueue
from repro.sim.batch import ExperimentSpec, run_batch
from repro.workloads.generator import WorkloadConfig

TRIALS = 8
CHUNK_SIZE = 2  # 4 chunks for 2 workers to split
MAX_SLOTS = 3_000
BASE_SEED = 7
WORKERS = 2
ROUNDS = 5  # timings per side, interleaved
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_distributed.json"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

LEASE = LeasePolicy(lease_ttl=5.0, heartbeat_interval=0.5, poll_interval=0.02)


def _specs():
    return [
        ExperimentSpec(
            name="clique_algorithm3",
            workload=WorkloadConfig(
                topology="clique",
                topology_params={"num_nodes": 12},
                channel_model="uniform_random_subsets",
                channel_params={
                    "universal_size": 4,
                    "set_size": 2,
                    "set_size_max": 4,
                },
            ),
            protocol="algorithm3",
            trials=TRIALS,
            runner_params={
                "max_slots": MAX_SLOTS,
                "delta_est": 12,
                "stop_on_full_coverage": False,
            },
        )
    ]


def _archive_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))}


def _spawn_worker(queue_dir: Path, index: int) -> "subprocess.Popen[bytes]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--queue",
            str(queue_dir),
            "--worker-id",
            f"bench-{index}",
            "--idle-exit",
            "120",
            "--lease-ttl",
            str(LEASE.lease_ttl),
            "--poll-interval",
            str(LEASE.poll_interval),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _await_heartbeats(queue: WorkQueue, count: int, timeout: float = 60.0) -> None:
    deadline = time.perf_counter() + timeout
    while len(queue.list_workers()) < count:
        if time.perf_counter() > deadline:
            raise RuntimeError("benchmark workers failed to announce themselves")
        time.sleep(0.05)


def _await_fresh_heartbeats(queue: WorkQueue, timeout: float = 60.0) -> None:
    """Wait until every worker has rewritten its heartbeat since now."""
    seen = {w: queue.read_worker(w) for w in queue.list_workers()}
    deadline = time.perf_counter() + timeout
    while any(queue.read_worker(w) == beat for w, beat in seen.items()):
        if time.perf_counter() > deadline:
            raise RuntimeError("benchmark workers failed to resume")
        time.sleep(0.05)


def _pause(procs: list, paused: bool) -> None:
    for proc in procs:
        os.kill(proc.pid, signal.SIGSTOP if paused else signal.SIGCONT)


def _spread(prefix: str, runs: list) -> dict:
    return {
        f"{prefix}_seconds": round(statistics.median(runs), 4),
        f"{prefix}_seconds_min": round(min(runs), 4),
        f"{prefix}_seconds_max": round(max(runs), 4),
        f"{prefix}_runs_s": [round(t, 4) for t in runs],
    }


def run_experiment() -> dict:
    specs = _specs()
    runs: dict = {"serial": [], "sharded": []}
    archives = []
    with TemporaryDirectory(prefix="m2hew-bench-dist-") as tmp:
        root = Path(tmp)
        queue_dir = root / "queue"
        queue = WorkQueue(queue_dir)

        def timed(side: str, out: Path) -> None:
            options = {}
            if side == "sharded":
                options = dict(
                    backend="distributed",
                    chunk_size=CHUNK_SIZE,
                    retry=RetryPolicy(base_delay=0.0, jitter=0.0),
                    queue_dir=queue_dir,
                    lease=LEASE,
                )
            if side == "serial":
                _pause(procs, True)
            else:
                _await_fresh_heartbeats(queue)
            try:
                t0 = time.perf_counter()
                run_batch(specs, base_seed=BASE_SEED, output_dir=out, **options)
                runs[side].append(time.perf_counter() - t0)
            finally:
                if side == "serial":
                    _pause(procs, False)
            archives.append(_archive_bytes(out))

        procs = [_spawn_worker(queue_dir, i) for i in range(WORKERS)]
        try:
            _await_heartbeats(queue, WORKERS)
            for r in range(ROUNDS):
                order = ("serial", "sharded") if r % 2 == 0 else ("sharded", "serial")
                for side in order:
                    timed(side, root / f"{side}-{r}")
        finally:
            for proc in procs:
                if proc.poll() is None:
                    os.kill(proc.pid, signal.SIGCONT)
                proc.terminate()
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    byte_identical = all(files == archives[0] for files in archives)
    record = {
        "benchmark": "distributed_sharding",
        "trials": TRIALS,
        "chunk_size": CHUNK_SIZE,
        "max_slots": MAX_SLOTS,
        "base_seed": BASE_SEED,
        "workers": WORKERS,
        "lease_ttl": LEASE.lease_ttl,
        "rounds": ROUNDS,
        **_spread("serial", runs["serial"]),
        **_spread("sharded", runs["sharded"]),
        "sharded_vs_serial_ratio": round(
            statistics.median(runs["sharded"]) / statistics.median(runs["serial"]), 3
        ),
        "byte_identical": byte_identical,
    }
    assert byte_identical, "a sharded archive diverged from the serial archive"
    emit_bench_record(BENCH_PATH, record)
    emit_table(
        "distributed",
        [record],
        title=(
            f"Distributed sharding — 2-worker queue vs serial, median of "
            f"{ROUNDS} interleaved rounds (min-max), byte-identity"
        ),
        columns=[
            "serial_seconds",
            "serial_seconds_min",
            "serial_seconds_max",
            "sharded_seconds",
            "sharded_seconds_min",
            "sharded_seconds_max",
            "sharded_vs_serial_ratio",
            "byte_identical",
        ],
    )
    return record


@pytest.mark.benchmark(group="distributed")
def test_distributed_byte_identity(benchmark):
    record = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert record["byte_identical"]


if __name__ == "__main__":
    print(json.dumps(run_experiment(), indent=2, sort_keys=True))
