"""Parallel campaign micro-benchmark — worker fan-out speedup.

Times one seeded campaign (urban_dense, Algorithm 3, fixed slot horizon
so every trial costs the same CPU) twice: serially and on a process
pool, verifies the archived bytes are identical, and records the
wall-clock ratio in ``BENCH_parallel.json`` at the repo root.

Run directly (``PYTHONPATH=src python benchmarks/bench_parallel.py``) or
via pytest-benchmark. On an N-core machine the expected speedup is
close to ``min(N, workers)``; the JSON records the host core count so
single-core CI results are interpretable.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

import pytest

from _helpers import emit_bench_record, emit_table
from repro.sim.batch import ExperimentSpec, run_batch
from repro.workloads.scenarios import scenario

TRIALS = 24
MAX_SLOTS = 4_000
BASE_SEED = 7
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _campaign_spec() -> ExperimentSpec:
    s = scenario("urban_dense")
    return ExperimentSpec(
        name="parallel_bench",
        workload=s.config,
        protocol="algorithm3",
        trials=TRIALS,
        network_seed=0,
        runner_params={
            "max_slots": MAX_SLOTS,
            "delta_est": s.delta_est,
            # Fixed horizon: every trial simulates the same slot count,
            # so the speedup measures dispatch overhead, not variance.
            "stop_on_full_coverage": False,
        },
    )


def _archive_bytes(directory: Path) -> bytes:
    return b"".join(
        p.read_bytes() for p in sorted(directory.iterdir())
    )


def run_experiment(workers: int = 0) -> dict:
    cpu_count = os.cpu_count() or 1
    if workers < 1:
        # At least 2 so the process-pool path actually runs, even on a
        # single-core host (where the recorded speedup will be < 1).
        workers = max(2, min(4, cpu_count))
    spec = _campaign_spec()

    with tempfile.TemporaryDirectory() as tmp:
        serial_dir = Path(tmp) / "serial"
        parallel_dir = Path(tmp) / "parallel"

        t0 = time.perf_counter()
        run_batch([spec], base_seed=BASE_SEED, output_dir=serial_dir, max_workers=1)
        serial_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        run_batch(
            [spec],
            base_seed=BASE_SEED,
            output_dir=parallel_dir,
            max_workers=workers,
        )
        parallel_seconds = time.perf_counter() - t0

        byte_identical = _archive_bytes(serial_dir) == _archive_bytes(parallel_dir)

    record = {
        "benchmark": "parallel_campaign",
        "scenario": "urban_dense",
        "protocol": "algorithm3",
        "trials": TRIALS,
        "max_slots": MAX_SLOTS,
        "base_seed": BASE_SEED,
        "cpu_count": cpu_count,
        "workers": workers,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 3),
        "byte_identical": byte_identical,
    }
    emit_bench_record(BENCH_PATH, record)
    emit_table(
        "parallel",
        [record],
        title=f"Parallel fan-out — {workers} workers on {cpu_count} cores",
        columns=[
            "workers",
            "cpu_count",
            "serial_seconds",
            "parallel_seconds",
            "speedup",
            "byte_identical",
        ],
    )
    return record


@pytest.mark.benchmark(group="parallel")
def test_parallel_speedup(benchmark):
    record = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # Fan-out must never change the archived bytes.
    assert record["byte_identical"]
    # On a multi-core runner the pool must at least halve wall-clock
    # time; a single-core host can only demonstrate correctness.
    if record["cpu_count"] >= 4:
        assert record["speedup"] >= 2.0
    else:
        assert record["speedup"] > 0.0


if __name__ == "__main__":
    print(json.dumps(run_experiment(), indent=2, sort_keys=True))
