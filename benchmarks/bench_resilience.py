"""Resilience micro-benchmark — supervision overhead and recovery cost.

Two claims about the trial supervisor, recorded in
``BENCH_resilience.json`` at the repo root:

1. **Near-zero cost when unused** — every campaign runs through one
   dispatch path (``run_trial_group``); ``run_spec_trials`` runs it
   under the fail-fast default, ``run_supervised_trials`` under
   ``RetryPolicy()``. A fault-free supervised campaign (retry policy
   armed, nothing failing) must cost within a few percent of the
   fail-fast default, because the policy adds only bookkeeping around
   the same chunk dispatch. The gate is <3%, measured as the median
   over several rounds of the per-round CPU-time ratio, with the two
   legs swapping which runs first every round: both run in-process, so
   CPU time holds all of their cost, and pairing within a round cancels
   the host-speed drift that wall-clock medians on shared runners
   mistake for overhead. It guards the default path too.

2. **Recovery beats rerunning** — a campaign where ~10% of chunks fail
   once (chaos-injected, zero backoff) must finish in well under the
   cost of the fail-fast alternative: one doomed full run to discover
   the failure plus one clean rerun. Retrying re-executes only the
   failed chunks, so the expected end-to-end ratio is ~(1 + f) : 2 for
   failure fraction f.

Both legs verify byte-identity against the fail-fast reference —
resilience must never buy throughput with determinism.

Run directly (``PYTHONPATH=src python benchmarks/bench_resilience.py``)
or via pytest-benchmark.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import pytest

from _helpers import emit_bench_record, emit_table
from repro.resilience import RetryPolicy, parse_chaos_spec, run_supervised_trials
from repro.sim.parallel import run_spec_trials
from repro.workloads.scenarios import scenario

TRIALS = 20
MAX_SLOTS = 3_000
BASE_SEED = 7
ROUNDS = 5
CHUNK_SIZE = 2  # 10 chunks; one failing chunk == 10% chunk-failure rate
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"

#: One of the ten chunks fails on its first attempt, then recovers.
CHAOS_10PCT = "raise@4"


def _workload():
    s = scenario("urban_dense")
    network = s.build(0)
    params = {
        "max_slots": MAX_SLOTS,
        "delta_est": s.delta_est,
        # Fixed horizon: every trial simulates the same slot count, so
        # the ratios measure supervision overhead, not protocol variance.
        "stop_on_full_coverage": False,
    }
    return network, params


def _payload(results) -> bytes:
    return json.dumps([r.to_dict() for r in results], sort_keys=True).encode()


def run_experiment() -> dict:
    network, params = _workload()
    policy = RetryPolicy(base_delay=0.0, jitter=0.0)

    def baseline():  # the one dispatch path under its fail-fast default
        return run_spec_trials(
            network,
            "algorithm3",
            trials=TRIALS,
            base_seed=BASE_SEED,
            runner_params=params,
            chunk_size=CHUNK_SIZE,
        )

    def supervised(chaos=None):
        outcome = run_supervised_trials(
            network,
            "algorithm3",
            trials=TRIALS,
            base_seed=BASE_SEED,
            runner_params=params,
            chunk_size=CHUNK_SIZE,
            policy=policy,
            chaos=chaos,
            sleep=lambda _delay: None,
        )
        assert outcome.complete
        return [r for _, r in outcome.results_in_order()]

    reference = _payload(baseline())
    assert _payload(supervised()) == reference
    chaos = parse_chaos_spec(CHAOS_10PCT)
    assert _payload(supervised(chaos)) == reference

    def cpu_seconds(leg) -> float:
        t0 = time.process_time()
        leg()
        return time.process_time() - t0

    # Pair the legs within each round and swap which runs first every
    # round, so host-speed drift hits both sides equally; gate on the
    # median of the per-round ratios.
    base_times, sup_times, chaos_times = [], [], []
    for round_no in range(ROUNDS):
        legs = [(base_times, baseline), (sup_times, supervised)]
        for times, leg in legs if round_no % 2 == 0 else legs[::-1]:
            times.append(cpu_seconds(leg))
        chaos_times.append(cpu_seconds(lambda: supervised(chaos)))

    base_s = statistics.median(base_times)
    sup_s = statistics.median(sup_times)
    chaos_s = statistics.median(chaos_times)
    overhead = statistics.median(s / b for b, s in zip(base_times, sup_times))
    # Fail-fast alternative to recovery: one doomed run (the failure
    # lands mid-campaign; charge the mean half) plus one clean rerun.
    fail_fast_rerun_s = 1.5 * base_s

    record = {
        "benchmark": "resilience_supervisor",
        "scenario": "urban_dense",
        "protocol": "algorithm3",
        "trials": TRIALS,
        "chunk_size": CHUNK_SIZE,
        "max_slots": MAX_SLOTS,
        "base_seed": BASE_SEED,
        "rounds": ROUNDS,
        "chaos": CHAOS_10PCT,
        "baseline_seconds": round(base_s, 4),
        "supervised_seconds": round(sup_s, 4),
        "supervised_overhead_pct": round(100.0 * (overhead - 1.0), 2),
        "chaos_recovery_seconds": round(chaos_s, 4),
        "fail_fast_rerun_seconds": round(fail_fast_rerun_s, 4),
        "recovery_vs_rerun_ratio": round(chaos_s / fail_fast_rerun_s, 3),
        "byte_identical": True,  # asserted above, for all three paths
    }
    emit_bench_record(BENCH_PATH, record)
    emit_table(
        "resilience",
        [record],
        title="Resilient execution — supervision overhead and recovery cost",
        columns=[
            "baseline_seconds",
            "supervised_seconds",
            "supervised_overhead_pct",
            "chaos_recovery_seconds",
            "fail_fast_rerun_seconds",
            "recovery_vs_rerun_ratio",
        ],
    )
    return record


@pytest.mark.benchmark(group="resilience")
def test_resilience_overhead(benchmark):
    record = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert record["byte_identical"]
    # Fault-free supervision must be within 3% of fail-fast execution.
    assert record["supervised_overhead_pct"] < 3.0, record
    # Recovering from a 10% chunk-failure round must be cheaper than the
    # discover-and-rerun alternative.
    assert record["recovery_vs_rerun_ratio"] < 1.0, record


if __name__ == "__main__":
    print(json.dumps(run_experiment(), indent=2, sort_keys=True))
