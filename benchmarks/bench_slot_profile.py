"""Slot-phase profile — where a simulated slot's time goes.

Runs the N=500 campaign from ``bench_batched.py`` twice with
``profile=True`` — serially, one ``FastSlottedSimulator`` (the grid
engine's one-row form) per trial, and as one 16-row
``BatchedSlottedSimulator`` — and records each shape's per-phase
breakdown (``schedule`` / ``rng`` / ``channel`` / ``reception`` /
``delivery`` / ``result`` — seconds, lap count, share of total) in
``BENCH_slot_profile.json`` at the repo root. This is the regression
map for the kernel: when a future change slows a campaign down, the
two snapshots here say which phase moved, instead of leaving a single
opaque total to bisect.

The profiler is observational by contract — it never touches RNG
streams or results — so the pytest gate also re-runs both engines
unprofiled and asserts the results are identical. That pins the
"profiling cannot perturb a run" guarantee with real campaigns, not
just unit fixtures.

Run directly (``PYTHONPATH=src python benchmarks/bench_slot_profile.py``)
or via pytest-benchmark.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from _helpers import emit_bench_record, emit_table
from bench_batched import BASE_SEED, PROTOCOL, TRIALS, _network
from repro.sim.batched import BatchedSlottedSimulator
from repro.sim.fast_slotted import FastSlottedSimulator
from repro.sim.profile import PHASES
from repro.sim.rng import RngFactory, derive_trial_seed
from repro.sim.runner import _vector_schedule
from repro.sim.stopping import StoppingCondition

#: The bench point: the N=500 row of ``bench_batched.SIZES`` — large
#: enough that every phase does real work (sparse reception, multi-KB
#: RNG draws), small enough to profile in seconds.
NUM_NODES = 500
UNIVERSAL = 12
PER_NODE = 4
SLOTS = 500
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_slot_profile.json"


def _factories():
    return [
        RngFactory(derive_trial_seed(BASE_SEED, i)) for i in range(TRIALS)
    ]


def _profiled_runs():
    net = _network(NUM_NODES, UNIVERSAL, PER_NODE)
    schedule = _vector_schedule(PROTOCOL, net, NUM_NODES)
    stopping = StoppingCondition(max_slots=SLOTS, stop_on_full_coverage=False)

    serial_results = []
    serial_profiles = []
    for factory in _factories():
        sim = FastSlottedSimulator(net, schedule, factory, profile=True)
        serial_results.append(sim.run(stopping))
        serial_profiles.append(sim.profile())

    batched = BatchedSlottedSimulator(
        net, schedule, _factories(), profile=True
    )
    batched_results = batched.run(stopping)
    batched_profile = batched.profile()

    # Fold the per-trial serial snapshots into one campaign-level view
    # so the two engines' breakdowns are directly comparable.
    serial_profile = {}
    for snap in serial_profiles:
        for phase, cell in snap.items():
            agg = serial_profile.setdefault(
                phase, {"seconds": 0.0, "laps": 0.0}
            )
            agg["seconds"] += cell["seconds"]
            agg["laps"] += cell["laps"]
    total = sum(c["seconds"] for c in serial_profile.values())
    for cell in serial_profile.values():
        cell["share"] = cell["seconds"] / total if total > 0 else 0.0

    return {
        "serial": {"profile": serial_profile, "results": serial_results},
        "batched": {"profile": batched_profile, "results": batched_results},
        "context": (net, schedule, stopping),
    }


def _phase_rows(profile):
    ordered = [p for p in PHASES if p in profile]
    ordered += sorted(set(profile) - set(PHASES))
    return [
        {
            "phase": phase,
            "seconds": round(profile[phase]["seconds"], 4),
            "laps": int(profile[phase]["laps"]),
            "share": round(profile[phase]["share"], 3),
        }
        for phase in ordered
    ]


def run_experiment() -> dict:
    runs = _profiled_runs()
    net, schedule, stopping = runs["context"]

    # The observational contract: profiled campaigns must reproduce
    # unprofiled ones exactly.
    plain_serial = [
        FastSlottedSimulator(net, schedule, factory).run(stopping)
        for factory in _factories()
    ]
    plain_batched = BatchedSlottedSimulator(
        net, schedule, _factories()
    ).run(stopping)

    record = {
        "benchmark": "slot_profile",
        "protocol": PROTOCOL,
        "trials": TRIALS,
        "base_seed": BASE_SEED,
        "num_nodes": NUM_NODES,
        "slots": SLOTS,
        "serial_phases": _phase_rows(runs["serial"]["profile"]),
        "batched_phases": _phase_rows(runs["batched"]["profile"]),
        "profile_identical": (
            runs["serial"]["results"] == plain_serial
            and runs["batched"]["results"] == plain_batched
        ),
    }
    emit_bench_record(BENCH_PATH, record)
    for side in ("serial", "batched"):
        emit_table(
            f"slot_profile_{side}",
            record[f"{side}_phases"],
            title=(
                f"Slot phases ({side}) — N={NUM_NODES}, "
                f"{SLOTS} slots, {TRIALS} trials"
            ),
            columns=["phase", "seconds", "laps", "share"],
        )
    return record


@pytest.mark.benchmark(group="slot_profile")
def test_slot_profile(benchmark):
    record = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert record["profile_identical"]
    for side in ("serial_phases", "batched_phases"):
        rows = record[side]
        phases = {r["phase"] for r in rows}
        # Every hot-loop phase must have been charged at least once —
        # a missing phase means an engine dropped its lap marks.
        assert set(PHASES) <= phases, (side, phases)
        assert all(r["laps"] > 0 for r in rows)
        assert abs(sum(r["share"] for r in rows) - 1.0) < 0.01


if __name__ == "__main__":
    print(json.dumps(run_experiment(), indent=2, sort_keys=True))
