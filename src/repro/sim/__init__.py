"""Simulation substrate: engines, clocks, results, runners."""

from __future__ import annotations

from .async_engine import AsyncSimulator
from .batch import BatchOutcome, ExperimentSpec, run_batch
from .batched import (
    FlatSchedule,
    GridBatchedSimulator,
    GridCell,
    GrowingEstimateSchedule,
    SparseReception,
    StagedSchedule,
    VectorSchedule,
)
from .clock import (
    Clock,
    ConstantDriftClock,
    PerfectClock,
    PiecewiseDriftClock,
    RandomWalkDriftClock,
    SinusoidalDriftClock,
    check_drift_bound,
)
from .fast_slotted import FastSlottedSimulator
from .parallel import run_grid_spec_trials, run_spec_trials
from .profile import SlotProfiler
from .results import DiscoveryResult, load_result, result_from_dict
from .rng import RngFactory, derive_trial_seed, make_generator, spawn_generators
from .runner import (
    make_clocks,
    random_start_offsets,
    run_asynchronous,
    run_experiment_grid_batched,
    run_experiment_trial,
    run_synchronous,
    run_trials,
)
from .slotted import SlottedSimulator
from .stopping import StoppingCondition
from .termination_runner import (
    TerminationOutcome,
    run_terminating_async,
    run_terminating_sync,
)
from .trace import ExecutionTrace, FrameRecord, SlotRecord

__all__ = [
    "AsyncSimulator",
    "BatchOutcome",
    "ExperimentSpec",
    "TerminationOutcome",
    "load_result",
    "result_from_dict",
    "run_batch",
    "run_terminating_async",
    "run_terminating_sync",
    "Clock",
    "ConstantDriftClock",
    "DiscoveryResult",
    "ExecutionTrace",
    "FastSlottedSimulator",
    "FlatSchedule",
    "FrameRecord",
    "GridBatchedSimulator",
    "GridCell",
    "GrowingEstimateSchedule",
    "PerfectClock",
    "PiecewiseDriftClock",
    "RandomWalkDriftClock",
    "RngFactory",
    "SinusoidalDriftClock",
    "SlotProfiler",
    "SlotRecord",
    "SlottedSimulator",
    "SparseReception",
    "StagedSchedule",
    "StoppingCondition",
    "VectorSchedule",
    "check_drift_bound",
    "derive_trial_seed",
    "make_clocks",
    "make_generator",
    "random_start_offsets",
    "run_asynchronous",
    "run_experiment_grid_batched",
    "run_experiment_trial",
    "run_grid_spec_trials",
    "run_spec_trials",
    "run_synchronous",
    "run_trials",
    "spawn_generators",
]
