"""Simulation substrate: engines, clocks, medium, results, runners."""

from __future__ import annotations

from .async_engine import AsyncSimulator
from .batch import BatchOutcome, ExperimentSpec, run_batch
from .batched import (
    BatchedSlottedSimulator,
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
from .engine import DiscreteEventEngine
from .events import Event, EventQueue
from .fast_slotted import FastSlottedSimulator
from .medium import Medium, Transmission
from .parallel import (
    ParallelPlan,
    resolve_plan,
    run_grid_spec_trials,
    run_spec_trials,
)
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
    "BatchedSlottedSimulator",
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
    "DiscreteEventEngine",
    "Event",
    "EventQueue",
    "ExecutionTrace",
    "FastSlottedSimulator",
    "FlatSchedule",
    "FrameRecord",
    "GridBatchedSimulator",
    "GridCell",
    "GrowingEstimateSchedule",
    "Medium",
    "ParallelPlan",
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
    "Transmission",
    "VectorSchedule",
    "check_drift_bound",
    "derive_trial_seed",
    "make_clocks",
    "make_generator",
    "random_start_offsets",
    "resolve_plan",
    "run_asynchronous",
    "run_experiment_grid_batched",
    "run_experiment_trial",
    "run_grid_spec_trials",
    "run_spec_trials",
    "run_synchronous",
    "run_trials",
    "spawn_generators",
]
