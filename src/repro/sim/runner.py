"""High-level experiment runners.

These helpers assemble network + protocol + engine + stopping condition
from plain parameters, so experiments, examples and the CLI never touch
engine internals. Multi-trial helpers derive independent per-trial seeds
from one base seed (fully reproducible sweeps).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.registry import (
    ASYNCHRONOUS_PROTOCOLS,
    SYNCHRONOUS_PROTOCOLS,
    VECTORIZED_PROTOCOLS,
    make_async_factory,
    make_sync_factory,
    protocol_spec,
)
from ..core.robust import CONTENTION_MARGIN, DEFAULT_LOSS_EST, repeat_for_loss
from ..exceptions import ConfigurationError
from ..net.network import M2HeWNetwork
from .async_engine import AsyncSimulator
from .clock import (
    Clock,
    ConstantDriftClock,
    PerfectClock,
    RandomWalkDriftClock,
    SinusoidalDriftClock,
)
from .batched import (
    FlatSchedule,
    GridBatchedSimulator,
    GridCell,
    GrowingEstimateSchedule,
    RepeatedStagedSchedule,
    StagedSchedule,
    VectorSchedule,
)
from .fast_slotted import FastSlottedSimulator
from .results import DiscoveryResult
from .rng import RngFactory, SeedLike, derive_trial_seed
from .slotted import SlottedSimulator
from .stopping import StoppingCondition
from .trace import ExecutionTrace

if TYPE_CHECKING:  # imported lazily at runtime to keep sim/faults decoupled
    from ..faults.plan import FaultPlan

#: What the runners accept for ``faults``: a plan, its archived dict
#: form (replay), or nothing.
FaultsLike = Union["FaultPlan", Mapping[str, Any], None]

__all__ = [
    "CLOCK_MODELS",
    "FaultsLike",
    "GridEntry",
    "SYNC_PROTOCOLS",
    "VECTORIZED_SYNC_PROTOCOLS",
    "experiment_runner_params",
    "grid_batchable",
    "run_synchronous",
    "run_asynchronous",
    "run_experiment_trial",
    "run_experiment_grid_batched",
    "replay_trial",
    "run_trials",
    "make_clocks",
    "random_start_offsets",
]

CLOCK_MODELS = ("perfect", "constant", "random_walk", "sinusoidal")

#: Every registered synchronous protocol — the set batch campaigns and
#: the tournament accept (plus ``algorithm4`` for asynchronous runs).
#: Derived from the registry's :data:`~repro.core.registry.PROTOCOL_SPECS`.
SYNC_PROTOCOLS = SYNCHRONOUS_PROTOCOLS

#: The subset with a vectorized schedule — what ``engine="fast"`` (and
#: ``engine="auto"``'s fast path) can take.
VECTORIZED_SYNC_PROTOCOLS = VECTORIZED_PROTOCOLS


def _vector_schedule(
    name: str, network: M2HeWNetwork, delta_est: Optional[int]
) -> VectorSchedule:
    sizes = np.array(
        [len(network.channels_of(nid)) for nid in network.node_ids], dtype=np.int64
    )
    if name == "algorithm1":
        if delta_est is None:
            raise ConfigurationError("algorithm1 requires delta_est")
        return StagedSchedule(sizes, delta_est)
    if name == "algorithm2":
        return GrowingEstimateSchedule(sizes)
    if name == "algorithm3":
        if delta_est is None:
            raise ConfigurationError("algorithm3 requires delta_est")
        return FlatSchedule(sizes, delta_est)
    if name == "robust_staged":
        if delta_est is None:
            raise ConfigurationError("robust_staged requires delta_est")
        return RepeatedStagedSchedule(
            sizes, delta_est, repeat_for_loss(DEFAULT_LOSS_EST)
        )
    if name == "robust_flat":
        if delta_est is None:
            raise ConfigurationError("robust_flat requires delta_est")
        # Same derated probability the protocol class computes:
        # min(1/2, |A(u)| / (CONTENTION_MARGIN · Δ_est)).
        return FlatSchedule(sizes, CONTENTION_MARGIN * delta_est)
    raise ConfigurationError(
        f"protocol {name!r} has no vectorized schedule; use engine='reference'"
    )


def _resolve_faults(faults: FaultsLike) -> Optional["FaultPlan"]:
    if faults is None:
        return None
    from ..faults.serialization import as_fault_plan

    return as_fault_plan(faults)


def run_synchronous(
    network: M2HeWNetwork,
    protocol: str,
    *,
    seed: SeedLike,
    max_slots: int,
    delta_est: Optional[int] = None,
    start_offsets: Optional[Mapping[int, int]] = None,
    engine: str = "auto",
    erasure_prob: float = 0.0,
    stop_on_full_coverage: bool = True,
    universal_channels: Optional[Sequence[int]] = None,
    id_space_size: Optional[int] = None,
    trace: Optional[ExecutionTrace] = None,
    faults: FaultsLike = None,
) -> DiscoveryResult:
    """Run one synchronous discovery trial.

    Args:
        network: The network instance.
        protocol: Any name in :data:`SYNC_PROTOCOLS`.
        seed: Trial seed (int or SeedSequence).
        max_slots: Hard slot budget.
        delta_est: Degree bound for the protocols that need one.
        start_offsets: Per-node start slots (variable start times).
        engine: ``"fast"`` (numpy; vectorized protocols only),
            ``"reference"`` (object-per-node; any protocol), or
            ``"auto"`` — fast when the registry says the protocol is
            vectorized and no trace is requested, reference otherwise.
        erasure_prob: Unreliable-channel loss probability.
        stop_on_full_coverage: Oracle early stop.
        universal_channels / id_space_size: Baseline parameters.
        trace: Optional slot trace (reference engine only).
        faults: Optional fault plan (or its archived dict form); trivial
            plans leave the run bit-identical to a fault-free one.
    """
    fault_plan = _resolve_faults(faults)
    rng_factory = RngFactory(seed)
    stopping = StoppingCondition(
        max_slots=max_slots, stop_on_full_coverage=stop_on_full_coverage
    )
    if engine == "auto":
        engine = (
            "fast"
            if protocol in VECTORIZED_PROTOCOLS and trace is None
            else "reference"
        )
    if engine == "fast":
        if trace is not None:
            raise ConfigurationError("the fast engine does not record traces")
        schedule = _vector_schedule(protocol, network, delta_est)
        sim = FastSlottedSimulator(
            network,
            schedule,
            rng_factory,
            start_offsets=start_offsets,
            erasure_prob=erasure_prob,
            faults=fault_plan,
        )
        result = sim.run(stopping)
    elif engine == "reference":
        factory = make_sync_factory(
            protocol,
            delta_est=delta_est,
            universal_channels=universal_channels,
            id_space_size=id_space_size,
        )
        sim = SlottedSimulator(
            network,
            factory,
            rng_factory,
            start_offsets=start_offsets,
            erasure_prob=erasure_prob,
            trace=trace,
            faults=fault_plan,
        )
        result = sim.run(stopping)
    else:
        raise ConfigurationError(
            f"unknown engine {engine!r}; use 'auto', 'fast' or 'reference'"
        )
    result.metadata["protocol"] = protocol
    result.metadata["delta_est"] = delta_est
    return result


def experiment_runner_params(
    protocol: str,
    network: M2HeWNetwork,
    *,
    delta_est: Optional[int],
    max_slots: int,
    faults: FaultsLike = None,
) -> Dict[str, Any]:
    """Uniform ``runner_params`` for one synchronous campaign cell.

    Fills exactly the parameters the registry says ``protocol`` needs —
    the degree bound, the agreed universal channel set, the id-space
    size — reading the latter two off the network at hand. Campaign and
    tournament code can therefore loop over any mix of registered
    synchronous protocols with one call site per cell.
    """
    spec = protocol_spec(protocol)
    if spec.kind != "sync":
        raise ConfigurationError(
            "experiment_runner_params covers synchronous protocols, got "
            f"{protocol!r}"
        )
    params: Dict[str, Any] = {
        "max_slots": max_slots,
        "delta_est": delta_est if spec.needs_delta_est else None,
    }
    if spec.needs_universal:
        params["universal_channels"] = sorted(network.universal_channel_set)
    if spec.needs_id_space:
        params["id_space_size"] = max(network.node_ids) + 1
    if faults is not None:
        params["faults"] = faults
    return params


def make_clocks(
    network: M2HeWNetwork,
    model: str,
    drift_bound: float,
    rng: np.random.Generator,
    mean_segment: float = 10.0,
    period: float = 50.0,
) -> Dict[int, Clock]:
    """Per-node clocks under a named drift model.

    * ``perfect`` — ideal clocks;
    * ``constant`` — each node a fixed drift drawn uniformly from
      ``[−δ, +δ]`` (worst pairs: one fast, one slow);
    * ``random_walk`` — rate re-drawn at exponential intervals;
    * ``sinusoidal`` — rate ``1 + δ·cos``, random phase per node.
    """
    if model not in CLOCK_MODELS:
        raise ConfigurationError(
            f"unknown clock model {model!r}; choose from {CLOCK_MODELS}"
        )
    clocks: Dict[int, Clock] = {}
    for nid in network.node_ids:
        offset = float(rng.uniform(0.0, 1000.0))
        if model == "perfect" or drift_bound == 0.0:
            clocks[nid] = PerfectClock(offset=offset)
        elif model == "constant":
            drift = float(rng.uniform(-drift_bound, drift_bound))
            clocks[nid] = ConstantDriftClock(
                drift, offset=offset, drift_bound=drift_bound
            )
        elif model == "random_walk":
            clocks[nid] = RandomWalkDriftClock(
                drift_bound, rng, mean_segment=mean_segment, offset=offset
            )
        else:
            clocks[nid] = SinusoidalDriftClock(
                drift_bound,
                period=period,
                phase=float(rng.uniform(0.0, 2.0 * np.pi)),
                offset=offset,
            )
    return clocks


def run_asynchronous(
    network: M2HeWNetwork,
    *,
    seed: SeedLike,
    delta_est: int,
    frame_length: float = 1.0,
    max_frames_per_node: Optional[int] = None,
    max_real_time: Optional[float] = None,
    drift_bound: float = 0.0,
    clock_model: str = "constant",
    start_spread: float = 0.0,
    erasure_prob: float = 0.0,
    stop_on_full_coverage: bool = True,
    trace: Optional[ExecutionTrace] = None,
    faults: FaultsLike = None,
) -> DiscoveryResult:
    """Run one asynchronous (Algorithm 4) discovery trial.

    Args:
        network: The network instance.
        seed: Trial seed.
        delta_est: Degree bound for Algorithm 4.
        frame_length: ``L`` in local time units.
        max_frames_per_node: Stop once every node ran this many full
            frames after ``T_s`` (Theorem 9's horizon).
        max_real_time: Hard real-time cap.
        drift_bound: ``δ`` for the clock model.
        clock_model: One of ``perfect|constant|random_walk|sinusoidal``.
        start_spread: Node start times drawn uniformly from
            ``[0, start_spread]`` (0 = simultaneous).
        erasure_prob: Unreliable-channel loss probability.
        stop_on_full_coverage: Oracle early stop.
        trace: Optional frame trace for alignment analysis.
        faults: Optional fault plan (or its archived dict form); trivial
            plans leave the run bit-identical to a fault-free one.
    """
    if start_spread < 0:
        raise ConfigurationError(f"start_spread must be >= 0, got {start_spread}")
    fault_plan = _resolve_faults(faults)
    rng_factory = RngFactory(seed)
    env_rng = rng_factory.stream("environment")
    clocks = make_clocks(network, clock_model, drift_bound, env_rng)
    starts = {
        nid: float(env_rng.uniform(0.0, start_spread)) if start_spread > 0 else 0.0
        for nid in network.node_ids
    }
    sim = AsyncSimulator(
        network,
        make_async_factory("algorithm4", delta_est=delta_est),
        rng_factory,
        frame_length=frame_length,
        clocks=clocks,
        start_times=starts,
        erasure_prob=erasure_prob,
        trace=trace,
        faults=fault_plan,
    )
    stopping = StoppingCondition(
        max_real_time=max_real_time,
        max_frames_per_node=max_frames_per_node,
        stop_on_full_coverage=stop_on_full_coverage,
    )
    result = sim.run(stopping)
    result.metadata["protocol"] = "algorithm4"
    result.metadata["delta_est"] = delta_est
    result.metadata["drift_bound"] = drift_bound
    result.metadata["clock_model"] = clock_model
    return result


def run_experiment_trial(
    network: M2HeWNetwork,
    protocol: str,
    *,
    seed: SeedLike,
    runner_params: Optional[Mapping[str, Any]] = None,
) -> DiscoveryResult:
    """Run one trial of a batch experiment (any protocol, default budgets).

    The single code path behind both the serial and the process-pool
    campaign executors: given the same ``(network, protocol, seed,
    runner_params)`` it must produce bit-identical results wherever it
    runs, which is what makes ``run_batch`` worker-count invariant.
    """
    params: Dict[str, Any] = dict(runner_params or {})
    if protocol in SYNC_PROTOCOLS:
        params.setdefault("max_slots", 200_000)
        return run_synchronous(network, protocol, seed=seed, **params)
    if protocol in ASYNCHRONOUS_PROTOCOLS:
        if "max_frames_per_node" not in params and "max_real_time" not in params:
            params["max_frames_per_node"] = 200_000
        return run_asynchronous(network, seed=seed, **params)
    raise ConfigurationError(
        f"unknown protocol {protocol!r} for batch experiments"
    )


def replay_trial(
    network: M2HeWNetwork,
    protocol: str,
    *,
    base_seed: Optional[int],
    trial_index: int,
    runner_params: Optional[Mapping[str, Any]] = None,
) -> DiscoveryResult:
    """Re-run one campaign trial from its replay coordinates, in-process.

    The replay contract: every :class:`~repro.exceptions.TrialExecutionError`
    (and every quarantine record in a campaign manifest) carries the
    campaign ``base_seed`` and the failing trial indices — this function
    turns those coordinates back into the exact trial, because trial
    ``t`` always runs from ``derive_trial_seed(base_seed, t)`` no matter
    which worker, backend or retry attempt originally dispatched it.
    """
    return run_experiment_trial(
        network,
        protocol,
        seed=derive_trial_seed(base_seed, trial_index),
        runner_params=runner_params,
    )


#: ``runner_params`` keys the batched engine can honor directly; any
#: other key (tracing, baseline parameters, …) routes the group through
#: the serial trial loop instead.
_BATCHABLE_PARAMS = frozenset(
    {
        "max_slots",
        "delta_est",
        "start_offsets",
        "erasure_prob",
        "stop_on_full_coverage",
        "engine",
        "faults",
    }
)


#: One spec point of a grid batch: ``(protocol, per-trial seeds,
#: runner_params)``.
GridEntry = Tuple[
    str, Sequence[np.random.SeedSequence], Optional[Mapping[str, Any]]
]


def grid_batchable(
    protocol: str, runner_params: Optional[Mapping[str, Any]] = None
) -> bool:
    """Whether one spec point is eligible for the batched/grid kernel.

    A protocol the registry marks ``vectorized``, on the fast/auto
    engine, with only :data:`_BATCHABLE_PARAMS` parameters. Exposed so
    campaign layers can decide *before* dispatch whether spec points
    may fuse into one grid.
    """
    params = dict(runner_params or {})
    return (
        protocol in VECTORIZED_PROTOCOLS
        and params.get("engine", "auto") in ("auto", "fast")
        and set(params) <= _BATCHABLE_PARAMS
    )


def run_experiment_grid_batched(
    network: M2HeWNetwork,
    entries: Sequence[GridEntry],
    *,
    profile: bool = False,
) -> List[List[DiscoveryResult]]:
    """Run several spec points' trial groups, fused into grid batches.

    Each entry is one experiment cell — ``(protocol, seeds,
    runner_params)`` on the shared ``network``. Entries that are
    grid-eligible (:func:`grid_batchable`) and share a stopping
    condition (``max_slots`` + ``stop_on_full_coverage``) advance
    together in one :class:`~repro.sim.batched.GridBatchedSimulator`
    kernel pass; everything else (``algorithm4``, non-vectorized rivals
    like ``mcdis``, ``engine="reference"``, traces, baseline
    parameters) falls back to the per-trial :func:`run_experiment_trial`
    loop. Either way entry ``j``'s results are byte-identical to running
    it alone, trial by trial — grid fusion is a dispatch optimization,
    invariant by construction, and the differential tests pin it across
    G and B. A single entry (G=1) is the trial-batched engine.

    Returns one result list per entry, in entry order.
    """
    results: List[Optional[List[DiscoveryResult]]] = [None] * len(entries)
    groups: Dict[Tuple[int, bool], List[int]] = {}
    for j, (protocol, seeds, runner_params) in enumerate(entries):
        params = dict(runner_params or {})
        if not grid_batchable(protocol, params) or not list(seeds):
            results[j] = [
                run_experiment_trial(
                    network, protocol, seed=s, runner_params=runner_params
                )
                for s in seeds
            ]
            continue
        key = (
            int(params.get("max_slots", 200_000)),
            bool(params.get("stop_on_full_coverage", True)),
        )
        groups.setdefault(key, []).append(j)

    for (max_slots, stop_oracle), indices in groups.items():
        cells = []
        for j in indices:
            protocol, seeds, runner_params = entries[j]
            params = dict(runner_params or {})
            cells.append(
                GridCell(
                    schedule=_vector_schedule(
                        protocol, network, params.get("delta_est")
                    ),
                    # Seed-aware through `entries`: every factory is
                    # built from a caller-supplied SeedSequence, D105
                    # just cannot see through the tuple.
                    rng_factories=[RngFactory(s) for s in seeds],  # lint: disable=D105
                    start_offsets=params.get("start_offsets"),
                    erasure_prob=params.get("erasure_prob", 0.0),
                    faults=_resolve_faults(params.get("faults")),
                )
            )
        sim = GridBatchedSimulator(network, cells, profile=profile)
        stopping = StoppingCondition(
            max_slots=max_slots, stop_on_full_coverage=stop_oracle
        )
        flat = sim.run(stopping)
        for g, j in enumerate(indices):
            sl = sim.cell_slices[g]
            cell_results = flat[sl.start : sl.stop]
            protocol, _, runner_params = entries[j]
            params = dict(runner_params or {})
            for result in cell_results:
                result.metadata["protocol"] = protocol
                result.metadata["delta_est"] = params.get("delta_est")
            results[j] = cell_results
    return [group if group is not None else [] for group in results]


def run_trials(
    trial_fn: Callable[[np.random.SeedSequence], DiscoveryResult],
    num_trials: int,
    base_seed: Optional[int],
) -> List[DiscoveryResult]:
    """Run ``trial_fn`` for ``num_trials`` independent derived seeds."""
    if num_trials <= 0:
        raise ConfigurationError(f"num_trials must be positive, got {num_trials}")
    return [
        trial_fn(derive_trial_seed(base_seed, i)) for i in range(num_trials)
    ]


def random_start_offsets(
    network: M2HeWNetwork,
    max_offset: int,
    rng: np.random.Generator,
) -> Dict[int, int]:
    """Uniform random start slots in ``[0, max_offset]`` per node."""
    if max_offset < 0:
        raise ConfigurationError(f"max_offset must be >= 0, got {max_offset}")
    return {
        nid: int(rng.integers(0, max_offset + 1)) for nid in network.node_ids
    }
