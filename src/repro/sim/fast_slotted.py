"""The serial vectorized engine: one trial on the grid engine's slot loop.

:class:`FastSlottedSimulator` runs one seeded trial of a
:class:`~repro.sim.batched.VectorSchedule` and returns its
:class:`~repro.sim.results.DiscoveryResult`. It is the one-row form of
:class:`~repro.sim.batched.GridBatchedSimulator` — one
:class:`~repro.sim.batched.GridCell` holding one factory — so every
vectorized trial runs the same slot loop whether it is dispatched
serially, pooled, queued or served. Rows are independent and output is
invariant to the grid's ``G`` and ``B``, so this engine's bytes are
those of any grid row with the same trial; the goldens
(``tests/test_engine_goldens.py``) and the grid tests pin that.

The schedules, the reception kernel and :func:`start_offset_vector`
live in :mod:`repro.sim.batched` and are re-exported here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from ..net.network import M2HeWNetwork
from .batched import (
    FlatSchedule,
    GridBatchedSimulator,
    GridCell,
    GrowingEstimateSchedule,
    RepeatedStagedSchedule,
    SparseReception,
    StagedSchedule,
    VectorSchedule,
    start_offset_vector,
)
from .results import DiscoveryResult
from .rng import RngFactory
from .stopping import StoppingCondition

if TYPE_CHECKING:  # imported lazily at runtime to keep sim/faults decoupled
    from ..faults.plan import FaultPlan

__all__ = [
    "SparseReception",
    "VectorSchedule",
    "StagedSchedule",
    "RepeatedStagedSchedule",
    "GrowingEstimateSchedule",
    "FlatSchedule",
    "FastSlottedSimulator",
    "start_offset_vector",
]


class FastSlottedSimulator(GridBatchedSimulator):
    """Numpy-vectorized synchronous discovery simulator for one trial.

    Semantics are identical to :class:`~repro.sim.slotted.SlottedSimulator`
    (same collision rules, start offsets, erasure and fault models); only
    the protocol representation differs — a
    :class:`~repro.sim.batched.VectorSchedule` instead of per-node
    protocol objects.
    """

    def __init__(
        self,
        network: M2HeWNetwork,
        schedule: VectorSchedule,
        rng_factory: RngFactory,
        start_offsets: Optional[Mapping[int, int]] = None,
        erasure_prob: float = 0.0,
        faults: Optional["FaultPlan"] = None,
        *,
        profile: bool = False,
    ) -> None:
        super().__init__(
            network,
            [
                GridCell(
                    schedule=schedule,
                    rng_factories=(rng_factory,),
                    start_offsets=start_offsets,
                    erasure_prob=erasure_prob,
                    faults=faults,
                )
            ],
            profile=profile,
        )

    def run(self, stopping: StoppingCondition) -> DiscoveryResult:  # type: ignore[override]
        """Execute slots until the stopping condition fires."""
        return super().run(stopping)[0]
