"""The paper's contribution: the four neighbor-discovery algorithms.

* :class:`StagedSyncDiscovery` — Algorithm 1 (synchronous, identical
  starts, known degree bound, staged probability sweep).
* :class:`GrowingEstimateSyncDiscovery` — Algorithm 2 (synchronous,
  identical starts, no degree knowledge).
* :class:`FlatSyncDiscovery` — Algorithm 3 (synchronous, variable
  starts, known degree bound, flat probability).
* :class:`AsyncFrameDiscovery` — Algorithm 4 (asynchronous, drifting
  clocks, frame/slot structure).

Rival protocols the tournament races these against live here too:

* :class:`McDisDiscovery` — Mc-Dis channel-hopping rendezvous
  (arXiv:1307.3630 adaptation).
* :class:`RobustStagedDiscovery` / :class:`RobustFlatDiscovery` —
  robust variants for unreliable channels (arXiv:1505.00267).

:mod:`repro.core.bounds` carries the closed-form budgets from the
paper's theorems and lemmas; :mod:`repro.core.registry` is the
declarative table every protocol — paper, rival or baseline — is
enrolled through.
"""

from __future__ import annotations

from . import bounds
from .algorithm1 import StagedSyncDiscovery
from .algorithm2 import GrowingEstimateSyncDiscovery
from .algorithm3 import FlatSyncDiscovery
from .algorithm4 import SLOTS_PER_FRAME, AsyncFrameDiscovery
from .base import (
    AsynchronousProtocol,
    DiscoveryProtocol,
    FrameDecision,
    Mode,
    SlotDecision,
    SynchronousProtocol,
)
from .mcdis import McDisDiscovery
from .messages import HelloMessage
from .neighbor_table import NeighborRecord, NeighborTable
from .params import MAX_DRIFT_RATE, stage_length
from .registry import (
    ASYNCHRONOUS_PROTOCOLS,
    PROTOCOL_SPECS,
    SYNCHRONOUS_PROTOCOLS,
    VECTORIZED_PROTOCOLS,
    ProtocolSpec,
    make_async_factory,
    make_sync_factory,
    protocol_spec,
)
from .robust import RobustFlatDiscovery, RobustStagedDiscovery

__all__ = [
    "ASYNCHRONOUS_PROTOCOLS",
    "AsyncFrameDiscovery",
    "AsynchronousProtocol",
    "DiscoveryProtocol",
    "FlatSyncDiscovery",
    "FrameDecision",
    "GrowingEstimateSyncDiscovery",
    "HelloMessage",
    "MAX_DRIFT_RATE",
    "McDisDiscovery",
    "Mode",
    "NeighborRecord",
    "NeighborTable",
    "PROTOCOL_SPECS",
    "ProtocolSpec",
    "RobustFlatDiscovery",
    "RobustStagedDiscovery",
    "SLOTS_PER_FRAME",
    "SYNCHRONOUS_PROTOCOLS",
    "SlotDecision",
    "StagedSyncDiscovery",
    "SynchronousProtocol",
    "VECTORIZED_PROTOCOLS",
    "bounds",
    "make_async_factory",
    "make_sync_factory",
    "protocol_spec",
    "stage_length",
]
