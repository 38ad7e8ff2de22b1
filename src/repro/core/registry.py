"""Protocol registry: one declarative table of every discovery protocol.

Engines take a *protocol factory* — a callable
``(node_id, channels, rng) -> protocol`` — so they stay independent of
any concrete algorithm. This module maps human-readable names (used by
the CLI, the workload configs and the tournament) to factories, closing
over algorithm-specific parameters.

The registry is a table of :class:`ProtocolSpec` entries carrying
**capability flags** next to each name: which parameters the protocol
requires (``needs_delta_est`` / ``needs_universal`` /
``needs_id_space``) and whether it fits the vectorized engines' uniform
slot template (``vectorized``; such protocols run on the fast engine and
fuse into grid batches). Every downstream surface — the runner's engine
auto-selection, batch-campaign validation, the CLI's ``--protocol``
choices, the conformance test parametrization — derives from this one
table, so registering a protocol here is the *only* step needed to
enroll it everywhere (a drift test pins that property).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..baselines.deterministic_scan import DeterministicScanProtocol
from ..baselines.universal_sweep import UniversalSweepProtocol
from ..exceptions import ConfigurationError
from .algorithm1 import StagedSyncDiscovery
from .algorithm2 import GrowingEstimateSyncDiscovery
from .algorithm3 import FlatSyncDiscovery
from .algorithm4 import AsyncFrameDiscovery
from .base import AsynchronousProtocol, SynchronousProtocol
from .mcdis import McDisDiscovery
from .robust import RobustFlatDiscovery, RobustStagedDiscovery

__all__ = [
    "ASYNCHRONOUS_PROTOCOLS",
    "AsyncFactory",
    "PROTOCOL_SPECS",
    "ProtocolSpec",
    "SYNCHRONOUS_PROTOCOLS",
    "SyncFactory",
    "VECTORIZED_PROTOCOLS",
    "make_async_factory",
    "make_sync_factory",
    "protocol_spec",
]

SyncFactory = Callable[[int, FrozenSet[int], np.random.Generator], SynchronousProtocol]
AsyncFactory = Callable[[int, FrozenSet[int], np.random.Generator], AsynchronousProtocol]


@dataclass(frozen=True)
class ProtocolSpec:
    """One registered protocol and its capability flags.

    Attributes:
        name: Registry key (CLI / workload / archive protocol name).
        kind: ``"sync"`` (slotted engines) or ``"async"`` (frame engine).
        summary: One-line description for listings.
        needs_delta_est: Factory requires a degree bound ``Δ_est``.
        needs_universal: Factory requires the agreed universal channel
            set (baselines only).
        needs_id_space: Factory requires the id-space size ``N_max``.
        vectorized: Fits the *uniform channel + Bernoulli transmit*
            template, so the vectorized (numpy) engine
            (:class:`~repro.sim.batched.GridBatchedSimulator`, one trial:
            :class:`~repro.sim.fast_slotted.FastSlottedSimulator`) can
            run it via a :class:`~repro.sim.batched.VectorSchedule`.
    """

    name: str
    kind: str
    summary: str
    needs_delta_est: bool = False
    needs_universal: bool = False
    needs_id_space: bool = False
    vectorized: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("sync", "async"):
            raise ConfigurationError(
                f"protocol kind must be 'sync' or 'async', got {self.kind!r}"
            )

    @property
    def reads_network(self) -> bool:
        """Campaign parameters are read off the realized network."""
        return self.needs_universal or self.needs_id_space


#: The full protocol table: the paper's algorithms, the rival protocols
#: the tournament races them against, and the §I baselines.
PROTOCOL_SPECS: Tuple[ProtocolSpec, ...] = (
    ProtocolSpec(
        "algorithm1",
        "sync",
        "paper Alg. 1: staged geometric probability sweep",
        needs_delta_est=True,
        vectorized=True,
    ),
    ProtocolSpec(
        "algorithm2",
        "sync",
        "paper Alg. 2: growing degree estimate, no knowledge",
        vectorized=True,
    ),
    ProtocolSpec(
        "algorithm3",
        "sync",
        "paper Alg. 3: flat probability, variable start times",
        needs_delta_est=True,
        vectorized=True,
    ),
    ProtocolSpec(
        "robust_staged",
        "sync",
        "1505.00267 rival: staged sweep with loss-compensating repeats",
        needs_delta_est=True,
        vectorized=True,
    ),
    ProtocolSpec(
        "robust_flat",
        "sync",
        "1505.00267 rival: flat schedule at half contention",
        needs_delta_est=True,
        vectorized=True,
    ),
    ProtocolSpec(
        "mcdis",
        "sync",
        "1307.3630 rival: modular-clock channel-hopping rendezvous",
    ),
    ProtocolSpec(
        "universal_sweep",
        "sync",
        "§I strawman: per-channel birthday over the universal set",
        needs_delta_est=True,
        needs_universal=True,
    ),
    ProtocolSpec(
        "deterministic_scan",
        "sync",
        "deterministic baseline: Θ(N_max·|U|) round-robin scan",
        needs_universal=True,
        needs_id_space=True,
    ),
    ProtocolSpec(
        "algorithm4",
        "async",
        "paper Alg. 4: asynchronous frames under drifting clocks",
        needs_delta_est=True,
    ),
)

_SPEC_BY_NAME = {spec.name: spec for spec in PROTOCOL_SPECS}

#: Names accepted by :func:`make_sync_factory`, in table order.
SYNCHRONOUS_PROTOCOLS: Tuple[str, ...] = tuple(
    spec.name for spec in PROTOCOL_SPECS if spec.kind == "sync"
)

#: Names accepted by :func:`make_async_factory`.
ASYNCHRONOUS_PROTOCOLS: Tuple[str, ...] = tuple(
    spec.name for spec in PROTOCOL_SPECS if spec.kind == "async"
)

#: Synchronous protocols the fast (numpy) engine can run.
VECTORIZED_PROTOCOLS: Tuple[str, ...] = tuple(
    spec.name for spec in PROTOCOL_SPECS if spec.vectorized
)


def protocol_spec(name: str) -> ProtocolSpec:
    """Look up a registered protocol's spec by name."""
    try:
        return _SPEC_BY_NAME[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; choose from "
            f"{tuple(s.name for s in PROTOCOL_SPECS)}"
        ) from None


def make_sync_factory(
    name: str,
    delta_est: Optional[int] = None,
    universal_channels: Optional[Sequence[int]] = None,
    id_space_size: Optional[int] = None,
) -> SyncFactory:
    """Factory for a synchronous protocol by name.

    Args:
        name: One of :data:`SYNCHRONOUS_PROTOCOLS`.
        delta_est: Degree bound — required where the spec says
            ``needs_delta_est``.
        universal_channels: Agreed universal set — required where the
            spec says ``needs_universal``.
        id_space_size: ``N_max`` — required where the spec says
            ``needs_id_space``.

    Parameters a protocol does not need are ignored, so callers may pass
    one uniform parameter set for any registered name.
    """
    spec = _SPEC_BY_NAME.get(name)
    if spec is None or spec.kind != "sync":
        raise ConfigurationError(
            f"unknown synchronous protocol {name!r}; choose from "
            f"{SYNCHRONOUS_PROTOCOLS}"
        )
    de = (
        _require(delta_est, f"{name} requires delta_est")
        if spec.needs_delta_est
        else None
    )
    uni = (
        list(_require(universal_channels, f"{name} requires universal_channels"))
        if spec.needs_universal
        else None
    )
    nmax = (
        _require(id_space_size, f"{name} requires id_space_size")
        if spec.needs_id_space
        else None
    )
    if name == "algorithm1":
        assert de is not None
        return lambda nid, chs, rng: StagedSyncDiscovery(nid, chs, rng, de)
    if name == "algorithm2":
        return lambda nid, chs, rng: GrowingEstimateSyncDiscovery(nid, chs, rng)
    if name == "algorithm3":
        assert de is not None
        return lambda nid, chs, rng: FlatSyncDiscovery(nid, chs, rng, de)
    if name == "robust_staged":
        assert de is not None
        return lambda nid, chs, rng: RobustStagedDiscovery(nid, chs, rng, de)
    if name == "robust_flat":
        assert de is not None
        return lambda nid, chs, rng: RobustFlatDiscovery(nid, chs, rng, de)
    if name == "mcdis":
        return lambda nid, chs, rng: McDisDiscovery(nid, chs, rng)
    if name == "universal_sweep":
        assert de is not None and uni is not None
        return lambda nid, chs, rng: UniversalSweepProtocol(nid, chs, rng, uni, de)
    if name == "deterministic_scan":
        assert uni is not None and nmax is not None
        return lambda nid, chs, rng: DeterministicScanProtocol(
            nid, chs, rng, uni, nmax
        )
    raise AssertionError(f"spec table lists {name!r} but no builder exists")


def make_async_factory(name: str, delta_est: Optional[int] = None) -> AsyncFactory:
    """Factory for an asynchronous protocol by name."""
    if name == "algorithm4":
        de = _require(delta_est, "algorithm4 requires delta_est")
        return lambda nid, chs, rng: AsyncFrameDiscovery(nid, chs, rng, de)
    raise ConfigurationError(
        f"unknown asynchronous protocol {name!r}; choose from "
        f"{ASYNCHRONOUS_PROTOCOLS}"
    )


_T = TypeVar("_T")


def _require(value: Optional[_T], message: str) -> _T:
    if value is None:
        raise ConfigurationError(message)
    return value
