"""Protocol interfaces shared by the paper's algorithms and the baselines.

Two interfaces exist, matching the paper's two system models:

* :class:`SynchronousProtocol` — per-*slot* behavior for the slotted
  engines (:mod:`repro.sim.slotted`, :mod:`repro.sim.batched`).
  Each slot the node declares a :class:`SlotDecision`: which channel it
  tunes to and whether it transmits, listens or stays quiet.

* :class:`AsynchronousProtocol` — per-*frame* behavior for the
  continuous-time engine (:mod:`repro.sim.async_engine`). Each local
  frame the node declares a :class:`FrameDecision`; a transmitting node
  repeats its hello in each of the frame's three slots, a listening node
  listens for the whole frame (paper §IV).

Slot and frame indices passed to the decide methods are *local*: they
count from the moment this node started the protocol, which is how the
variable-start-time algorithms experience time.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

import numpy as np

from ..exceptions import ConfigurationError
from .messages import HelloMessage
from .neighbor_table import NeighborTable

__all__ = [
    "Mode",
    "SlotDecision",
    "FrameDecision",
    "DiscoveryProtocol",
    "SynchronousProtocol",
    "AsynchronousProtocol",
    "UniformChannelMixin",
]


class Mode(enum.Enum):
    """Transceiver mode for one slot/frame (§II: exactly one at a time)."""

    TRANSMIT = "transmit"
    LISTEN = "listen"
    QUIET = "quiet"


@dataclass(frozen=True)
class SlotDecision:
    """What a node does in one synchronous time slot.

    Attributes:
        mode: Transmit, listen, or quiet (transceiver off).
        channel: The channel tuned to; ``None`` iff quiet.
    """

    mode: Mode
    channel: Optional[int]

    def __post_init__(self) -> None:
        if self.mode is Mode.QUIET:
            if self.channel is not None:
                raise ConfigurationError("quiet decision must not carry a channel")
        elif self.channel is None:
            raise ConfigurationError(f"{self.mode.value} decision requires a channel")

    @classmethod
    def transmit(cls, channel: int) -> "SlotDecision":
        return cls(Mode.TRANSMIT, channel)

    @classmethod
    def listen(cls, channel: int) -> "SlotDecision":
        return cls(Mode.LISTEN, channel)

    @classmethod
    def quiet(cls) -> "SlotDecision":
        return cls(Mode.QUIET, None)


@dataclass(frozen=True)
class FrameDecision:
    """What a node does during one local frame (asynchronous model)."""

    mode: Mode
    channel: Optional[int]

    def __post_init__(self) -> None:
        if self.mode is Mode.QUIET:
            if self.channel is not None:
                raise ConfigurationError("quiet decision must not carry a channel")
        elif self.channel is None:
            raise ConfigurationError(f"{self.mode.value} decision requires a channel")


class DiscoveryProtocol(abc.ABC):
    """State common to all neighbor-discovery protocols.

    Args:
        node_id: Identity of the node running the protocol.
        channels: ``A(u)`` — the node's available channel set.
        rng: The node's private random stream.
    """

    def __init__(
        self,
        node_id: int,
        channels: Iterable[int],
        rng: np.random.Generator,
    ) -> None:
        self._node_id = node_id
        self._channels = frozenset(channels)
        if not self._channels:
            raise ConfigurationError(f"node {node_id} has no available channels")
        self._channel_list = sorted(self._channels)
        self._rng = rng
        self._table = NeighborTable(node_id, self._channels)

    @property
    def node_id(self) -> int:
        """The node running this protocol instance."""
        return self._node_id

    @property
    def channels(self) -> FrozenSet[int]:
        """``A(u)``."""
        return self._channels

    @property
    def channel_count(self) -> int:
        """``|A(u)|``."""
        return len(self._channels)

    @property
    def neighbor_table(self) -> NeighborTable:
        """Discovered neighbors so far."""
        return self._table

    def hello(self) -> HelloMessage:
        """The hello message this node transmits."""
        return HelloMessage(sender=self._node_id, channels=self._channels)

    def on_receive(
        self,
        message: HelloMessage,
        heard_at: float,
        channel: Optional[int] = None,
    ) -> bool:
        """Handle a clear hello; return ``True`` if the sender was new.

        ``channel`` is the reception channel when the engine knows it
        (all bundled engines pass it); see
        :meth:`NeighborTable.record_hello`.
        """
        return self._table.record_hello(message, heard_at, channel)

    def _random_channel(self) -> int:
        """A channel selected uniformly at random from ``A(u)``."""
        idx = int(self._rng.integers(0, len(self._channel_list)))
        return self._channel_list[idx]


class SynchronousProtocol(DiscoveryProtocol):
    """Slot-driven protocol for the synchronous engines."""

    @abc.abstractmethod
    def decide_slot(self, local_slot: int) -> SlotDecision:
        """Decision for the node's ``local_slot``-th slot (0-based)."""

    def transmit_probability(self, local_slot: int) -> Optional[float]:
        """Per-slot transmit probability, if the protocol fits the
        "uniform random channel + Bernoulli transmit" template.

        Protocols that return a probability fit the vectorized engine
        (:mod:`repro.sim.batched`), which runs the template from a
        :class:`~repro.sim.batched.VectorSchedule`. Its rows are
        independent and its output is invariant to how trials are
        grouped (``G`` cells × ``B`` trials), pinned by the engine
        goldens and the grid tests. Protocols with a different structure
        (e.g. the deterministic baseline) return ``None`` and are only
        runnable on the reference engine.
        """
        return None


class AsynchronousProtocol(DiscoveryProtocol):
    """Frame-driven protocol for the asynchronous engine."""

    @abc.abstractmethod
    def decide_frame(self, local_frame: int) -> FrameDecision:
        """Decision for the node's ``local_frame``-th frame (0-based)."""


class UniformChannelMixin:
    """Shared implementation of the paper's slot template.

    All four algorithms share the same per-slot/per-frame skeleton:
    select a channel uniformly at random from ``A(u)`` and transmit with
    some probability ``p``, listening otherwise. Subclasses provide only
    the probability schedule.
    """

    def _uniform_slot_decision(self, p: float) -> SlotDecision:
        channel = self._random_channel()  # type: ignore[attr-defined]
        rng = self._rng  # type: ignore[attr-defined]
        if rng.random() < p:
            return SlotDecision.transmit(channel)
        return SlotDecision.listen(channel)

    def _uniform_frame_decision(self, p: float) -> FrameDecision:
        channel = self._random_channel()  # type: ignore[attr-defined]
        rng = self._rng  # type: ignore[attr-defined]
        if rng.random() < p:
            return FrameDecision(Mode.TRANSMIT, channel)
        return FrameDecision(Mode.LISTEN, channel)
