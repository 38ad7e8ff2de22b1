"""Node-local termination detection (extension).

The paper's algorithms run forever (``while true``); deciding *when a
node may stop* is deferred to companion work ([22] pairs discovery with
"lightweight termination detection"). The engines in this repository
use an oracle stop ("all links covered") for measurement. This module
adds the practical alternative: a **quiescence heuristic** — a node
stops after ``quiet_threshold`` consecutive local slots (or frames)
without learning a new neighbor.

Two termination policies, because a stopped node affects *others*:

* ``SLEEP`` — transceiver off. Saves the most energy but a node that
  stops early deprives slower neighbors of its hellos.
* ``BEACON`` — keep the protocol's transmission schedule but never
  listen (listen decisions become quiet). Costs tx energy, preserves
  everyone else's ability to discover the terminated node.

Choosing the threshold: if a link into ``u`` is still uncovered, one
slot covers it w.p. at least ``q = ρ / (8 max(2S, Δ_est))`` (Theorem 3
analysis), so ``K`` quiet slots are a false stop w.p. ``≤ (1 − q)^K``.
:func:`recommended_quiet_threshold` inverts that for a target local
failure probability.
"""

from __future__ import annotations

import enum
import math
from typing import Optional

from ..exceptions import ConfigurationError
from .base import (
    AsynchronousProtocol,
    FrameDecision,
    Mode,
    SlotDecision,
    SynchronousProtocol,
)
from .bounds import slot_coverage_alg3
from .messages import HelloMessage
from .neighbor_table import NeighborTable

__all__ = [
    "TerminationPolicy",
    "SelfTerminatingProtocol",
    "SelfTerminatingAsyncProtocol",
    "recommended_quiet_threshold",
]


class TerminationPolicy(enum.Enum):
    """What a terminated node does with its radio."""

    SLEEP = "sleep"
    BEACON = "beacon"


def recommended_quiet_threshold(
    s: int,
    delta_est: int,
    rho: float,
    local_epsilon: float,
) -> int:
    """Quiet slots after which a false stop has probability ≤ ``local_epsilon``.

    Derived from the Algorithm 3 per-slot coverage bound: an uncovered
    incoming link would have been covered during ``K`` quiet slots with
    probability ``1 − (1 − q)^K``; solve for ``K``.
    """
    if not 0.0 < local_epsilon < 1.0:
        raise ConfigurationError(
            f"local_epsilon must be in (0, 1), got {local_epsilon}"
        )
    q = slot_coverage_alg3(s, delta_est, rho)
    return math.ceil(math.log(local_epsilon) / math.log(1.0 - q))


class _QuiescenceTracker:
    """Shared stop logic for the sync and async wrappers."""

    def __init__(self, quiet_threshold: int) -> None:
        if quiet_threshold < 1:
            raise ConfigurationError(
                f"quiet_threshold must be >= 1, got {quiet_threshold}"
            )
        self.quiet_threshold = quiet_threshold
        self.last_progress: float = -1.0
        self.terminated_at: Optional[float] = None

    def note_progress(self, at: float) -> None:
        if self.terminated_at is None and at > self.last_progress:
            self.last_progress = at

    def check(self, now: float) -> bool:
        """Update and return whether the node is terminated at ``now``.

        The node stops once it has sat through ``quiet_threshold`` full
        decisions after its last progress (progress at slot ``t`` keeps
        slots ``t+1 .. t+threshold`` active; slot ``t+threshold+1`` stops).
        """
        if (
            self.terminated_at is None
            and now - self.last_progress > self.quiet_threshold
        ):
            self.terminated_at = now
        return self.terminated_at is not None


class SelfTerminatingProtocol(SynchronousProtocol):
    """Wrap a synchronous protocol with the quiescence stop rule.

    Args:
        inner: The wrapped discovery protocol (it keeps running its own
            schedule until the wrapper terminates it).
        quiet_threshold: Consecutive no-new-neighbor local slots before
            stopping.
        policy: What to do after stopping (sleep or beacon).
    """

    def __init__(
        self,
        inner: SynchronousProtocol,
        quiet_threshold: int,
        policy: TerminationPolicy = TerminationPolicy.SLEEP,
    ) -> None:
        # Deliberately no super().__init__: all state delegates to inner.
        self._inner = inner
        self._policy = policy
        self._tracker = _QuiescenceTracker(quiet_threshold)

    # ---- delegated protocol surface ----------------------------------

    @property
    def node_id(self) -> int:
        return self._inner.node_id

    @property
    def channels(self):
        return self._inner.channels

    @property
    def channel_count(self) -> int:
        return self._inner.channel_count

    @property
    def neighbor_table(self) -> NeighborTable:
        return self._inner.neighbor_table

    def hello(self) -> HelloMessage:
        return self._inner.hello()

    @property
    def inner(self) -> SynchronousProtocol:
        """The wrapped protocol."""
        return self._inner

    # ---- termination state --------------------------------------------

    @property
    def terminated_at(self) -> Optional[float]:
        """Local slot at which the node stopped, or ``None``."""
        return self._tracker.terminated_at

    @property
    def policy(self) -> TerminationPolicy:
        return self._policy

    # ---- behavior -------------------------------------------------------

    def decide_slot(self, local_slot: int) -> SlotDecision:
        if self._tracker.check(float(local_slot)):
            if self._policy is TerminationPolicy.SLEEP:
                return SlotDecision.quiet()
            decision = self._inner.decide_slot(local_slot)
            if decision.mode is Mode.TRANSMIT:
                return decision
            return SlotDecision.quiet()  # beacon: never listen again
        return self._inner.decide_slot(local_slot)

    def on_receive(
        self,
        message: HelloMessage,
        heard_at: float,
        channel: Optional[int] = None,
    ) -> bool:
        is_new = self._inner.on_receive(message, heard_at, channel)
        if is_new:
            self._tracker.note_progress(heard_at)
        return is_new


class SelfTerminatingAsyncProtocol(AsynchronousProtocol):
    """Frame-based twin of :class:`SelfTerminatingProtocol`."""

    def __init__(
        self,
        inner: AsynchronousProtocol,
        quiet_threshold: int,
        policy: TerminationPolicy = TerminationPolicy.SLEEP,
    ) -> None:
        self._inner = inner
        self._policy = policy
        self._tracker = _QuiescenceTracker(quiet_threshold)

    @property
    def node_id(self) -> int:
        return self._inner.node_id

    @property
    def channels(self):
        return self._inner.channels

    @property
    def channel_count(self) -> int:
        return self._inner.channel_count

    @property
    def neighbor_table(self) -> NeighborTable:
        return self._inner.neighbor_table

    def hello(self) -> HelloMessage:
        return self._inner.hello()

    @property
    def inner(self) -> AsynchronousProtocol:
        return self._inner

    @property
    def terminated_at(self) -> Optional[float]:
        """Local frame index at which the node stopped, or ``None``."""
        return self._tracker.terminated_at

    @property
    def policy(self) -> TerminationPolicy:
        return self._policy

    def decide_frame(self, local_frame: int) -> FrameDecision:
        if self._tracker.check(float(local_frame)):
            if self._policy is TerminationPolicy.SLEEP:
                return FrameDecision(Mode.QUIET, None)
            decision = self._inner.decide_frame(local_frame)
            if decision.mode is Mode.TRANSMIT:
                return decision
            return FrameDecision(Mode.QUIET, None)
        return self._inner.decide_frame(local_frame)

    def on_receive(
        self,
        message: HelloMessage,
        heard_at: float,
        channel: Optional[int] = None,
    ) -> bool:
        is_new = self._inner.on_receive(message, heard_at, channel)
        if is_new:
            self._tracker.note_progress(heard_at)
        return is_new
