"""Algorithm 4 — asynchronous system with drifting clocks (paper §IV).

Each node divides its *local* time into frames of length ``L`` and each
frame into three equal slots. At the start of each frame the node picks
a channel uniformly at random from ``A(u)`` and, with probability
``min(1/2, |A(u)| / (3 Δ_est))``, transmits its hello during *each* of
the frame's three slots; otherwise it listens on that channel for the
whole frame.

Why three slots: with clock drift bounded by ``δ <= 1/7`` (Assumption 1),
Lemma 7 shows that among any two consecutive full frames of two
neighbors, some pair is *aligned* — one transmitted slot falls entirely
inside the other node's listening frame — so a repeated-transmission
frame is heard whenever the usual coverage conditions hold. Theorems
9–10 then bound discovery by
``(48 max(2S, 3Δ_est)/ρ) ln(N²/ε)`` full frames per node after ``T_s``.

This class carries only the per-frame decision logic; local-to-real time
mapping, slot timing and the medium live in
:mod:`repro.sim.async_engine`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .base import AsynchronousProtocol, FrameDecision, UniformChannelMixin
from .params import validate_delta_est

__all__ = ["AsyncFrameDiscovery", "SLOTS_PER_FRAME"]

#: The paper fixes three slots per frame; Lemma 7's case analysis is
#: specific to this value (together with the 1/7 drift bound).
SLOTS_PER_FRAME = 3


class AsyncFrameDiscovery(UniformChannelMixin, AsynchronousProtocol):
    """The paper's Algorithm 4.

    Args:
        node_id: Identity of this node.
        channels: ``A(u)``.
        rng: The node's private random stream.
        delta_est: Common upper bound on the maximum node degree.
    """

    def __init__(
        self,
        node_id: int,
        channels: Iterable[int],
        rng: np.random.Generator,
        delta_est: int,
    ) -> None:
        super().__init__(node_id, channels, rng)
        self._delta_est = validate_delta_est(delta_est)
        self._p = min(
            0.5, self.channel_count / float(SLOTS_PER_FRAME * self._delta_est)
        )

    @property
    def delta_est(self) -> int:
        """The degree upper bound this node was configured with."""
        return self._delta_est

    @property
    def frame_transmit_probability(self) -> float:
        """``min(1/2, |A(u)| / (3 Δ_est))``, the same in every frame."""
        return self._p

    def decide_frame(self, local_frame: int) -> FrameDecision:
        return self._uniform_frame_decision(self._p)
