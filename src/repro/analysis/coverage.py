"""Monte-Carlo estimation of the paper's coverage probabilities.

The heart of every proof in the paper is a lower bound on the
probability that one slot (synchronous) or one aligned frame-pair
(asynchronous) *covers* a link — eqs. (3)–(6), (9) and Lemma 5. These
estimators measure those probabilities directly by sampling the
protocols' per-slot randomness, without running a full engine, so the
measured values can be placed next to the analytic lower bounds
(experiment E4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..net.links import DirectedLink
from ..net.network import M2HeWNetwork
from .stats import wilson_interval

__all__ = [
    "matched_slot_index",
    "alg1_slot_probability",
    "alg3_slot_probability",
    "alg4_frame_probability",
    "CoverageEstimate",
    "estimate_link_coverage",
    "EventEstimates",
    "estimate_event_probabilities",
    "estimate_aligned_pair_coverage",
]


def matched_slot_index(degree: int) -> int:
    """``k = max(1, ceil(log2 Δ(u, c)))`` — the stage slot satisfying
    eq. (2) for a link of degree ``degree``."""
    if degree < 1:
        raise ConfigurationError(f"degree must be >= 1, got {degree}")
    return max(1, math.ceil(math.log2(degree)))


def alg1_slot_probability(channel_count: int, slot_in_stage: int) -> float:
    """Algorithm 1's ``min(1/2, |A(u)| / 2^i)``."""
    if slot_in_stage < 1:
        raise ConfigurationError(f"slot_in_stage is 1-based, got {slot_in_stage}")
    return min(0.5, channel_count / float(2 ** slot_in_stage))


def alg3_slot_probability(channel_count: int, delta_est: int) -> float:
    """Algorithm 3's ``min(1/2, |A(u)| / Δ_est)``."""
    return min(0.5, channel_count / float(delta_est))


def alg4_frame_probability(channel_count: int, delta_est: int) -> float:
    """Algorithm 4's ``min(1/2, |A(u)| / (3 Δ_est))``."""
    return min(0.5, channel_count / float(3 * delta_est))


@dataclass(frozen=True)
class CoverageEstimate:
    """An estimated coverage probability with a Wilson 95% interval."""

    successes: int
    trials: int
    probability: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "CoverageEstimate":
        lo, hi = wilson_interval(successes, trials)
        return cls(
            successes=successes,
            trials=trials,
            probability=successes / trials,
            ci_low=lo,
            ci_high=hi,
        )

    def at_least(self, bound: float) -> bool:
        """Whether the estimate is consistent with ``probability >= bound``
        (the bound must not exceed the upper CI edge)."""
        return self.ci_high >= bound


def _simulate_slot(
    network: M2HeWNetwork,
    probabilities: Mapping[int, float],
    rng: np.random.Generator,
) -> Tuple[Dict[int, int], Dict[int, bool]]:
    """One synchronous slot of the uniform-channel template.

    Returns ``(channel chosen per node, transmitted? per node)``.
    """
    chans: Dict[int, int] = {}
    transmits: Dict[int, bool] = {}
    for nid in network.node_ids:
        available = sorted(network.channels_of(nid))
        chans[nid] = available[int(rng.integers(0, len(available)))]
        transmits[nid] = bool(rng.random() < probabilities[nid])
    return chans, transmits


def estimate_link_coverage(
    network: M2HeWNetwork,
    link: DirectedLink,
    probabilities: Mapping[int, float],
    trials: int,
    rng: np.random.Generator,
) -> CoverageEstimate:
    """Estimate the probability that one slot covers ``link``.

    Coverage (§III-A1): the transmitter sends on a span channel, the
    receiver listens on that same channel, and no other node the
    receiver hears transmits on it.
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    v, u = link.transmitter, link.receiver
    hears_u = network.hears(u)
    successes = 0
    for _ in range(trials):
        chans, transmits = _simulate_slot(network, probabilities, rng)
        c = chans[v]
        if not transmits[v] or c not in link.span:
            continue
        if transmits[u] or chans[u] != c:
            continue
        interfered = any(
            w != v and transmits[w] and chans[w] == c
            for w in hears_u
        )
        if not interfered:
            successes += 1
    return CoverageEstimate.from_counts(successes, trials)


@dataclass(frozen=True)
class EventEstimates:
    """Empirical probabilities of the three coverage events on a channel."""

    pr_transmit: CoverageEstimate
    pr_listen: CoverageEstimate
    pr_no_interference: CoverageEstimate


def estimate_event_probabilities(
    network: M2HeWNetwork,
    link: DirectedLink,
    channel: int,
    probabilities: Mapping[int, float],
    trials: int,
    rng: np.random.Generator,
) -> EventEstimates:
    """Estimate ``Pr{A(τ,c)}``, ``Pr{B(τ,c)}``, ``Pr{C(τ,c)}`` separately.

    ``A``: transmitter sends on ``channel``; ``B``: receiver listens on
    ``channel``; ``C``: no other audible node transmits on ``channel``.
    The three are measured from the same slot samples (they are
    independent events, but sharing samples is fine for estimation).
    """
    if channel not in link.span:
        raise ConfigurationError(
            f"channel {channel} not in span of link {link.key}"
        )
    v, u = link.transmitter, link.receiver
    hears_u = network.hears(u)
    a = b = c_ok = 0
    for _ in range(trials):
        chans, transmits = _simulate_slot(network, probabilities, rng)
        if transmits[v] and chans[v] == channel:
            a += 1
        if not transmits[u] and chans[u] == channel:
            b += 1
        if not any(
            w != v and transmits[w] and chans[w] == channel for w in hears_u
        ):
            c_ok += 1
    return EventEstimates(
        pr_transmit=CoverageEstimate.from_counts(a, trials),
        pr_listen=CoverageEstimate.from_counts(b, trials),
        pr_no_interference=CoverageEstimate.from_counts(c_ok, trials),
    )


def estimate_aligned_pair_coverage(
    network: M2HeWNetwork,
    link: DirectedLink,
    delta_est: int,
    trials: int,
    rng: np.random.Generator,
    overlap_frames: int = 3,
) -> CoverageEstimate:
    """Estimate Lemma 5's aligned-pair coverage probability.

    Models one aligned pair ``⟨f, g⟩``: the transmitter draws its frame
    decision once; the receiver draws once; every other node the
    receiver hears draws ``overlap_frames`` independent frame decisions
    (Lemma 4 caps the frames of an interferer overlapping ``g`` at 3 —
    the estimator uses the cap as the worst case, matching the Lemma 5
    derivation).
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if overlap_frames < 1:
        raise ConfigurationError(
            f"overlap_frames must be >= 1, got {overlap_frames}"
        )
    v, u = link.transmitter, link.receiver
    hears_u = sorted(network.hears(u))
    successes = 0
    for _ in range(trials):
        # Transmitter's frame.
        av = sorted(network.channels_of(v))
        cv = av[int(rng.integers(0, len(av)))]
        pv = alg4_frame_probability(len(av), delta_est)
        if rng.random() >= pv or cv not in link.span:
            continue
        # Receiver's frame.
        au = sorted(network.channels_of(u))
        cu = au[int(rng.integers(0, len(au)))]
        pu = alg4_frame_probability(len(au), delta_est)
        if rng.random() < pu or cu != cv:
            continue
        # Interferers: each audible node w != v transmits on cv in any of
        # its overlapping frames.
        interfered = False
        for w in hears_u:
            if w == v:
                continue
            aw = sorted(network.channels_of(w))
            pw = alg4_frame_probability(len(aw), delta_est)
            for _frame in range(overlap_frames):
                cw = aw[int(rng.integers(0, len(aw)))]
                if cw == cv and rng.random() < pw:
                    interfered = True
                    break
            if interfered:
                break
        if not interfered:
            successes += 1
    return CoverageEstimate.from_counts(successes, trials)
