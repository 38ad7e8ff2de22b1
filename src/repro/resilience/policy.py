"""Retry policy and seeded exponential backoff for supervised campaigns.

The supervisor retries failed trial chunks with exponential backoff and
multiplicative jitter. The jitter draws from a named
:class:`~repro.sim.rng.RngFactory` stream derived from the campaign base
seed — the same seeded-stream convention the fault subsystem uses — so
a replayed campaign schedules byte-identical retry delays. Delays only
pace the retries; simulation results never depend on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["RetryPolicy", "backoff_delay"]


@dataclass(frozen=True)
class RetryPolicy:
    """How the trial supervisor reacts to failing chunks.

    Attributes:
        max_retries: Retries per chunk beyond its first attempt; a chunk
            failing ``max_retries + 1`` times is quarantined (or aborts
            the campaign when ``quarantine`` is off).
        quarantine: Record trials that exhaust their retries in the
            campaign manifest (with replay seeds) and complete the
            campaign without them, instead of aborting with
            :class:`~repro.exceptions.TrialQuarantinedError`.
        base_delay: First backoff delay in seconds.
        backoff_factor: Multiplier per additional attempt.
        max_delay: Cap on any single delay.
        jitter: Multiplicative jitter span: the delay is scaled by a
            seeded uniform draw from ``[1, 1 + jitter]`` (0 disables).
        max_total_retries: Retry budget across all chunks of a trial
            group (every spec on one network); exceeding it aborts the
            campaign — a systemic failure is not something per-chunk
            retries should paper over.
        pool_downgrade_after: Worker-pool breakages (hard worker
            crashes) tolerated before the supervisor degrades the
            campaign to in-process execution.
    """

    max_retries: int = 2
    quarantine: bool = True
    base_delay: float = 0.05
    backoff_factor: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    max_total_retries: int = 100
    pool_downgrade_after: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter}")
        if self.max_total_retries < 0:
            raise ConfigurationError(
                f"max_total_retries must be >= 0, got {self.max_total_retries}"
            )
        if self.pool_downgrade_after < 1:
            raise ConfigurationError(
                f"pool_downgrade_after must be >= 1, got "
                f"{self.pool_downgrade_after}"
            )


def backoff_delay(
    policy: RetryPolicy, attempt: int, rng: np.random.Generator
) -> float:
    """Delay in seconds before retrying a chunk that failed ``attempt`` times.

    ``attempt`` is zero-based (the delay after the first failure uses
    ``attempt=0``). Consumes exactly one draw from ``rng`` when the
    policy has jitter, so delay sequences replay with the seed.
    """
    if attempt < 0:
        raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
    delay = policy.base_delay * policy.backoff_factor**attempt
    if policy.jitter > 0:
        delay *= 1.0 + policy.jitter * float(rng.uniform(0.0, 1.0))
    return min(policy.max_delay, delay)
