"""Small statistics helpers used across experiments.

Self-contained (no scipy dependency): normal-approximation confidence
intervals for means, Wilson intervals for proportions, percentiles and
a compact :class:`SampleSummary` used in sweep tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from ..exceptions import ConfigurationError

__all__ = [
    "SampleSummary",
    "summarize",
    "mean",
    "sample_std",
    "percentile",
    "mean_confidence_interval",
    "wilson_interval",
    "geometric_mean",
    "welch_ci_margin",
]

# Two-sided z for 95% — experiments report 95% CIs throughout.
_Z95 = 1.959963984540054


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (raises on empty input)."""
    if not values:
        raise ConfigurationError("mean of empty sample")
    return sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Unbiased sample standard deviation; 0.0 for singletons."""
    n = len(values)
    if n == 0:
        raise ConfigurationError("std of empty sample")
    if n == 1:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (n - 1))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not values:
        raise ConfigurationError("percentile of empty sample")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def mean_confidence_interval(
    values: Sequence[float], z: float = _Z95
) -> Tuple[float, float]:
    """Normal-approximation CI for the mean: ``mean ± z·s/√n``."""
    m = mean(values)
    half = z * sample_std(values) / math.sqrt(len(values))
    return (m - half, m + half)


def wilson_interval(
    successes: int, trials: int, z: float = _Z95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved near 0 and 1 — exactly where success probabilities land
    when checking "discovery completes w.p. >= 1 − ε".
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ConfigurationError(
            f"successes {successes} outside [0, {trials}]"
        )
    p = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
        / denom
    )
    return (max(0.0, center - half), min(1.0, center + half))


def welch_ci_margin(
    std1: float, n1: int, std2: float, n2: int, z: float = 3.0
) -> float:
    """Half-width of a ``z``-sigma Welch interval for a mean difference.

    Two samples' means are distinguishable when
    ``abs(mean1 - mean2) > welch_ci_margin(std1, n1, std2, n2)`` —
    the criterion both the differential engine tests and the tournament
    league use (default ``z = 3``: conservative, so "wins" are earned).
    The ``1e-9`` slack keeps zero-variance degenerate samples (e.g. the
    deterministic scan baseline) from flagging on float noise.
    """
    if n1 <= 0 or n2 <= 0:
        raise ConfigurationError(
            f"sample sizes must be positive, got {n1} and {n2}"
        )
    return z * math.sqrt(std1 * std1 / n1 + std2 * std2 / n2) + 1e-9


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (for speedup ratios)."""
    if not values:
        raise ConfigurationError("geometric mean of empty sample")
    if any(v <= 0 for v in values):
        raise ConfigurationError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class SampleSummary:
    """Summary of one numeric sample."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    p90: float
    maximum: float
    ci_low: float
    ci_high: float

    def as_dict(self) -> dict:
        """Row form for table rendering."""
        return {
            "n": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "median": self.median,
            "p90": self.p90,
            "max": self.maximum,
            "ci95_low": self.ci_low,
            "ci95_high": self.ci_high,
        }


def summarize(values: Iterable[float]) -> SampleSummary:
    """Full :class:`SampleSummary` of a sample."""
    data: List[float] = [float(v) for v in values]
    if not data:
        raise ConfigurationError("summarize of empty sample")
    lo, hi = mean_confidence_interval(data)
    return SampleSummary(
        count=len(data),
        mean=mean(data),
        std=sample_std(data),
        minimum=min(data),
        median=percentile(data, 50),
        p90=percentile(data, 90),
        maximum=max(data),
        ci_low=lo,
        ci_high=hi,
    )
