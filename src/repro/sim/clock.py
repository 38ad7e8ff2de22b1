"""Drifting-clock models for the asynchronous system (paper §II).

A clock ``C`` maps real time ``t`` to local time ``C(t)``. The paper
assumes only that the drift rate ``dC/dt − 1`` is bounded in magnitude
by ``δ`` (eq. (1)):

    ``(1 − δ)·Δt <= C(t + Δt) − C(t) <= (1 + δ)·Δt``

Drift may vary over time in both magnitude and sign, and offsets between
clocks are arbitrary. The models here realize increasingly adversarial
instances of that assumption:

* :class:`PerfectClock` — ``δ = 0`` plus an arbitrary offset;
* :class:`ConstantDriftClock` — fixed rate ``1 + d``, ``|d| <= δ``;
* :class:`PiecewiseDriftClock` — explicit rate segments (used to build
  the adversarial schedules in Lemma 7's tightness experiments);
* :class:`SinusoidalDriftClock` — smoothly oscillating rate
  ``1 + δ·cos(ωt + φ)``;
* :class:`RandomWalkDriftClock` — rate re-drawn uniformly from
  ``[1−δ, 1+δ]`` at random intervals (lazily extended).

All clocks are strictly increasing and invertible; the asynchronous
engine schedules a node's next frame boundary at
``real_from_local(local_boundary)``.
"""

from __future__ import annotations

import abc
import bisect
import math
from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import ClockModelError

__all__ = [
    "Clock",
    "PerfectClock",
    "ConstantDriftClock",
    "PiecewiseDriftClock",
    "SinusoidalDriftClock",
    "RandomWalkDriftClock",
    "check_drift_bound",
]


class Clock(abc.ABC):
    """A strictly increasing mapping between real and local time."""

    def __init__(self, drift_bound: float) -> None:
        if drift_bound < 0 or drift_bound >= 1:
            raise ClockModelError(
                f"drift bound must be in [0, 1), got {drift_bound}"
            )
        self._drift_bound = float(drift_bound)

    @property
    def drift_bound(self) -> float:
        """``δ`` — bound on the magnitude of this clock's drift rate."""
        return self._drift_bound

    @abc.abstractmethod
    def local_from_real(self, real: float) -> float:
        """``C(t)`` — local time at real time ``real`` (``real >= 0``)."""

    @abc.abstractmethod
    def real_from_local(self, local: float) -> float:
        """Inverse mapping: the real time at which the clock reads ``local``."""

    def elapsed_local(self, real_start: float, real_end: float) -> float:
        """Local time elapsed between two real instants."""
        return self.local_from_real(real_end) - self.local_from_real(real_start)


class PerfectClock(Clock):
    """An ideal clock: ``C(t) = offset + t``."""

    def __init__(self, offset: float = 0.0) -> None:
        super().__init__(0.0)
        self._offset = float(offset)

    def local_from_real(self, real: float) -> float:
        return self._offset + real

    def real_from_local(self, local: float) -> float:
        return local - self._offset


class ConstantDriftClock(Clock):
    """``C(t) = offset + (1 + drift)·t`` with ``|drift| <= drift_bound``."""

    def __init__(
        self,
        drift: float,
        offset: float = 0.0,
        drift_bound: Optional[float] = None,
    ) -> None:
        bound = abs(drift) if drift_bound is None else drift_bound
        super().__init__(bound)
        if abs(drift) > self.drift_bound + 1e-15:
            raise ClockModelError(
                f"drift {drift} exceeds declared bound {self.drift_bound}"
            )
        self._rate = 1.0 + float(drift)
        self._offset = float(offset)

    @property
    def rate(self) -> float:
        """``dC/dt = 1 + drift``."""
        return self._rate

    def local_from_real(self, real: float) -> float:
        return self._offset + self._rate * real

    def real_from_local(self, local: float) -> float:
        return (local - self._offset) / self._rate


class PiecewiseDriftClock(Clock):
    """Piecewise-constant drift rate over explicit real-time segments.

    Args:
        breakpoints: Real times ``0 = t_0 < t_1 < …`` where the rate
            changes (the leading 0 is implicit; do not include it).
        rates: ``len(breakpoints) + 1`` clock rates (``1 + drift``), one
            per segment; each must satisfy ``|rate − 1| <= drift_bound``.
        offset: Local time at real time 0.
        drift_bound: Declared ``δ``; defaults to the max observed drift.
    """

    def __init__(
        self,
        breakpoints: Sequence[float],
        rates: Sequence[float],
        offset: float = 0.0,
        drift_bound: Optional[float] = None,
    ) -> None:
        if len(rates) != len(breakpoints) + 1:
            raise ClockModelError(
                f"need len(rates) == len(breakpoints) + 1, got "
                f"{len(rates)} rates for {len(breakpoints)} breakpoints"
            )
        bps = [float(b) for b in breakpoints]
        if any(b <= 0 for b in bps[:1]) or any(
            b2 <= b1 for b1, b2 in zip(bps, bps[1:])
        ):
            raise ClockModelError(
                f"breakpoints must be positive and strictly increasing: {bps}"
            )
        max_drift = max(abs(r - 1.0) for r in rates)
        bound = max_drift if drift_bound is None else drift_bound
        super().__init__(bound)
        if max_drift > self.drift_bound + 1e-15:
            raise ClockModelError(
                f"max drift {max_drift} exceeds declared bound {self.drift_bound}"
            )
        if any(r <= 0 for r in rates):
            raise ClockModelError(f"rates must be positive: {list(rates)}")

        self._starts = [0.0] + bps  # real start of each segment
        self._rates = [float(r) for r in rates]
        self._locals = [float(offset)]  # local time at each segment start
        for (t1, t2), rate in zip(zip(self._starts, self._starts[1:]), self._rates):
            self._locals.append(self._locals[-1] + rate * (t2 - t1))

    def local_from_real(self, real: float) -> float:
        if real < 0:
            raise ClockModelError(f"real time must be >= 0, got {real}")
        i = bisect.bisect_right(self._starts, real) - 1
        return self._locals[i] + self._rates[i] * (real - self._starts[i])

    def real_from_local(self, local: float) -> float:
        if local < self._locals[0]:
            raise ClockModelError(
                f"local time {local} precedes clock origin {self._locals[0]}"
            )
        i = bisect.bisect_right(self._locals, local) - 1
        i = min(i, len(self._rates) - 1)
        return self._starts[i] + (local - self._locals[i]) / self._rates[i]


class SinusoidalDriftClock(Clock):
    """Smoothly oscillating drift: ``dC/dt = 1 + δ·cos(ωt + φ)``.

    ``C(t) = offset + t + (δ/ω)·(sin(ωt + φ) − sin(φ))`` with
    ``ω = 2π / period``. The inverse is computed by bisection (the map is
    strictly increasing since ``δ < 1``).
    """

    def __init__(
        self,
        amplitude: float,
        period: float,
        phase: float = 0.0,
        offset: float = 0.0,
    ) -> None:
        super().__init__(amplitude)
        if period <= 0:
            raise ClockModelError(f"period must be positive, got {period}")
        self._amp = float(amplitude)
        self._omega = 2.0 * math.pi / float(period)
        self._phase = float(phase)
        self._offset = float(offset)

    def local_from_real(self, real: float) -> float:
        if real < 0:
            raise ClockModelError(f"real time must be >= 0, got {real}")
        wobble = (self._amp / self._omega) * (
            math.sin(self._omega * real + self._phase) - math.sin(self._phase)
        )
        return self._offset + real + wobble

    def real_from_local(self, local: float) -> float:
        # |C(t) − (offset + t)| <= 2δ/ω, so the root is bracketed here.
        slack = 2.0 * self._amp / self._omega + 1e-9
        target = local
        lo = local - self._offset - slack
        hi = local - self._offset + slack
        lo = max(lo, 0.0) if target >= self.local_from_real(0.0) else 0.0
        if self.local_from_real(lo) > target + 1e-12:
            raise ClockModelError(
                f"local time {local} precedes clock origin"
            )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.local_from_real(mid) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12 * max(1.0, abs(target)):
                break
        return 0.5 * (lo + hi)


class RandomWalkDriftClock(Clock):
    """Drift rate re-drawn uniformly from ``[−δ, +δ]`` at random times.

    Segment lengths are exponential with mean ``mean_segment``. Segments
    are generated lazily from ``rng`` as queries extend the horizon, so
    the clock can run for an unbounded simulated duration.
    """

    def __init__(
        self,
        drift_bound: float,
        rng: np.random.Generator,
        mean_segment: float = 10.0,
        offset: float = 0.0,
    ) -> None:
        super().__init__(drift_bound)
        if mean_segment <= 0:
            raise ClockModelError(
                f"mean_segment must be positive, got {mean_segment}"
            )
        self._rng = rng
        self._mean_segment = float(mean_segment)
        self._starts: List[float] = [0.0]
        self._locals: List[float] = [float(offset)]
        self._rates: List[float] = [self._draw_rate()]
        self._horizon = 0.0  # real end of the last closed segment

    def _draw_rate(self) -> float:
        return 1.0 + float(self._rng.uniform(-self.drift_bound, self.drift_bound))

    def _extend_to_real(self, real: float) -> None:
        while self._horizon + self._next_len_peek() <= real:
            seg = self._next_len()
            start = self._starts[-1]
            self._locals.append(self._locals[-1] + self._rates[-1] * seg)
            self._starts.append(start + seg)
            self._rates.append(self._draw_rate())
            self._horizon = self._starts[-1]

    # Exponential draws are consumed one at a time; peek draws and caches
    # so that _extend_to_real's loop condition does not burn randomness.
    _pending_len: Optional[float] = None

    def _next_len_peek(self) -> float:
        if self._pending_len is None:
            self._pending_len = float(
                self._rng.exponential(self._mean_segment)
            ) or self._mean_segment
        return self._pending_len

    def _next_len(self) -> float:
        value = self._next_len_peek()
        self._pending_len = None
        return value

    def local_from_real(self, real: float) -> float:
        if real < 0:
            raise ClockModelError(f"real time must be >= 0, got {real}")
        self._extend_to_real(real)
        i = bisect.bisect_right(self._starts, real) - 1
        return self._locals[i] + self._rates[i] * (real - self._starts[i])

    def real_from_local(self, local: float) -> float:
        if local < self._locals[0]:
            raise ClockModelError(
                f"local time {local} precedes clock origin {self._locals[0]}"
            )
        # Extend until the last segment's start covers `local`; rates are
        # at least 1 − δ > 0 so local time grows without bound.
        while self._locals[-1] < local:
            self._extend_to_real(self._horizon + self._next_len_peek() + 1.0)
        i = bisect.bisect_right(self._locals, local) - 1
        i = min(i, len(self._rates) - 1)
        return self._starts[i] + (local - self._locals[i]) / self._rates[i]


def check_drift_bound(
    clock: Clock,
    horizon: float,
    samples: int = 1000,
    tolerance: float = 1e-9,
) -> None:
    """Empirically verify eq. (1) on ``[0, horizon]``; raise on violation.

    Checks ``(1−δ)Δt <= C(t+Δt) − C(t) <= (1+δ)Δt`` over a grid of
    sampled interval endpoints. Used by tests and by the engine's
    optional paranoia mode.
    """
    if horizon <= 0:
        raise ClockModelError(f"horizon must be positive, got {horizon}")
    if samples < 2:
        raise ClockModelError(f"need at least 2 samples, got {samples}")
    delta = clock.drift_bound
    times = [horizon * i / (samples - 1) for i in range(samples)]
    values = [clock.local_from_real(t) for t in times]
    for (t1, c1), (t2, c2) in zip(zip(times, values), zip(times[1:], values[1:])):
        dt = t2 - t1
        dc = c2 - c1
        if dc < (1 - delta) * dt - tolerance or dc > (1 + delta) * dt + tolerance:
            raise ClockModelError(
                f"drift bound {delta} violated on [{t1}, {t2}]: "
                f"elapsed local {dc} for elapsed real {dt}"
            )
