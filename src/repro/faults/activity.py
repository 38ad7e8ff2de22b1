"""On/off activity processes shared by the time-varying fault models.

Every *spectrum* fault (a primary user occupying a channel, a jammer
bursting on one) and every *clock glitch* is an entity that alternates
between an active ("on") and an inactive ("off") state over simulated
time. This module provides the two ways to describe that alternation —
:class:`FixedWindows` (explicit intervals, fully deterministic; the tool
for targeted tests and replay) and :class:`RenewalActivity` (an
exponential on/off renewal process, the standard model for primary-user
traffic) — plus :func:`realize`, which turns a description into a
queryable :class:`OnOffTimeline` for one trial.

Determinism: a :class:`RenewalTimeline` consumes randomness *only* from
the generator handed to :func:`realize` and extends itself lazily in
time order, so the state at any instant depends solely on that stream —
never on which component queried the timeline first. Each fault entity
gets its own named stream from the run's
:class:`~repro.sim.rng.RngFactory` (see :mod:`repro.faults.runtime`),
which is what keeps pooled campaigns byte-identical for any worker
count.
"""

from __future__ import annotations

import abc
import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "ActivitySpec",
    "FixedWindows",
    "OnOffTimeline",
    "RenewalActivity",
    "RenewalTimeline",
    "WindowTimeline",
    "realize",
]


@dataclass(frozen=True)
class FixedWindows:
    """Deterministic activity: "on" exactly inside the given intervals.

    Attributes:
        windows: ``(start, end)`` pairs in simulated time units (slots
            for the synchronous engines, seconds for the asynchronous
            one); half-open ``[start, end)``, sorted and disjoint. An
            empty tuple means "never on" — a trivial spec.
    """

    windows: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        normalized = tuple(
            (float(s), float(e)) for s, e in self.windows
        )
        object.__setattr__(self, "windows", normalized)
        prev_end = None
        for start, end in normalized:
            if start < 0 or end <= start:
                raise ConfigurationError(
                    f"activity window must satisfy 0 <= start < end, "
                    f"got ({start}, {end})"
                )
            if prev_end is not None and start < prev_end:
                raise ConfigurationError(
                    f"activity windows must be sorted and disjoint; "
                    f"window ({start}, {end}) overlaps the previous one"
                )
            prev_end = end

    @property
    def is_trivial(self) -> bool:
        """True when the entity is never on."""
        return not self.windows


@dataclass(frozen=True)
class RenewalActivity:
    """Exponential on/off renewal process (random burst lengths).

    On periods are exponential with mean ``mean_on``, off periods with
    mean ``mean_off`` (same time units as the engine). The initial
    state is drawn from the stationary distribution — on with
    probability ``mean_on / (mean_on + mean_off)`` — unless pinned via
    ``start_on``.

    Attributes:
        mean_on: Mean duration of an on (active) period; must be > 0.
        mean_off: Mean duration of an off period; must be > 0.
        start_on: ``True``/``False`` pins the state at time 0;
            ``None`` draws it from the stationary distribution.
    """

    mean_on: float
    mean_off: float
    start_on: Optional[bool] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean_on", float(self.mean_on))
        object.__setattr__(self, "mean_off", float(self.mean_off))
        if self.mean_on <= 0 or self.mean_off <= 0:
            raise ConfigurationError(
                f"renewal activity needs positive mean_on/mean_off, got "
                f"({self.mean_on}, {self.mean_off})"
            )

    @property
    def duty_cycle(self) -> float:
        """Stationary fraction of time the entity is on."""
        return self.mean_on / (self.mean_on + self.mean_off)

    @property
    def is_trivial(self) -> bool:
        """A renewal process is on a positive fraction of the time."""
        return False

    @classmethod
    def from_duty_cycle(
        cls, duty: float, mean_on: float, start_on: Optional[bool] = None
    ) -> "RenewalActivity":
        """Build from a target duty cycle and mean burst length."""
        if not 0.0 < duty < 1.0:
            raise ConfigurationError(
                f"duty cycle must be in (0, 1), got {duty}"
            )
        mean_off = mean_on * (1.0 - duty) / duty
        return cls(mean_on=mean_on, mean_off=mean_off, start_on=start_on)


ActivitySpec = Union[FixedWindows, RenewalActivity]


class OnOffTimeline(abc.ABC):
    """One realized on/off trajectory, queryable at any time ``>= 0``."""

    @abc.abstractmethod
    def active_at(self, time: float) -> bool:
        """Whether the entity is on at instant ``time``."""

    @abc.abstractmethod
    def next_change(self, time: float) -> float:
        """The earliest instant after ``time`` at which :meth:`active_at`
        may differ from its value at ``time`` (``inf`` when it never
        will). The state is constant on ``[time, next_change(time))``,
        which is what lets the slot engines skip re-checking until then."""

    @abc.abstractmethod
    def overlaps_on(self, start: float, end: float) -> bool:
        """Whether any on-period intersects ``(start, end)`` with
        positive duration (used for interval receptions in the
        asynchronous engine)."""

    @abc.abstractmethod
    def on_time_before(self, time: float) -> float:
        """Total on-duration accumulated in ``[0, time]`` (used by the
        glitched-clock integral)."""


class WindowTimeline(OnOffTimeline):
    """Timeline backed by explicit :class:`FixedWindows`."""

    def __init__(self, spec: FixedWindows) -> None:
        self._windows = spec.windows
        self._edges = [edge for window in spec.windows for edge in window]

    def active_at(self, time: float) -> bool:
        for start, end in self._windows:
            if start <= time < end:
                return True
            if start > time:
                break
        return False

    def next_change(self, time: float) -> float:
        # Half-open windows: the state flips exactly at a start or an end.
        i = bisect.bisect_right(self._edges, time)
        return self._edges[i] if i < len(self._edges) else math.inf

    def overlaps_on(self, start: float, end: float) -> bool:
        for w_start, w_end in self._windows:
            if w_start < end and w_end > start:
                return True
            if w_start >= end:
                break
        return False

    def on_time_before(self, time: float) -> float:
        total = 0.0
        for w_start, w_end in self._windows:
            if w_start > time:
                break
            total += min(w_end, time) - w_start
        return total


class RenewalTimeline(OnOffTimeline):
    """Lazily generated realization of a :class:`RenewalActivity`.

    Segment boundaries are appended in time order only, each drawn from
    the timeline's private generator, so queries at any mix of times
    observe one consistent trajectory regardless of query order.
    """

    def __init__(self, spec: RenewalActivity, rng: np.random.Generator) -> None:
        self._spec = spec
        self._rng = rng
        if spec.start_on is None:
            self._start_on = bool(rng.random() < spec.duty_cycle)
        else:
            self._start_on = bool(spec.start_on)
        # Segment i spans [bounds[i], bounds[i+1]) and is on iff
        # (i even) == start_on; cum_on[i] is the on-time in [0, bounds[i]].
        self._bounds: List[float] = [0.0, self._draw(self._state(0))]
        self._cum_on: List[float] = [0.0]

    def _state(self, segment: int) -> bool:
        return self._start_on if segment % 2 == 0 else not self._start_on

    def _draw(self, on: bool) -> float:
        mean = self._spec.mean_on if on else self._spec.mean_off
        # `or mean` guards the (measure-zero) exact-0.0 draw, which would
        # create an empty segment and stall the lazy extension.
        return float(self._rng.exponential(mean)) or mean

    def _extend_to(self, time: float) -> None:
        while self._bounds[-1] <= time:
            closed = len(self._bounds) - 2  # segment now fully determined
            seg_len = self._bounds[closed + 1] - self._bounds[closed]
            self._cum_on.append(
                self._cum_on[-1] + (seg_len if self._state(closed) else 0.0)
            )
            nxt = len(self._bounds) - 1
            self._bounds.append(self._bounds[-1] + self._draw(self._state(nxt)))

    def _segment_of(self, time: float) -> int:
        self._extend_to(time)
        return bisect.bisect_right(self._bounds, time) - 1

    def active_at(self, time: float) -> bool:
        if time < 0:
            return False
        return self._state(self._segment_of(time))

    def next_change(self, time: float) -> float:
        if time < 0:
            return 0.0
        return self._bounds[self._segment_of(time) + 1]

    def overlaps_on(self, start: float, end: float) -> bool:
        if end <= start:
            return False
        start = max(start, 0.0)
        i = self._segment_of(start)
        self._extend_to(end)
        while i < len(self._bounds) - 1 and self._bounds[i] < end:
            if self._state(i) and self._bounds[i + 1] > start:
                return True
            i += 1
        return False

    def on_time_before(self, time: float) -> float:
        if time <= 0:
            return 0.0
        i = self._segment_of(time)
        partial = time - self._bounds[i] if self._state(i) else 0.0
        return self._cum_on[i] + partial


def realize(
    spec: ActivitySpec, rng: Optional[np.random.Generator] = None
) -> OnOffTimeline:
    """Turn an activity description into one trial's timeline.

    Args:
        spec: The activity description.
        rng: Private generator for this entity's randomness; required
            for :class:`RenewalActivity`, ignored for
            :class:`FixedWindows`.
    """
    if isinstance(spec, FixedWindows):
        return WindowTimeline(spec)
    if isinstance(spec, RenewalActivity):
        if rng is None:
            raise ConfigurationError(
                "RenewalActivity needs a dedicated rng stream to realize"
            )
        return RenewalTimeline(spec, rng)
    raise ConfigurationError(
        f"unknown activity spec {type(spec).__name__}; use FixedWindows "
        "or RenewalActivity"
    )
