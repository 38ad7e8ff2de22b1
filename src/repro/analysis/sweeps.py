"""Parameter-sweep harness.

Experiments vary one or two parameters over a grid, run several seeded
trials at each point, and tabulate completion statistics. This module
provides the generic loop so every benchmark reads the same way:

    points = [{"delta_est": d} for d in (2, 8, 32, 128)]
    rows = run_sweep(points, trial_fn, trials=20, base_seed=7)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..sim.results import DiscoveryResult
from .stats import SampleSummary, summarize

__all__ = ["SweepRow", "TrialFn", "run_sweep", "grid_points"]

TrialFn = Callable[[Mapping[str, object], np.random.SeedSequence], DiscoveryResult]


@dataclass
class SweepRow:
    """Aggregated outcome of all trials at one sweep point.

    Attributes:
        point: The swept parameter values.
        results: The per-trial results.
        completion: Summary of completion times across *completed*
            trials (``None`` if none completed).
        completed_fraction: Fraction of trials that fully completed.
    """

    point: Dict[str, object]
    results: List[DiscoveryResult]
    completion: Optional[SampleSummary]
    completed_fraction: float

    def as_row(self, after_all_started: bool = False) -> Dict[str, object]:
        """Row form for table rendering."""
        row: Dict[str, object] = dict(self.point)
        row["trials"] = len(self.results)
        row["completed"] = round(self.completed_fraction, 3)
        summary = self._summary(after_all_started)
        if summary is not None:
            row["mean_time"] = round(summary.mean, 2)
            row["p90_time"] = round(summary.p90, 2)
            row["max_time"] = summary.maximum
        return row

    def _summary(self, after_all_started: bool) -> Optional[SampleSummary]:
        if not after_all_started:
            return self.completion
        times = [
            float(r.completion_after_all_started)
            for r in self.results
            if r.completion_after_all_started is not None
        ]
        return summarize(times) if times else None

    def mean_completion(self, after_all_started: bool = False) -> Optional[float]:
        """Mean completion time, or ``None`` when nothing completed."""
        summary = self._summary(after_all_started)
        return None if summary is None else summary.mean


def run_sweep(
    points: Sequence[Mapping[str, object]],
    trial_fn: TrialFn,
    trials: int,
    base_seed: Optional[int],
) -> List[SweepRow]:
    """Run ``trials`` seeded trials of ``trial_fn`` at every point.

    Per-trial seeds are derived from ``(base_seed, point index, trial
    index)`` so adding points or trials never perturbs existing ones.
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if not points:
        raise ConfigurationError("sweep needs at least one point")
    rows: List[SweepRow] = []
    for p_idx, point in enumerate(points):
        results = []
        for t_idx in range(trials):
            seed = np.random.SeedSequence(
                entropy=base_seed, spawn_key=(p_idx, t_idx)
            )
            results.append(trial_fn(point, seed))
        times = [
            float(r.completion_time)
            for r in results
            if r.completion_time is not None
        ]
        rows.append(
            SweepRow(
                point=dict(point),
                results=results,
                completion=summarize(times) if times else None,
                completed_fraction=sum(r.completed for r in results) / trials,
            )
        )
    return rows


def grid_points(**axes: Sequence[object]) -> List[Dict[str, object]]:
    """Cartesian product of named axes as sweep points.

    ``grid_points(a=(1, 2), b=("x",))`` →
    ``[{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]``.
    """
    if not axes:
        raise ConfigurationError("grid_points needs at least one axis")
    names = list(axes)
    combos = itertools.product(*(axes[name] for name in names))
    return [dict(zip(names, combo)) for combo in combos]
