"""Compare two sets of benchmark runs, per metric and per workload.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved standard output of ``run.py`` runs, one
file per run (any workload selection, traced or not). A run on one side
is paired with the run in the same-named file on the other, so run the
two sides alternately, pair by pair, and name each pair's files alike
(for example by seed). Runs without a partner are left out, with a
warning.

For every ``(workload, metric)`` present on both sides the table shows
each side's median and quartiles, the fraction of pairs the change won
(ties count for neither side) and a verdict:

* ``improved``: the change won at least 9 of every 10 pairs and its
  median is better by more than the parent's interquartile range;
* ``regressed``: an end-to-end metric whose median got worse by more
  than its bound (a per-layer metric, which has no bound: the mirror
  of the ``improved`` rule);
* ``unresolved``: the run-to-run spread (interquartile range over
  median, on either side) exceeds the metric's bound, unless every run
  of the change beat every run of the parent;
* ``unchanged``: none of the above.

Bounds and directions come from ``BENCHMARK.json``. The exit status is
1 when any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
#: A gain needs at least 9 wins in every 10 pairs (integer arithmetic).
WINS, OF = 9, 10


@dataclass(frozen=True)
class Side:
    median: float
    q1: float
    q3: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Side":
        """Median and quartiles of at least two values."""
        q1, q2, q3 = statistics.quantiles(values, n=4)
        return cls(statistics.median(values), q1, q3)

    @property
    def spread(self) -> float:
        """Interquartile range as a share of the median."""
        width = self.q3 - self.q1
        return width / abs(self.median) if self.median else (0.0 if width == 0 else float("inf"))


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: Optional[float]
) -> Tuple[str, float]:
    """``(verdict, pair win fraction)`` for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    won = wins / len(pairs)
    p, c = Side.of(parent), Side.of(change)
    gain = sign * (c.median - p.median)
    iqr = p.q3 - p.q1
    if OF * wins >= WINS * len(pairs) and gain > iqr:
        return "improved", won
    if bound is None:
        if OF * losses >= WINS * len(pairs) and -gain > iqr:
            return "regressed", won
        return "unchanged", won
    if -gain > bound * abs(p.median):
        return "regressed", won
    every_run_better = (
        min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    )
    if max(p.spread, c.spread) > bound and not every_run_better:
        return "unresolved", won
    return "unchanged", won


def read_runs(directory: Path) -> Dict[Tuple[str, str], Dict[str, float]]:
    """``(workload, metric) -> {run file name: value}`` from saved runs."""
    values: Dict[Tuple[str, str], Dict[str, float]] = defaultdict(dict)
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        for line in path.read_text(encoding="utf-8").splitlines():
            fields = line.split()
            if len(fields) != 4 or line.startswith(("#", "{")):
                continue
            try:
                values[(fields[0], fields[1])][path.name] = float(fields[2])
            except ValueError:
                continue
    return values


def paired(
    parent: Dict[str, float], change: Dict[str, float]
) -> Tuple[List[float], List[float], List[str]]:
    """Values of the runs both sides have, in file-name order, and the
    names of the runs only one side has."""
    names = sorted(set(parent) & set(change))
    unpaired = sorted(set(parent) ^ set(change))
    return [parent[n] for n in names], [change[n] for n in names], unpaired


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    better = {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}

    parent, change = read_runs(args.parent), read_runs(args.change)
    regressed = False
    print(
        f"{'workload':<15} {'metric':<50} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'won':>5}  verdict"
    )
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        if metric not in better:
            continue
        before, after, unpaired = paired(parent[key], change[key])
        if unpaired:
            print(
                f"warning: {workload} {metric}: no partner for {', '.join(unpaired)}",
                file=sys.stderr,
            )
        if len(before) < 2:
            print(f"{workload:<15} {metric:<50} fewer than 2 paired runs  unresolved")
            continue
        result, won = verdict(before, after, better[metric], bounds.get(metric))
        regressed |= result == "regressed" and metric in bounds
        sides = [Side.of(before), Side.of(after)]
        cells = [f"{s.median:.5g} [{s.q1:.5g}, {s.q3:.5g}]" for s in sides]
        print(f"{workload:<15} {metric:<50} {cells[0]:<34} {cells[1]:<34} {won:>5.2f}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
