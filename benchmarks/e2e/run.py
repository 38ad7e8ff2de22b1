"""End-to-end campaign benchmark: four workloads, one command.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each selected workload (all four by default) runs in a fresh child
process, ``workloads.py``. For every metric it prints a line
``<workload> <metric> <value> <unit>``; lines starting with ``#`` carry
sample counts, archive digests and, with ``--trace 1``, the per-layer
self-time table. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer`` ones,
and spans are written under ``.e2e_out/``.

The exit status is 0 only when every output check passed. Without the
program under test (``src/repro``) the command fails before measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch and trace output; listed in the repository's ``.gitignore``.
OUT_DIR = ROOT / ".e2e_out"

#: Workloads, metrics, units, directions and bounds: the one declaration.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])


def units(section: str) -> Dict[str, str]:
    """``name -> unit`` of the metrics declared in ``section``
    (``end_to_end`` or ``per_layer``), in declaration order."""
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _child_timeout(seconds: int, trace: int) -> float:
    # Generous: set-up, warm-up and the closed loop's last job come on
    # top of the measured seconds. It only bounds a hung child.
    return 4.0 * seconds + 150.0 if trace else 2.0 * seconds + 150.0


def run_workload(name: str, seed: int, seconds: int, trace: int) -> Optional[Dict]:
    """Run one workload's child; relay its lines, return its result."""
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
        "--out",
        str(OUT_DIR),
    ]
    # Its own session, so a hung child is killed with every server or
    # worker process it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=_child_timeout(seconds, trace))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{name}: timed out", file=sys.stderr)
        return None
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line, flush=True)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"program under test not found at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    names = (args.workload,) if args.workload else WORKLOADS
    results: Dict[str, Dict] = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result

    if len(results) == 1:
        combined = results[names[0]]
    else:
        metrics: Dict[str, Dict] = {}
        for name, result in results.items():
            for metric, entry in result["metrics"].items():
                metrics[f"{name}.{metric}"] = entry
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics,
        }
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
