"""Archive helpers shared by the campaign tests."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.sim.batch import ExperimentSpec, run_batch


def archive_bytes(directory: Path) -> Dict[str, bytes]:
    """Every file of an archive directory, by name."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def experiment_files(directory: Path) -> Dict[str, bytes]:
    """The per-experiment ``<name>.json`` files of an archive, by name."""
    files = archive_bytes(directory)
    del files["manifest.json"]
    return files


def solo_archives(
    specs: Sequence[ExperimentSpec],
    base_seed: Optional[int],
    root: Path,
    **options: Any,
) -> Dict[str, bytes]:
    """Each spec's ``<name>.json``, from a ``run_batch`` of that spec alone.

    A campaign of one spec has nothing to fuse with, so these are the
    unfused bytes a fused campaign's per-experiment files must equal.
    """
    files = {}
    for spec in specs:
        out = root / spec.name
        run_batch([spec], base_seed=base_seed, output_dir=out, **options)
        files[f"{spec.name}.json"] = (out / f"{spec.name}.json").read_bytes()
    return files
