"""Simulation results.

Both engines report discovery progress per *directed link*: the first
time (slot index or real time) at which the receiver heard a clear hello
from the transmitter. :class:`DiscoveryResult` bundles those times with
run metadata and offers the summary statistics that the experiments
print (completion time, coverage fraction, stragglers).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..exceptions import SimulationError

__all__ = [
    "RESULT_FORMAT_VERSION",
    "DiscoveryResult",
    "LinkKey",
    "indented_json",
    "result_from_dict",
    "load_result",
]

RESULT_FORMAT_VERSION = 1

LinkKey = Tuple[int, int]


@dataclass
class DiscoveryResult:
    """Outcome of one discovery run.

    Attributes:
        time_unit: ``"slots"`` for synchronous runs (times are global
            slot indices, integers) or ``"seconds"`` for asynchronous
            runs (times are real times).
        coverage: First-coverage time per directed link
            ``(transmitter, receiver)``; ``None`` if never covered
            within the simulated horizon.
        horizon: The last simulated instant (slots executed, or real
            end time).
        completed: Whether every link was covered within the horizon.
        neighbor_tables: Final ``{owner: {neighbor: common channels}}``
            as reported by each node's protocol instance.
        start_times: When each node started its protocol (global slot or
            real time).
        network_params: Snapshot of ``N, S, Δ, ρ`` and link count.
        metadata: Free-form extras (protocol name, seeds, clock model…).
    """

    time_unit: str
    coverage: Dict[LinkKey, Optional[float]]
    horizon: float
    completed: bool
    neighbor_tables: Dict[int, Dict[int, FrozenSet[int]]]
    start_times: Dict[int, float]
    network_params: Mapping[str, float]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.time_unit not in ("slots", "seconds"):
            raise SimulationError(f"unknown time unit {self.time_unit!r}")
        if self.completed != all(
            t is not None for t in self.coverage.values()
        ):
            raise SimulationError(
                "completed flag inconsistent with coverage map"
            )

    # ------------------------------------------------------------------
    # summary statistics
    # ------------------------------------------------------------------

    @property
    def num_links(self) -> int:
        """Number of directed links tracked."""
        return len(self.coverage)

    @property
    def num_covered(self) -> int:
        """Links covered within the horizon."""
        return sum(1 for t in self.coverage.values() if t is not None)

    @property
    def coverage_fraction(self) -> float:
        """Fraction of links covered (1.0 when complete)."""
        if not self.coverage:
            return 1.0
        return self.num_covered / len(self.coverage)

    @property
    def completion_time(self) -> Optional[float]:
        """Time the *last* link was covered; ``None`` if incomplete.

        For a synchronous run this is the global slot index of the final
        discovery (so "slots needed" is ``completion_time + 1``).
        """
        if not self.completed:
            return None
        if not self.coverage:
            return 0.0
        return max(t for t in self.coverage.values() if t is not None)

    @property
    def last_start_time(self) -> float:
        """``T_s`` — the time by which every node has started."""
        if not self.start_times:
            return 0.0
        return max(self.start_times.values())

    @property
    def completion_after_all_started(self) -> Optional[float]:
        """``completion_time − T_s`` — what Theorems 3, 9, 10 bound."""
        done = self.completion_time
        if done is None:
            return None
        return max(0.0, done - self.last_start_time)

    def uncovered_links(self) -> List[LinkKey]:
        """Links never covered within the horizon, sorted."""
        return sorted(k for k, t in self.coverage.items() if t is None)

    def covered_times(self) -> List[float]:
        """All first-coverage times, sorted ascending."""
        return sorted(t for t in self.coverage.values() if t is not None)

    def coverage_time_quantile(self, q: float) -> Optional[float]:
        """Time by which a ``q`` fraction of links were covered.

        ``None`` if fewer than a ``q`` fraction were ever covered.
        """
        if not 0.0 < q <= 1.0:
            raise SimulationError(f"quantile must be in (0, 1], got {q}")
        times = self.covered_times()
        needed = int(-(-q * len(self.coverage) // 1))  # ceil
        if needed == 0:
            return 0.0
        if len(times) < needed:
            return None
        return times[needed - 1]

    def per_node_completion(self) -> Dict[int, Optional[float]]:
        """For each receiver, when it finished discovering all its links."""
        per_node: Dict[int, List[Optional[float]]] = {}
        for (_, receiver), t in self.coverage.items():
            per_node.setdefault(receiver, []).append(t)
        out: Dict[int, Optional[float]] = {}
        for receiver, times in per_node.items():
            out[receiver] = None if any(t is None for t in times) else max(
                t for t in times if t is not None
            )
        return out

    def summary(self) -> Dict[str, object]:
        """Compact printable summary."""
        return {
            "time_unit": self.time_unit,
            "links": self.num_links,
            "covered": self.num_covered,
            "coverage_fraction": round(self.coverage_fraction, 4),
            "completed": self.completed,
            "completion_time": self.completion_time,
            "completion_after_all_started": self.completion_after_all_started,
            "horizon": self.horizon,
        }

    # ------------------------------------------------------------------
    # serialization (archiving experiment outputs)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form; inverse of :func:`result_from_dict`.

        Only JSON-representable metadata values survive the round trip;
        others are stringified. Metadata is returned in its *JSON-normal*
        form (nested int keys become strings, tuples become lists), so a
        result that round-tripped through a journal or work queue
        serializes byte-identically to one that never left memory —
        ``sort_keys`` would otherwise order a 10+-entry int-keyed dict
        (numerically) differently from its reloaded self (lexically).
        """
        return {
            "format_version": RESULT_FORMAT_VERSION,
            "time_unit": self.time_unit,
            "horizon": self.horizon,
            "completed": self.completed,
            "coverage": [
                [list(key), time] for key, time in sorted(self.coverage.items())
            ],
            "neighbor_tables": {
                str(owner): {
                    str(neighbor): sorted(channels)
                    for neighbor, channels in table.items()
                }
                for owner, table in self.neighbor_tables.items()
            },
            "start_times": {str(n): t for n, t in self.start_times.items()},
            "network_params": dict(self.network_params),
            "metadata": _normal_metadata(self.metadata),
        }

    def to_json(self, depth: int = 0) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``, fast.

        Returns those exact characters as they appear nested ``depth``
        levels deep in an indented document: every line after the first
        is shifted right by ``2 * depth`` spaces. CPython runs its C
        encoder only when ``indent`` is None, so the stdlib would render
        a trial one value at a time in pure Python. Here the shapes this
        class fixes (coverage rows, neighbor tables, start times and the
        engines' node-keyed metadata maps) render from per-row templates
        straight from the fields; every other value goes through
        :func:`indented_json`. Keys come out in ``sort_keys`` order.
        """
        inner = depth + 1
        starts = {str(node): t for node, t in self.start_times.items()}
        return _object_text(
            [
                _member("completed", indented_json(self.completed, inner)),
                _member("coverage", _coverage_text(self.coverage, inner)),
                _member("format_version", indented_json(RESULT_FORMAT_VERSION, inner)),
                _member("horizon", indented_json(self.horizon, inner)),
                _member("metadata", _metadata_text(self.metadata, inner)),
                _member("neighbor_tables", _tables_text(self.neighbor_tables, inner)),
                _member(
                    "network_params", indented_json(dict(self.network_params), inner)
                ),
                _member(
                    "start_times",
                    _object_text(
                        [
                            _member(node, indented_json(t, inner + 1))
                            for node, t in sorted(starts.items())
                        ],
                        inner,
                    ),
                ),
                _member("time_unit", indented_json(self.time_unit, inner)),
            ],
            depth,
        )

    def save(self, path: Union[str, Path]) -> None:
        """Write this result to ``path`` as JSON."""
        Path(path).write_text(self.to_json())


def _jsonable(value: Any) -> Any:
    try:
        json.dumps(value)
        return value
    except TypeError:
        return str(value)


def _normal_metadata(metadata: Mapping[str, Any]) -> Dict[str, Any]:
    """Metadata in its JSON-normal form (see :meth:`DiscoveryResult.to_dict`).

    Values JSON cannot represent are stringified; a round trip through
    JSON then turns nested keys into strings and tuples into lists.
    """
    return json.loads(json.dumps({k: _jsonable(v) for k, v in metadata.items()}))


# -- the indented writer: json.dumps(indent=2, sort_keys=True) rules ------

#: Metadata entries the engines fill as ``{node: scalar}`` or
#: ``{node: {name: scalar}}``; any other shape falls back to the stdlib.
_NODE_MAPS = frozenset(
    ("clear_receptions", "collisions", "full_frames_since_ts", "radio_activity")
)

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


#: json's text per exact scalar type; subclasses take the slow path.
_EXACT_SCALARS: Dict[type, Callable[[Any], str]] = {
    float: _float_text,
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _scalar_text(value: Any) -> Optional[str]:
    """json's text for a scalar; ``None`` for anything else.

    Subclasses are tested in json's order (``True`` is an int), and
    numbers render through ``int.__repr__``/``float.__repr__`` as json
    does, never ``repr()``: NumPy 2 spells ``repr(np.float64(1.5))`` as
    ``np.float64(1.5)``.
    """
    render = _EXACT_SCALARS.get(type(value))
    if render is not None:
        return render(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    return None


def indented_json(value: Any, depth: int = 0) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` nested ``depth`` deep.

    Lines after the first shift right by ``2 * depth`` spaces. The shift
    is exact because JSON text never holds a raw newline inside a
    string.
    """
    text = _scalar_text(value)
    if text is not None:
        return text
    return json.dumps(value, indent=2, sort_keys=True).replace(
        "\n", _newline(depth)
    )


def _newline(depth: int) -> str:
    return "\n" + "  " * depth


def _member(key: str, text: str) -> str:
    return encode_basestring_ascii(key) + ": " + text


def _object_text(members: List[str], depth: int) -> str:
    """A JSON object of rendered ``"key": value`` members, in order."""
    if not members:
        return "{}"
    inner = _newline(depth + 1)
    return "{" + inner + ("," + inner).join(members) + _newline(depth) + "}"


def _coverage_text(coverage: Mapping[LinkKey, Optional[float]], depth: int) -> str:
    """``to_dict``'s ``[[tx, rx], time]`` rows, one template per row."""
    if not coverage:
        return "[]"
    n1, n2, n3 = _newline(depth + 1), _newline(depth + 2), _newline(depth + 3)
    # Node ids are ints (LinkKey), which %d renders as int.__repr__ does.
    row = "[" + n2 + "[" + n3 + "%d," + n3 + "%d" + n2 + "]," + n2 + "%s" + n1 + "]"
    return (
        "["
        + n1
        + ("," + n1).join(
            [
                row % (tx, rx, indented_json(t, depth + 2))
                for (tx, rx), t in sorted(coverage.items())
            ]
        )
        + _newline(depth)
        + "]"
    )


def _tables_text(
    tables: Mapping[int, Mapping[int, FrozenSet[int]]], depth: int
) -> str:
    """``to_dict``'s ``{owner: {neighbor: sorted channels}}``, string-keyed."""
    # Few distinct channel sets recur across a table (each link's from
    # both ends), so each frozenset renders once.
    lists: Dict[FrozenSet[int], str] = {}
    owners = []
    for owner, table in sorted({str(o): t for o, t in tables.items()}.items()):
        members = []
        for nb, chs in sorted({str(n): c for n, c in table.items()}.items()):
            text = lists.get(chs)
            if text is None:
                text = lists[chs] = _channels_text(chs, depth + 2)
            members.append(_member(nb, text))
        owners.append(_member(owner, _object_text(members, depth + 1)))
    return _object_text(owners, depth)


def _channels_text(channels: FrozenSet[int], depth: int) -> str:
    if not channels:
        return "[]"
    item = _newline(depth + 1)
    return (
        "[" + item + ("," + item).join(map(int.__repr__, sorted(channels)))
        + _newline(depth) + "]"
    )


def _metadata_text(metadata: Mapping[str, Any], depth: int) -> str:
    """The normal-form metadata; node-keyed maps from templates."""
    members = []
    for key, value in sorted(_normal_metadata(metadata).items()):
        text = _node_map_text(value, depth + 1) if key in _NODE_MAPS else None
        members.append(
            _member(key, indented_json(value, depth + 1) if text is None else text)
        )
    return _object_text(members, depth)


def _node_map_text(value: Any, depth: int) -> Optional[str]:
    """A normal-form ``{node: scalar or flat dict}`` map; ``None`` if not one."""
    if not isinstance(value, dict):
        return None
    members = []
    for node, entry in sorted(value.items()):
        text = _scalar_text(entry)
        if text is None:
            if not isinstance(entry, dict):
                return None
            fields = []
            for name, scalar in sorted(entry.items()):
                field_text = _scalar_text(scalar)
                if field_text is None:
                    return None
                fields.append(_member(name, field_text))
            text = _object_text(fields, depth + 1)
        members.append(_member(node, text))
    return _object_text(members, depth)


def result_from_dict(data: Mapping[str, Any]) -> DiscoveryResult:
    """Reconstruct a result written by :meth:`DiscoveryResult.to_dict`."""
    version = data.get("format_version")
    if version != RESULT_FORMAT_VERSION:
        raise SimulationError(
            f"unsupported result format version {version!r} "
            f"(expected {RESULT_FORMAT_VERSION})"
        )
    coverage = {
        (int(key[0]), int(key[1])): (None if time is None else float(time))
        for key, time in data["coverage"]
    }
    tables = {
        int(owner): {
            int(neighbor): frozenset(int(c) for c in channels)
            for neighbor, channels in table.items()
        }
        for owner, table in data["neighbor_tables"].items()
    }
    return DiscoveryResult(
        time_unit=data["time_unit"],
        coverage=coverage,
        horizon=float(data["horizon"]),
        completed=bool(data["completed"]),
        neighbor_tables=tables,
        start_times={int(n): float(t) for n, t in data["start_times"].items()},
        network_params=dict(data["network_params"]),
        metadata=dict(data.get("metadata", {})),
    )


def load_result(path: Union[str, Path]) -> DiscoveryResult:
    """Load a result previously written by :meth:`DiscoveryResult.save`."""
    return result_from_dict(json.loads(Path(path).read_text()))
