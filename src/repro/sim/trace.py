"""Execution traces.

The asynchronous analysis (Lemmas 4, 7, 8) reasons about *frames* — when
each node's frames and slots start and end in real time, which channel
the node tuned to and whether it transmitted. :class:`FrameRecord`
captures exactly that, and :class:`ExecutionTrace` collects records per
node so :mod:`repro.analysis.alignment` can verify the lemmas on real
executions.

The synchronous engines can record the lighter :class:`SlotRecord`
stream for debugging and coverage estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.base import Mode
from ..exceptions import SimulationError

__all__ = ["FrameRecord", "SlotRecord", "ExecutionTrace"]


@dataclass(frozen=True)
class FrameRecord:
    """One frame of one node, with its real-time geometry.

    Attributes:
        node_id: The node whose frame this is.
        frame_index: Local frame counter (0-based from the node's start).
        start: Real start time of the frame.
        end: Real end time of the frame.
        slot_bounds: Real times of the frame's internal slot boundaries,
            length 4 for the paper's 3-slot frames:
            ``[start, b1, b2, end]``.
        mode: Transmit or listen for the whole frame.
        channel: Channel tuned to for the whole frame.
    """

    node_id: int
    frame_index: int
    start: float
    end: float
    slot_bounds: Tuple[float, ...]
    mode: Mode
    channel: Optional[int]

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise SimulationError(
                f"frame {self.frame_index} of node {self.node_id} has "
                f"non-positive duration [{self.start}, {self.end}]"
            )
        bounds = self.slot_bounds
        if len(bounds) < 2 or abs(bounds[0] - self.start) > 1e-9 or abs(
            bounds[-1] - self.end
        ) > 1e-9:
            raise SimulationError(
                f"slot bounds {bounds} do not span frame "
                f"[{self.start}, {self.end}]"
            )
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise SimulationError(f"slot bounds not increasing: {bounds}")

    @property
    def duration(self) -> float:
        """Real-time length of the frame."""
        return self.end - self.start

    def overlaps(self, other: "FrameRecord") -> bool:
        """Whether the two frames overlap in real time (open intervals)."""
        return self.start < other.end and other.start < self.end

    def slot_interval(self, slot: int) -> Tuple[float, float]:
        """Real ``(start, end)`` of the frame's ``slot``-th slot (0-based)."""
        if not 0 <= slot < len(self.slot_bounds) - 1:
            raise SimulationError(
                f"slot {slot} out of range for {len(self.slot_bounds) - 1}-slot frame"
            )
        return self.slot_bounds[slot], self.slot_bounds[slot + 1]

    @property
    def num_slots(self) -> int:
        """Number of slots in the frame."""
        return len(self.slot_bounds) - 1


@dataclass(frozen=True)
class SlotRecord:
    """One synchronous slot decision of one node."""

    node_id: int
    global_slot: int
    local_slot: int
    mode: Mode
    channel: Optional[int]


class ExecutionTrace:
    """Per-node collections of frame and slot records."""

    def __init__(self) -> None:
        self._frames: Dict[int, List[FrameRecord]] = {}
        self._slots: Dict[int, List[SlotRecord]] = {}

    def add_frame(self, record: FrameRecord) -> None:
        """Append a frame record (frames must arrive in time order)."""
        frames = self._frames.setdefault(record.node_id, [])
        if frames and record.start < frames[-1].end - 1e-9:
            raise SimulationError(
                f"node {record.node_id} frame {record.frame_index} starts at "
                f"{record.start} before previous frame ends at {frames[-1].end}"
            )
        frames.append(record)

    def add_slot(self, record: SlotRecord) -> None:
        """Append a synchronous slot record."""
        self._slots.setdefault(record.node_id, []).append(record)

    @property
    def node_ids(self) -> List[int]:
        """Nodes with at least one record."""
        return sorted(set(self._frames) | set(self._slots))

    def frames_of(self, node_id: int) -> List[FrameRecord]:
        """All frame records of ``node_id``, in time order."""
        return list(self._frames.get(node_id, []))

    def slots_of(self, node_id: int) -> List[SlotRecord]:
        """All slot records of ``node_id``, in order."""
        return list(self._slots.get(node_id, []))

    def full_frames_of(self, node_id: int, after: float) -> List[FrameRecord]:
        """Frames of ``node_id`` that start at or after ``after``.

        These are the "full frames after T" that Lemmas 7-8 and Theorem 9
        count (a frame already in progress at ``after`` is partial).
        """
        return [f for f in self._frames.get(node_id, []) if f.start >= after]

    def total_frames(self) -> int:
        """Total frame records across all nodes."""
        return sum(len(v) for v in self._frames.values())
