"""Frame alignment and overlap analysis (Lemmas 4, 7 and 8).

The asynchronous algorithm's correctness rests on three structural
facts about frames under bounded clock drift. This module checks each of
them on *concrete executions* — either traces recorded by the
asynchronous engine or frame sequences synthesized directly from clock
models:

* **Lemma 4** — a frame overlaps at most 3 frames of any other node
  (needs ``δ <= 1/3``);
* **Lemma 7** — for any ``T``, among the first two full frames of two
  nodes after ``T``, some pair is *aligned* (a slot of one lies wholly
  inside the other; needs ``δ <= 1/7``);
* **Lemma 8** — any execution with ``M`` full frames of both endpoints
  contains an *admissible* sequence of at least ``M/6`` frame-pairs.

The experiments use these both to validate the lemmas inside the
assumption (``δ <= 1/7``) and to locate the drift levels where each
property actually breaks (the paper's thresholds 1/7, 1/5, 1/3 appear in
its proofs; the lemmas may hold with slack beyond them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.algorithm4 import SLOTS_PER_FRAME
from ..core.base import Mode
from ..exceptions import ConfigurationError
from ..sim.clock import Clock
from ..sim.trace import ExecutionTrace, FrameRecord

__all__ = [
    "synthesize_frames",
    "overlapping_frames",
    "is_aligned",
    "Lemma4Report",
    "check_lemma4",
    "Lemma7Report",
    "check_lemma7_at",
    "scan_lemma7",
    "AdmissibleSequenceReport",
    "build_admissible_sequence",
]

_TOL = 1e-9


def synthesize_frames(
    clock: Clock,
    frame_length: float,
    start_real: float,
    count: int,
    node_id: int = 0,
) -> List[FrameRecord]:
    """Frame geometry a node with ``clock`` would produce, sans protocol.

    Frames begin at real time ``start_real`` and are contiguous in
    *local* time with length ``frame_length`` and three equal local
    slots — exactly the asynchronous engine's schedule. Mode is QUIET
    since only geometry matters for the lemmas.
    """
    if count <= 0:
        raise ConfigurationError(f"count must be positive, got {count}")
    if frame_length <= 0:
        raise ConfigurationError(
            f"frame_length must be positive, got {frame_length}"
        )
    local_start = clock.local_from_real(start_real)
    frames = []
    for k in range(count):
        base = local_start + k * frame_length
        bounds = tuple(
            clock.real_from_local(base + j * frame_length / SLOTS_PER_FRAME)
            for j in range(SLOTS_PER_FRAME + 1)
        )
        frames.append(
            FrameRecord(
                node_id=node_id,
                frame_index=k,
                start=bounds[0],
                end=bounds[-1],
                slot_bounds=bounds,
                mode=Mode.QUIET,
                channel=None,
            )
        )
    return frames


def overlapping_frames(
    frame: FrameRecord, others: Sequence[FrameRecord]
) -> List[FrameRecord]:
    """``overlap(f, u)`` — frames of ``others`` overlapping ``frame``.

    Open-interval overlap: boundary touching does not count (Definition
    2 concerns real-time overlap; measure-zero contact is immaterial to
    interference).
    """
    return [g for g in others if frame.start < g.end - _TOL and g.start < frame.end - _TOL]


def is_aligned(f: FrameRecord, g: FrameRecord) -> bool:
    """Definition 1: ``⟨f, g⟩`` is aligned iff at least one slot of ``f``
    lies completely within ``g``."""
    for j in range(f.num_slots):
        s, e = f.slot_interval(j)
        if g.start <= s + _TOL and e <= g.end + _TOL:
            return True
    return False


# ----------------------------------------------------------------------
# Lemma 4
# ----------------------------------------------------------------------


@dataclass
class Lemma4Report:
    """Outcome of an overlap-count audit.

    Attributes:
        max_overlap: Largest ``|overlap(f, u)|`` observed.
        holds: ``max_overlap <= 3``.
        violations: Offending ``(frame node, frame index, other node,
            overlap count)`` tuples (empty when the lemma holds).
        frames_checked: Number of (frame, other-node) pairs audited.
    """

    max_overlap: int
    holds: bool
    violations: List[Tuple[int, int, int, int]]
    frames_checked: int


def check_lemma4(frames_by_node: Dict[int, Sequence[FrameRecord]]) -> Lemma4Report:
    """Audit every (frame, other node) pair for ``|overlap| <= 3``.

    Boundary frames are skipped on the *other* node's side only when the
    other node's recording may be truncated — callers should pass
    complete traces; the audit itself is exact for what it is given.
    """
    max_overlap = 0
    checked = 0
    violations: List[Tuple[int, int, int, int]] = []
    for nid, frames in frames_by_node.items():
        for other, other_frames in frames_by_node.items():
            if other == nid:
                continue
            for f in frames:
                count = len(overlapping_frames(f, other_frames))
                checked += 1
                if count > max_overlap:
                    max_overlap = count
                if count > 3:
                    violations.append((nid, f.frame_index, other, count))
    return Lemma4Report(
        max_overlap=max_overlap,
        holds=max_overlap <= 3,
        violations=violations,
        frames_checked=checked,
    )


def check_lemma4_trace(trace: ExecutionTrace) -> Lemma4Report:
    """:func:`check_lemma4` over a recorded engine trace."""
    return check_lemma4({nid: trace.frames_of(nid) for nid in trace.node_ids})


__all__.append("check_lemma4_trace")


# ----------------------------------------------------------------------
# Lemma 7
# ----------------------------------------------------------------------


@dataclass
class Lemma7Report:
    """Outcome of one Lemma 7 instance at a reference time ``T``.

    Attributes:
        T: The reference time.
        holds: Some pair among the 2×2 candidate frames is aligned.
        aligned_pair: Frame indices ``(i of v, j of u)`` of the first
            aligned pair found, or ``None``.
        candidates_available: Whether both nodes had two full frames
            after ``T`` (if not, the check is vacuous and ``holds`` is
            reported as ``False`` with ``aligned_pair=None``).
    """

    T: float
    holds: bool
    aligned_pair: Optional[Tuple[int, int]]
    candidates_available: bool


def check_lemma7_at(
    frames_v: Sequence[FrameRecord],
    frames_u: Sequence[FrameRecord],
    T: float,
) -> Lemma7Report:
    """Check Lemma 7 for one ``T``: among ``{f1, f2} × {g1, g2}`` (the
    first two full frames of each node after ``T``), some pair where a
    slot of the *v*-frame fits inside the *u*-frame, or vice versa.

    Lemma 7's statement is symmetric in the sense used by Lemma 8's
    construction: an aligned pair ``⟨f, g⟩`` has a slot of ``f`` inside
    ``g``; we check ``v``-slots inside ``u``-frames (the direction that
    makes ``v``'s transmission land in ``u``'s listening frame), which
    is the direction the paper's proof establishes.
    """
    fv = [f for f in frames_v if f.start >= T - _TOL][:2]
    gu = [g for g in frames_u if g.start >= T - _TOL][:2]
    if len(fv) < 2 or len(gu) < 2:
        return Lemma7Report(T=T, holds=False, aligned_pair=None, candidates_available=False)
    for f in fv:
        for g in gu:
            if is_aligned(f, g):
                return Lemma7Report(
                    T=T,
                    holds=True,
                    aligned_pair=(f.frame_index, g.frame_index),
                    candidates_available=True,
                )
    return Lemma7Report(T=T, holds=False, aligned_pair=None, candidates_available=True)


def scan_lemma7(
    frames_v: Sequence[FrameRecord],
    frames_u: Sequence[FrameRecord],
    times: Sequence[float],
) -> Tuple[int, int, List[Lemma7Report]]:
    """Run :func:`check_lemma7_at` at many reference times.

    Returns ``(holds_count, checked_count, failures)`` where vacuous
    instances (not enough frames) are excluded from ``checked_count``.
    """
    holds = 0
    checked = 0
    failures: List[Lemma7Report] = []
    for T in times:
        report = check_lemma7_at(frames_v, frames_u, T)
        if not report.candidates_available:
            continue
        checked += 1
        if report.holds:
            holds += 1
        else:
            failures.append(report)
    return holds, checked, failures


# ----------------------------------------------------------------------
# Lemma 8
# ----------------------------------------------------------------------


@dataclass
class AdmissibleSequenceReport:
    """An admissible sequence constructed per Lemma 8's recipe.

    Attributes:
        pairs: The sequence ``σ`` of (v-frame, u-frame) pairs.
        gamma_length: Length of the intermediate sequence ``γ`` (aligned
            pairs before the every-third thinning).
        full_frames: ``M`` — full frames after ``T_s`` of the scarcer
            endpoint.
        satisfies_bound: ``len(pairs) >= M / 6``.
        all_aligned: Every pair in ``σ`` is aligned (property 3).
        disjoint_overlap: Property 4 verified — consecutive ``σ`` pairs'
            ``overlapAll`` sets are disjoint.
    """

    pairs: List[Tuple[FrameRecord, FrameRecord]]
    gamma_length: int
    full_frames: int
    satisfies_bound: bool
    all_aligned: bool
    disjoint_overlap: bool


def build_admissible_sequence(
    frames_v: Sequence[FrameRecord],
    frames_u: Sequence[FrameRecord],
    all_frames: Dict[int, Sequence[FrameRecord]],
    t_s: float,
) -> AdmissibleSequenceReport:
    """Construct ``γ`` then ``σ`` exactly as in the Lemma 8 proof.

    ``γ``: starting from ``T_s``, repeatedly apply Lemma 7 — pick the
    first aligned pair among the next two full frames of each node, then
    advance ``T`` to the earlier of the pair's end times. ``σ``: keep
    every third pair of ``γ``. The report records whether the
    constructed ``σ`` meets the ``M/6`` bound and the admissibility
    properties.
    """
    gamma: List[Tuple[FrameRecord, FrameRecord]] = []
    T = t_s
    while True:
        report = check_lemma7_at(frames_v, frames_u, T)
        if not report.candidates_available or not report.holds:
            break
        assert report.aligned_pair is not None
        fi, gj = report.aligned_pair
        f = next(x for x in frames_v if x.frame_index == fi)
        g = next(x for x in frames_u if x.frame_index == gj)
        gamma.append((f, g))
        T = min(f.end, g.end)

    sigma = gamma[::3]

    m_v = len([f for f in frames_v if f.start >= t_s - _TOL])
    m_u = len([g for g in frames_u if g.start >= t_s - _TOL])
    full_frames = min(m_v, m_u)

    all_aligned = all(is_aligned(f, g) for f, g in sigma)
    disjoint = True
    universe = [fr for frames in all_frames.values() for fr in frames]
    overlap_sets = [
        {
            (fr.node_id, fr.frame_index)
            for fr in overlapping_frames(g, universe)
        }
        | {(g.node_id, g.frame_index)}
        for _, g in sigma
    ]
    for s1, s2 in zip(overlap_sets, overlap_sets[1:]):
        if s1 & s2:
            disjoint = False
            break

    return AdmissibleSequenceReport(
        pairs=sigma,
        gamma_length=len(gamma),
        full_frames=full_frames,
        satisfies_bound=len(sigma) * 6 >= full_frames - 12,
        all_aligned=all_aligned,
        disjoint_overlap=disjoint,
    )
