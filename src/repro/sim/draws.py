"""Generator draws decoded from raw PCG64 words.

Both engines that draw ahead use this decode: the grid engine reads a
block of slots of each row's decision uniforms and channel picks
(:mod:`repro.sim.batched`), and the asynchronous engine a block of frames
of each node's channel picks and transmit coins
(:mod:`repro.sim.async_engine`). They read ``random_raw`` words and
rebuild exactly what the generator calls return:

* ``random()`` is ``(word >> 11)·2⁻⁵³``, one full word each;
* ``integers(0, size)`` takes 32-bit halves, low half first, the spare
  half of an earlier word first of all, with Lemire's rejection
  (:func:`_scalar_picks`).

That is how NumPy's generator draws today, not a documented contract, so
each engine proves the decode on copies of a stream's state before it
uses it (:func:`_prove_decode`) and keeps the generator calls otherwise.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

__all__ = ["DrawCall"]

_LOW32 = np.uint64(0xFFFFFFFF)
_HIGH = np.uint64(32)
_MANTISSA = np.uint64(11)
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53

#: One generator call a decode replaces: ``("random", count)`` is
#: ``random(count)`` (``None``: one scalar draw) and ``("integers",
#: high)`` is ``integers(0, high)`` (``high`` an int or an int array).
DrawCall = Tuple[str, Any]


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The doubles ``random()`` makes of ``words``, one word each."""
    return (words >> _MANTISSA) * _TO_DOUBLE


def _scalar_picks(
    draw: Any, sizes: np.ndarray, has_spare: int, spare: int
) -> Tuple[np.ndarray, int, int]:
    """One ``integers(0, sizes)`` call decoded from raw 64-bit words.

    ``draw(1)`` returns the next word. Each node with ``|A(u)| > 1``
    takes 32-bit halves, low half first, the spare half of an earlier
    word first of all; a half ``h`` picks ``(h·size) >> 32`` unless the
    low 32 bits of that product fall below ``(2³² − size) mod size``
    (Lemire's rejection), which takes another half. ``|A(u)| = 1`` draws
    nothing. Returns the picks and the spare half left, as
    ``(picks, has_spare, spare)``.
    """
    picks = np.zeros(sizes.size, dtype=np.int64)
    for i, size in enumerate(sizes.tolist()):
        if size == 1:
            continue
        threshold = ((1 << 32) - size) % size
        while True:
            if has_spare:
                half, has_spare = spare, 0
            else:
                word = int(draw(1)[0])
                half, has_spare, spare = word & 0xFFFFFFFF, 1, word >> 32
            product = half * size
            if product & 0xFFFFFFFF >= threshold:
                break
        picks[i] = product >> 32
    return picks, has_spare, spare


def _prove_decode(
    stream: np.random.Generator, calls: Sequence[DrawCall]
) -> Optional[Tuple[int, int]]:
    """Prove the raw-word decode of ``calls`` on a copy of ``stream``'s state.

    Replays the generator calls on the copy, then rewinds it and decodes
    the same values from its ``random_raw`` words: uniforms with
    :func:`_uniforms`, picks with :func:`_scalar_picks`, so an odd half
    count leaves a spare half that later uniforms skip and later picks
    take first. The decode is accepted only when every value matches and
    both passes end in the same state, spare half included; the live
    stream is never advanced.

    Returns the live stream's pending spare half as ``(has_spare,
    spare)``, or ``None`` when the proof fails (the caller then keeps the
    generator calls).
    """
    bg = stream.bit_generator
    try:
        state = bg.state
        has_spare, spare = int(state["has_uint32"]), int(state["uinteger"])
        copy = type(bg)(0)
        copy.state = state
    except (KeyError, TypeError, ValueError):
        return None
    ref = np.random.Generator(copy)
    expected = [
        np.ravel(ref.random(arg) if kind == "random" else ref.integers(0, arg)).tolist()
        for kind, arg in calls
    ]
    end = copy.state
    copy.state = state
    has, value = has_spare, spare
    for (kind, arg), values in zip(calls, expected):
        if kind == "random":
            decoded = _uniforms(copy.random_raw(1 if arg is None else arg))
        else:
            decoded, has, value = _scalar_picks(
                copy.random_raw, np.atleast_1d(arg), has, value
            )
        if decoded.tolist() != values:
            return None
    if end["state"] != copy.state["state"] or end["has_uint32"] != has:
        return None
    if has and end["uinteger"] != value:
        return None
    return has_spare, spare


def _pending_half(stream: np.random.Generator) -> Tuple[int, int]:
    """``stream``'s pending spare half as ``(has_spare, spare)``."""
    state = stream.bit_generator.state
    return int(state["has_uint32"]), int(state["uinteger"])
