"""Frame-by-frame iteration over a trace.

The session indexes ``trace.frames`` directly; nothing ever drove a
``TraceCursor``.  It left ``repro.game.trace`` in PR 19.
"""

from __future__ import annotations

from typing import Iterator

from repro.game.avatar import AvatarSnapshot
from repro.game.trace import GameTrace

__all__ = ["TraceCursor"]


class TraceCursor:
    """Frame-by-frame iteration over a trace (the replay engine's clock)."""

    def __init__(self, trace: GameTrace, start_frame: int = 0) -> None:
        if not 0 <= start_frame <= trace.num_frames:
            raise ValueError("start_frame out of range")
        self.trace = trace
        self.frame = start_frame

    def __iter__(self) -> Iterator[tuple[int, dict[int, AvatarSnapshot]]]:
        return self

    def __next__(self) -> tuple[int, dict[int, AvatarSnapshot]]:
        if self.frame >= self.trace.num_frames:
            raise StopIteration
        result = (self.frame, self.trace.frames[self.frame])
        self.frame += 1
        return result

    def peek(self, ahead: int = 1) -> dict[int, AvatarSnapshot] | None:
        index = self.frame + ahead - 1
        if index >= self.trace.num_frames:
            return None
        return self.trace.frames[index]
