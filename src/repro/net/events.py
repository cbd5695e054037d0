"""A deterministic discrete-event engine.

Everything network-related in the reproduction (message delivery, loss,
jitter, frame ticks) runs on this engine.  It is a classic monotone
event-heap simulator with two guarantees the experiments rely on:

- **Determinism** — ties on time are broken by insertion sequence, so the
  same seed yields the same schedule on every run;
- **Monotonicity** — scheduling into the past raises, so causality bugs in
  protocol code fail loudly instead of silently reordering.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

__all__ = ["EventQueue", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on causality violations or a corrupted schedule."""


class EventQueue:
    """Monotone event heap of ``(time, sequence, action)``.

    The sequence is unique, so the heap never compares two actions.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self.now = 0.0
        self.processed = 0

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, next(self._sequence), action))

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        self.schedule(time - self.now, action)

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def empty(self) -> bool:
        return not self._heap

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        if not self._heap:
            return False
        time, _, action = heapq.heappop(self._heap)
        if time < self.now - 1e-12:
            raise SimulationError("event heap went backwards in time")
        self.now = max(self.now, time)
        action()
        self.processed += 1
        return True

    def run(self, max_events: int = 10_000_000) -> int:
        """Drain the whole queue (bounded by ``max_events``)."""
        count = 0
        while self.step():
            count += 1
            if count > max_events:
                raise SimulationError("simulation did not terminate")
        return count
