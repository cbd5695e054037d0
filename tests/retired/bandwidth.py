"""A per-node upload cap over sliding one-second windows.

No session, bench or example ever armed one; a starved link is heavy loss
or a :mod:`repro.faults` entry.  It left ``repro.net.bandwidth`` in PR 19.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["UploadBudget"]


@dataclass
class UploadBudget:
    """A per-node upload cap over sliding one-second windows."""

    bytes_per_second: float
    _windows: dict[int, list[tuple[float, int]]] = field(default_factory=dict)

    def try_send(self, node_id: int, size_bytes: int, time: float) -> bool:
        """Charge ``size_bytes`` at ``time``; False when the cap is exceeded."""
        if self.bytes_per_second <= 0:
            return True
        window = self._windows.setdefault(node_id, [])
        cutoff = time - 1.0
        while window and window[0][0] < cutoff:
            window.pop(0)
        used = sum(size for _, size in window)
        if used + size_bytes > self.bytes_per_second:
            return False
        window.append((time, size_bytes))
        return True
