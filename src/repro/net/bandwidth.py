"""Per-node bandwidth accounting.

"Most broadband connections are asymmetric, with upload bandwidth being
the limitation" — the scalability experiment (Section II gives centralized
Quake III ≈ 120·n kbps; naive P2P grows quadratically) is entirely about
counting bytes sent per node per second.  :class:`BandwidthMeter` records
every send/receive and reports kbps aggregates; :class:`UploadBudget`
optionally enforces a cap (messages over budget are dropped, which is how
a saturated uplink behaves for UDP).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BandwidthMeter", "UploadBudget", "NodeUsage"]


@dataclass
class NodeUsage:
    """Byte counters for one node."""

    sent_bytes: int = 0
    received_bytes: int = 0
    sent_messages: int = 0
    received_messages: int = 0
    dropped_over_budget: int = 0


class BandwidthMeter:
    """Accumulates traffic per node and converts to kbps over a window."""

    def __init__(self) -> None:
        self._usage: dict[int, NodeUsage] = {}
        self._start_time = 0.0
        self._end_time = 0.0

    def usage(self, node_id: int) -> NodeUsage:
        entry = self._usage.get(node_id)
        if entry is None:  # insert on miss; a setdefault default is built every call
            entry = self._usage[node_id] = NodeUsage()
        return entry

    def record_send(self, node_id: int, size_bytes: int, time: float) -> None:
        entry = self.usage(node_id)
        entry.sent_bytes += size_bytes
        entry.sent_messages += 1
        self._end_time = max(self._end_time, time)

    def record_receive(self, node_id: int, size_bytes: int, time: float) -> None:
        entry = self.usage(node_id)
        entry.received_bytes += size_bytes
        entry.received_messages += 1
        self._end_time = max(self._end_time, time)

    @property
    def duration(self) -> float:
        return max(1e-9, self._end_time - self._start_time)

    def upload_kbps(self, node_id: int) -> float:
        return self.usage(node_id).sent_bytes * 8.0 / 1000.0 / self.duration

    def download_kbps(self, node_id: int) -> float:
        return self.usage(node_id).received_bytes * 8.0 / 1000.0 / self.duration

    def mean_upload_kbps(self) -> float:
        if not self._usage:
            return 0.0
        return sum(self.upload_kbps(n) for n in self._usage) / len(self._usage)

    def max_upload_kbps(self) -> float:
        if not self._usage:
            return 0.0
        return max(self.upload_kbps(n) for n in self._usage)

    def total_kbps(self) -> float:
        return sum(self.upload_kbps(n) for n in self._usage)

    def node_ids(self) -> list[int]:
        return sorted(self._usage)


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
