"""Per-node bandwidth accounting.

"Most broadband connections are asymmetric, with upload bandwidth being
the limitation" — the scalability experiment (Section II gives centralized
Quake III ≈ 120·n kbps; naive P2P grows quadratically) is entirely about
counting bytes sent per node per second.  :class:`BandwidthMeter` records
every send/receive and reports each node's kbps.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BandwidthMeter", "NodeUsage"]


@dataclass
class NodeUsage:
    """Byte counters for one node."""

    sent_bytes: int = 0
    received_bytes: int = 0
    sent_messages: int = 0
    received_messages: int = 0


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

    def record_send(
        self, node_id: int, size_bytes: int, time: float, copies: int = 1
    ) -> None:
        """Book ``copies`` sends of ``size_bytes`` each, all at ``time``."""
        entry = self.usage(node_id)
        entry.sent_bytes += size_bytes * copies
        entry.sent_messages += copies
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

