"""The set-based ``SequenceWindow`` the duplicate screen had before it kept a
bit per sequence: verbatim.  Each sender's tracked sequences are a
``set[int]``, one int object per delivery.
``tests/test_core_delivery.py`` holds the bitmap window to this one,
verdict for verdict, across eviction.
"""

from __future__ import annotations

from repro.core.delivery import DUPLICATE, EVICTED, FRESH, WINDOW_CAPACITY
from repro.core.messages import GameMessage


class SequenceWindow:
    """Which ``(sender, sequence)`` pairs this node has already accepted.

    Bounded memory: past ``WINDOW_CAPACITY`` tracked sequences the older
    half is evicted behind a per-sender low watermark, and everything at
    or below the watermark is "seen" by fiat — eviction can never turn a
    stale retransmit into fresh (reprocessed) traffic.  First sightings
    of the ``archived`` types are kept as the buffer that arrived (what
    the equivocation detector cross-checks later copies against; one
    ``bytes`` object shared by every witness, where a decoded message
    would pin its whole snapshot graph) and purged in lockstep.
    """

    def __init__(self, archived: tuple[type, ...] = ()) -> None:
        self._archived = archived
        self.seen: dict[int, set[int]] = {}
        #: per sender, the highest evicted sequence
        self.watermark: dict[int, int] = {}
        #: per sender, sequence -> first-seen wire buffer of an archived type
        self.archive: dict[int, dict[int, bytes]] = {}

    def screen(self, message: GameMessage, buffer: bytes) -> str:
        """Record a first sighting (``FRESH``) or classify the repeat.

        ``EVICTED``: the sequence was tracked once and its tombstone has
        been garbage-collected, so a late retransmit landing there is
        indistinguishable from a replay.
        """
        sender, sequence = message.sender_id, message.sequence
        seen = self.seen.get(sender)
        if seen is None:
            seen = self.seen[sender] = set()
        if sequence <= self.watermark.get(sender, -1):
            return EVICTED
        if sequence in seen:
            return DUPLICATE
        seen.add(sequence)
        if isinstance(message, self._archived):
            self.archive.setdefault(sender, {})[sequence] = buffer
        if len(seen) > WINDOW_CAPACITY:  # old sequences cannot return
            kept = sorted(seen)
            watermark = kept[-(WINDOW_CAPACITY // 2) - 1]
            self.watermark[sender] = watermark
            self.seen[sender] = set(kept[-(WINDOW_CAPACITY // 2):])
            archive = self.archive.get(sender)
            if archive:
                for stale in [s for s in archive if s <= watermark]:
                    del archive[stale]
        return FRESH

    def first_seen(self, message: GameMessage) -> bytes | None:
        """The archived buffer a tracked duplicate repeats, if any."""
        if not isinstance(message, self._archived):
            return None
        return self.archive.get(message.sender_id, {}).get(message.sequence)
