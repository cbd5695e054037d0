"""The three per-link delivery mechanisms on a node's message path.

Each owns its state behind a two- or three-call surface and is built
*inert* in the paper profile (the way a failover depth of 0 is), so
:class:`~repro.core.node.WatchmenNode` calls them unconditionally and
carries no on/off fork of its own: :class:`SequenceWindow` archives
nothing unless told which types to archive, :class:`AckLedger` tracks
nothing unless given ackable types, :class:`HopLimiter` admits everything
unless ``limited``.  docs/PROTOCOL.md §9 places them in the pipeline.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Iterator

from repro.core.config import (
    ACK_RETRY_BASE_FRAMES,
    ACK_RETRY_MAX_ATTEMPTS,
    ACK_RETRY_MAX_BACKOFF_FRAMES,
    BYZANTINE_QUARANTINE_FRAMES,
    BYZANTINE_QUARANTINE_STRIKES,
    BYZANTINE_RATE_BURST,
    BYZANTINE_RATE_MSGS_PER_FRAME,
)
from repro.core.messages import AckMessage, GameMessage

#: :meth:`SequenceWindow.screen` verdicts.  A tracked repeat is a
#: ``DUPLICATE`` on every rung: dual-send failover, the retry ladder,
#: network duplication and a third party's replayed capture all look
#: alike, and none of them says anything against the sender it names —
#: so a repeat is screened, never rated.
FRESH, DUPLICATE, EVICTED = "fresh", "duplicate", "evicted"
#: :meth:`HopLimiter.admit` verdicts; ``QUARANTINED`` is the one drop that
#: *imposed* a quarantine (later drops under it are plain ``DROPPED``).
ADMITTED, DROPPED, QUARANTINED = "admitted", "dropped", "quarantined"

#: Sequences tracked per sender before the older half is evicted.
WINDOW_CAPACITY = 4096
#: A tracked sequence is one bit in a chunk of ``1 << _CHUNK_SHIFT`` bits,
#: the chunk keyed ``sequence >> _CHUNK_SHIFT``: no allocation grows with
#: a sequence's value, and an 80-frame 48-player match fills one chunk a pair.
_CHUNK_SHIFT = 10
_CHUNK_BYTES = (1 << _CHUNK_SHIFT) // 8
_new_chunk = partial(bytearray, _CHUNK_BYTES)


class _Tracked:
    """One sender's screen state: its watermark (``floor``, -1 until the
    first eviction), a count of the sequences tracked above it, and their
    sparse bitmap."""

    __slots__ = ("floor", "count", "chunks")

    def __init__(self) -> None:
        self.floor = -1
        self.count = 0
        self.chunks: defaultdict[int, bytearray] = defaultdict(_new_chunk)


class SequenceWindow:
    """Which ``(sender, sequence)`` pairs this node has already accepted.

    Bounded memory: past ``WINDOW_CAPACITY`` tracked sequences the older
    half is evicted behind a per-sender low watermark, and everything at
    or below the watermark is "seen" by fiat — eviction can never turn a
    stale retransmit into fresh (reprocessed) traffic.  A tracked sequence
    costs one bit (:class:`_Tracked`), not an int in a set.  First
    sightings of the ``archived`` types are kept as the buffer that
    arrived (what the equivocation detector cross-checks later copies
    against; one ``bytes`` object shared by every witness, where a
    decoded message would pin its whole snapshot graph) and purged in
    lockstep.
    """

    def __init__(self, archived: tuple[type, ...] = ()) -> None:
        self._archived = archived
        self._tracked: defaultdict[int, _Tracked] = defaultdict(_Tracked)
        #: per sender, the highest evicted sequence: each evicted sender's
        #: ``_Tracked.floor``, which the screen reads in the same lookup as
        #: the bitmap
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
        tracked = self._tracked[sender]
        if sequence <= tracked.floor:
            return EVICTED
        chunk = tracked.chunks[sequence >> _CHUNK_SHIFT]
        index = (sequence >> 3) & (_CHUNK_BYTES - 1)
        bit = 1 << (sequence & 7)
        if chunk[index] & bit:
            return DUPLICATE
        chunk[index] |= bit
        if self._archived and isinstance(message, self._archived):
            self.archive.setdefault(sender, {})[sequence] = buffer
        tracked.count += 1
        if tracked.count > WINDOW_CAPACITY:  # old sequences cannot return
            self._evict(sender, tracked)
        return FRESH

    def _evict(self, sender: int, tracked: _Tracked) -> None:
        """Keep the newest half: the watermark becomes the highest sequence
        evicted, the (``WINDOW_CAPACITY // 2 + 1``)-th largest tracked."""
        kept = WINDOW_CAPACITY // 2
        chunks = tracked.chunks
        above = 0  # tracked sequences in the chunks walked so far
        for key in sorted(chunks, reverse=True):
            bits = int.from_bytes(chunks[key], "little")
            count = bits.bit_count()
            if above + count > kept:
                break
            above += count
        for _ in range(kept - above):  # this chunk's survivors, highest first
            bits ^= 1 << (bits.bit_length() - 1)
        low = bits.bit_length() - 1  # the watermark's bit in this chunk
        watermark = tracked.floor = self.watermark[sender] = key << _CHUNK_SHIFT | low
        tracked.count = kept
        for stale in [k for k in chunks if k < key]:
            del chunks[stale]
        survivors = int.from_bytes(chunks[key], "little") >> (low + 1) << (low + 1)
        if survivors:
            chunks[key] = bytearray(survivors.to_bytes(_CHUNK_BYTES, "little"))
        else:
            del chunks[key]
        archive = self.archive.get(sender)
        if archive:
            for stale in [s for s in archive if s <= watermark]:
                del archive[stale]

    def first_seen(self, message: GameMessage) -> bytes | None:
        """The archived buffer a tracked duplicate repeats, if any."""
        if not isinstance(message, self._archived):
            return None
        return self.archive.get(message.sender_id, {}).get(message.sequence)


@dataclass
class PendingSend:
    """One critical message awaiting its hop-by-hop ack."""

    message: GameMessage  # what routes a retry (type, sender, sequence)
    buffer: bytes  # what is retransmitted: the signed frame of the first send
    destination: int
    next_frame: int  # when the next retransmission fires
    attempt: int = 0  # retransmissions performed so far

    @property
    def exhausted(self) -> bool:
        return self.attempt >= ACK_RETRY_MAX_ATTEMPTS


class AckLedger:
    """Unacked sends of the ``ackable`` types, with capped exponential backoff.

    Entries are keyed ``(destination, original sender, sequence)`` — the
    triple an :class:`AckMessage` from that destination names.
    """

    def __init__(self, ackable: tuple[type, ...] = ()) -> None:
        #: what a receiver owes a receipt for; empty = reliable delivery off
        self.ackable = ackable
        self._pending: dict[tuple[int, int, int], PendingSend] = {}

    def track(
        self, message: GameMessage, buffer: bytes, destination: int, frame: int
    ) -> None:
        """Start the retry clock on an ackable send (no-op for a resend)."""
        if isinstance(message, self.ackable):
            self._pending.setdefault(
                (destination, message.sender_id, message.sequence),
                PendingSend(
                    message, buffer, destination, frame + ACK_RETRY_BASE_FRAMES
                ),
            )

    def settle(self, src: int, ack: AckMessage) -> None:
        self._pending.pop((src, ack.acked_sender_id, ack.acked_sequence), None)

    def due(self, frame: int) -> Iterator[PendingSend]:
        """Pop and yield every entry whose retry clock has fired.

        The due set is fixed up front, in key order; each entry is popped
        only as it is yielded, so a :meth:`refile` that lands on a later
        due key replaces that entry before it is reached.
        """
        for key in sorted(k for k, p in self._pending.items() if p.next_frame <= frame):
            pending = self._pending.pop(key, None)
            if pending is not None:
                yield pending

    def refile(self, pending: PendingSend, destination: int, frame: int) -> None:
        """Count a retransmission toward ``destination`` and re-arm the clock."""
        pending.attempt += 1
        pending.next_frame = frame + min(
            ACK_RETRY_BASE_FRAMES * (2 ** pending.attempt),
            ACK_RETRY_MAX_BACKOFF_FRAMES,
        )
        pending.destination = destination
        message = pending.message
        self._pending[(destination, message.sender_id, message.sequence)] = pending


class HopLimiter:
    """Token-bucket admission per transmitting hop, with bounded quarantine.

    Honest links carry a few messages per frame (epoch bursts stay well
    under the burst allowance), so they never strike; a flooder drains
    its bucket within a couple of frames, accumulates strikes and is
    silenced for ``BYZANTINE_QUARANTINE_FRAMES`` — bounded, so a false
    positive self-heals instead of becoming an eviction.
    """

    def __init__(self, limited: bool) -> None:
        self._limited = limited
        #: per hop: (tokens, frame of the last refill)
        self.buckets: dict[int, tuple[float, int]] = {}
        self.strikes: dict[int, int] = {}
        self.quarantined_until: dict[int, int] = {}

    def admit(self, src: int, frame: int) -> str:
        if not self._limited:
            return ADMITTED
        until = self.quarantined_until.get(src)
        if until is not None:
            if frame < until:
                return DROPPED
            # Quarantine served: fresh bucket, strikes forgiven.
            del self.quarantined_until[src]
            self.strikes.pop(src, None)
            self.buckets.pop(src, None)
        burst = float(BYZANTINE_RATE_BURST)
        tokens, last = self.buckets.get(src, (burst, frame))
        tokens = min(burst, tokens + (frame - last) * BYZANTINE_RATE_MSGS_PER_FRAME)
        if tokens >= 1.0:
            self.buckets[src] = (tokens - 1.0, frame)
            return ADMITTED
        self.buckets[src] = (tokens, frame)
        self.strikes[src] = self.strikes.get(src, 0) + 1
        if self.strikes[src] < BYZANTINE_QUARANTINE_STRIKES:
            return DROPPED
        self.quarantined_until[src] = frame + BYZANTINE_QUARANTINE_FRAMES
        self.strikes[src] = 0
        return QUARANTINED
