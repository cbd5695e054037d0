"""Unit tests for the three delivery mechanisms (``repro.core.delivery``).

``WatchmenNode`` builds each one inert on the ``paper`` rung and live
on the ``hardened`` one; these tests drive the classes directly, both
ways.
"""

from __future__ import annotations

from repro.core.config import (
    ACK_RETRY_BASE_FRAMES,
    ACK_RETRY_MAX_ATTEMPTS,
    ACK_RETRY_MAX_BACKOFF_FRAMES,
    BYZANTINE_QUARANTINE_FRAMES,
    BYZANTINE_QUARANTINE_STRIKES,
    BYZANTINE_RATE_BURST,
    BYZANTINE_RATE_MSGS_PER_FRAME,
)
from repro.core.delivery import (
    ADMITTED,
    DROPPED,
    DUPLICATE,
    EVICTED,
    FRESH,
    QUARANTINED,
    WINDOW_CAPACITY,
    AckLedger,
    HopLimiter,
    SequenceWindow,
)
from repro.core.messages import (
    SUB_INTEREST,
    AckMessage,
    PositionUpdate,
    StateUpdate,
    SubscriptionRequest,
)
from tests.test_byzantine import snap
from tests.wirekit import as_frame


def state(sender, sequence, x=0.0):
    return StateUpdate(sender, 0, sequence, snap(sender, x=x))


def position(sender, sequence):
    return PositionUpdate(sender, 0, sequence, snap(sender))


def subscription(sender, sequence, target=9):
    return SubscriptionRequest(sender, target, SUB_INTEREST, 0, sequence)


def screen(window, message):
    """Screen ``message`` as the buffer it would arrive in."""
    return window.screen(message, as_frame(message))


def track(ledger, message, destination, frame):
    ledger.track(message, as_frame(message), destination, frame)


class TestSequenceWindow:
    def test_first_sighting_is_fresh_and_repeats_are_duplicates(self):
        window = SequenceWindow()  # as built on every rung
        assert screen(window, position(0, 5)) == FRESH
        assert screen(window, position(0, 5)) == DUPLICATE
        # the window is per sender: another sender's 5 is new
        assert screen(window, position(1, 5)) == FRESH

    def test_eviction_installs_a_watermark_that_screens_forever(self):
        window = SequenceWindow()
        for sequence in range(WINDOW_CAPACITY + 1):
            assert screen(window, position(0, sequence)) == FRESH
        half = WINDOW_CAPACITY // 2
        assert window.watermark[0] == half
        assert min(window.seen[0]) == half + 1
        assert len(window.seen[0]) == half
        # below the watermark: evicted, and never re-admitted as seen
        assert screen(window, position(0, 3)) == EVICTED
        assert 3 not in window.seen[0]
        # above it and still tracked: an ordinary repeat
        assert screen(window, position(0, half + 1)) == DUPLICATE

    def test_inert_window_archives_nothing(self):
        window = SequenceWindow()
        update = state(0, 1)
        screen(window, update)
        assert window.archive == {}
        assert window.first_seen(update) is None

    def test_archive_keeps_first_sighting_of_archived_types_only(self):
        window = SequenceWindow(archived=(StateUpdate,))
        original, conflicting = state(0, 7, x=1.0), state(0, 7, x=2.0)
        screen(window, original)
        screen(window, position(0, 8))
        assert screen(window, conflicting) == DUPLICATE
        assert window.first_seen(conflicting) == as_frame(original)
        assert window.archive[0].keys() == {7}
        # a different type reusing an archived sequence is not "the same
        # message, signed twice": no original to cross-check against
        assert window.first_seen(position(0, 7)) is None

    def test_eviction_purges_the_archive_in_lockstep(self):
        window = SequenceWindow(archived=(StateUpdate,))
        for sequence in range(WINDOW_CAPACITY + 1):
            screen(window, state(0, sequence))
        assert min(window.archive[0]) > window.watermark[0]
        assert window.first_seen(state(0, 3)) is None


class TestAckLedger:
    def test_inert_ledger_tracks_nothing(self):
        ledger = AckLedger()
        track(ledger, subscription(0, 1), destination=4, frame=0)
        assert len(ledger._pending) == 0
        assert list(ledger.due(10_000)) == []

    def test_only_ackable_types_are_tracked_and_acks_settle_them(self):
        ledger = AckLedger((SubscriptionRequest,))
        track(ledger, subscription(0, 1), destination=4, frame=0)
        track(ledger, position(0, 2), destination=4, frame=0)
        assert len(ledger._pending) == 1
        # an ack from the wrong hop settles nothing
        ledger.settle(5, AckMessage(5, 0, 1, acked_sender_id=0, acked_sequence=1))
        assert len(ledger._pending) == 1
        ledger.settle(4, AckMessage(4, 0, 1, acked_sender_id=0, acked_sequence=1))
        assert len(ledger._pending) == 0

    def test_due_respects_the_retry_clock_and_pops(self):
        ledger = AckLedger((SubscriptionRequest,))
        track(ledger, subscription(0, 1), destination=4, frame=10)
        assert list(ledger.due(10 + ACK_RETRY_BASE_FRAMES - 1)) == []
        (pending,) = ledger.due(10 + ACK_RETRY_BASE_FRAMES)
        assert (pending.destination, pending.attempt) == (4, 0)
        assert len(ledger._pending) == 0  # popped until refiled

    def test_refile_backs_off_exponentially_to_a_cap_then_exhausts(self):
        ledger = AckLedger((SubscriptionRequest,))
        track(ledger, subscription(0, 1), destination=4, frame=0)
        frame, gaps = ACK_RETRY_BASE_FRAMES, []
        for _ in range(ACK_RETRY_MAX_ATTEMPTS):
            (pending,) = ledger.due(frame)
            assert not pending.exhausted
            ledger.refile(pending, pending.destination, frame)
            gaps.append(pending.next_frame - frame)
            frame = pending.next_frame
        assert gaps == [
            min(ACK_RETRY_BASE_FRAMES * 2**n, ACK_RETRY_MAX_BACKOFF_FRAMES)
            for n in range(1, ACK_RETRY_MAX_ATTEMPTS + 1)
        ]
        (pending,) = ledger.due(frame)
        assert pending.exhausted

    def test_resend_after_refile_keeps_the_attempt_count(self):
        ledger = AckLedger((SubscriptionRequest,))
        request = subscription(0, 1)
        track(ledger, request, destination=4, frame=0)
        (pending,) = ledger.due(ACK_RETRY_BASE_FRAMES)
        ledger.refile(pending, 6, ACK_RETRY_BASE_FRAMES)  # re-routed to hop 6
        track(ledger, request, destination=6, frame=ACK_RETRY_BASE_FRAMES)
        assert len(ledger._pending) == 1
        ledger.settle(6, AckMessage(6, 0, 1, acked_sender_id=0, acked_sequence=1))
        assert len(ledger._pending) == 0

    def test_refile_onto_a_later_due_key_replaces_it_before_it_is_reached(self):
        # two copies of one send (dual-send failover); the copy to dead hop
        # 4 is re-routed onto hop 6's key, which is also due this frame
        ledger = AckLedger((SubscriptionRequest,))
        request = subscription(0, 1)
        track(ledger, request, destination=4, frame=0)
        track(ledger, request, destination=6, frame=0)
        seen = []
        for pending in ledger.due(ACK_RETRY_BASE_FRAMES):
            seen.append((pending.destination, pending.attempt))
            ledger.refile(pending, 6, ACK_RETRY_BASE_FRAMES)
        assert seen == [(4, 0), (6, 1)]
        assert len(ledger._pending) == 1


class TestHopLimiter:
    def test_unlimited_admits_everything_and_keeps_no_state(self):
        limiter = HopLimiter(limited=False)
        assert {limiter.admit(2, 0) for _ in range(10_000)} == {ADMITTED}
        assert limiter.buckets == {} and limiter.strikes == {}

    def test_burst_then_strikes_then_quarantine(self):
        limiter = HopLimiter(limited=True)
        verdicts = [
            limiter.admit(2, 0)
            for _ in range(BYZANTINE_RATE_BURST + BYZANTINE_QUARANTINE_STRIKES + 2)
        ]
        assert verdicts[:BYZANTINE_RATE_BURST] == [ADMITTED] * BYZANTINE_RATE_BURST
        assert verdicts[BYZANTINE_RATE_BURST:] == (
            [DROPPED] * (BYZANTINE_QUARANTINE_STRIKES - 1)
            + [QUARANTINED]
            + [DROPPED] * 2  # already quarantined: no second imposition
        )
        assert limiter.quarantined_until[2] == BYZANTINE_QUARANTINE_FRAMES
        # buckets are per hop
        assert limiter.admit(3, 0) == ADMITTED

    def test_quarantine_is_bounded_and_forgives(self):
        limiter = HopLimiter(limited=True)
        for _ in range(BYZANTINE_RATE_BURST + BYZANTINE_QUARANTINE_STRIKES):
            limiter.admit(2, 0)
        assert limiter.admit(2, BYZANTINE_QUARANTINE_FRAMES - 1) == DROPPED
        assert limiter.admit(2, BYZANTINE_QUARANTINE_FRAMES) == ADMITTED
        assert limiter.quarantined_until == {} and limiter.strikes.get(2, 0) == 0

    def test_bucket_refills_per_frame(self):
        limiter = HopLimiter(limited=True)
        for _ in range(BYZANTINE_RATE_BURST):
            limiter.admit(2, 0)
        assert limiter.admit(2, 0) == DROPPED
        admitted = [limiter.admit(2, 1) for _ in range(BYZANTINE_RATE_MSGS_PER_FRAME + 1)]
        assert admitted == [ADMITTED] * BYZANTINE_RATE_MSGS_PER_FRAME + [DROPPED]
