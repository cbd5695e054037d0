"""Unit tests for the four role collaborators behind ``WatchmenNode``.

``repro.core.liveness`` / ``clients`` / ``evidence`` / ``publisher``
(docs/PROTOCOL.md §10), each driven directly — inert and live, no node
constructed — in the style of ``tests/test_core_delivery.py``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace

import pytest

from repro.core.clients import ClientBook
from repro.core.config import (
    BYZANTINE_STARVATION_FRAMES,
    DEFENSE_INTERVAL_FRAMES,
    FRAMES_PER_SECOND,
    HANDOFF_DEPTH,
    MAX_FAILOVER_ATTEMPTS,
    PROXY_PERIOD_FRAMES,
    PROXY_SILENCE_THRESHOLD_FRAMES,
    REMOVAL_DELAY_EPOCHS,
    SILENCE_GRACE_FRAMES,
    WatchmenConfig,
)
from repro.core.evidence import FORGED, IGNORED, VALID, EvidenceLog
from repro.core.liveness import FirstHops
from repro.core.membership import MembershipView
from repro.core.messages import (
    SUB_INTEREST,
    SUB_VISION,
    GuidanceMessage,
    HandoffMessage,
    HandoffSummary,
    KillClaim,
    MisbehaviorEvidence,
    PositionUpdate,
    ProjectileSpawn,
    RemovalProposal,
    StateUpdate,
    SubscriptionRequest,
)
from repro.core.proxy import ProxySchedule
from repro.core.publisher import Publisher
from repro.core.subscriptions import PlannedSubscriptions
from repro.core.verification import CheckKind, Confidence
from repro.core.wire import encode_signable
from repro.crypto.signatures import HmacSigner
from repro.obs import MetricsRegistry, use_registry
from repro.game.vector import Vec3
from tests.test_byzantine import snap

ROSTER = list(range(8))
ME = 0


def hops_for(me=ME, depth=MAX_FAILOVER_ATTEMPTS, roster=ROSTER):
    schedule = ProxySchedule(roster)
    membership = MembershipView(list(roster))
    hops = FirstHops(
        me, schedule, membership, depth, PROXY_SILENCE_THRESHOLD_FRAMES
    )
    return hops, schedule, membership


def keep_alive(membership, frame, dead=()):
    for node in membership.roster:
        if node not in dead:
            membership.heard_from(node, frame)


def sets(interest=(), vision=()):
    interest, vision = frozenset(interest), frozenset(vision)
    return PlannedSubscriptions(
        frame=0,
        interest=interest,
        vision=vision,
        new_interest=interest,
        new_vision=vision,
    )


# ---------------------------------------------------------------------------
# first hops / liveness
# ---------------------------------------------------------------------------


class TestFirstHopsLiveness:
    def test_silence_past_the_threshold_reads_as_dead_for_routing_only(self):
        hops, _, membership = hops_for()
        membership.heard_from(3, 10)
        assert not hops.seems_dead(3, 10 + PROXY_SILENCE_THRESHOLD_FRAMES)
        assert hops.seems_dead(3, 11 + PROXY_SILENCE_THRESHOLD_FRAMES)
        assert 3 not in membership.removed  # eviction still needs the quorum
        assert not hops.seems_dead(ME, 10_000)  # never myself

    def test_removed_is_dead_and_exempt_infrastructure_never_is(self):
        hops, _, membership = hops_for()
        membership.removed.add(4)
        assert hops.seems_dead(4, 0)

    def test_live_proxy_is_the_first_candidate_still_heard(self):
        hops, schedule, membership = hops_for()
        frame = 100
        scheduled = schedule.proxy_of(ME, 2)
        walk = list(schedule.first_hops(ME, 2, MAX_FAILOVER_ATTEMPTS))
        assert walk[0] == scheduled
        keep_alive(membership, frame)
        assert hops.live_proxy_of(ME, 2, frame) == scheduled
        keep_alive(membership, frame + 40, dead={scheduled})
        stand_in = next(hop for hop in walk if hop != scheduled)
        assert hops.live_proxy_of(ME, 2, frame + 40) == stand_in
        # dual-send: the live candidate first, the scheduled proxy as well
        assert hops.publish_proxies(frame + 40, 2) == [stand_in, scheduled]

    def test_every_candidate_suspect_falls_back_to_the_schedule(self):
        hops, schedule, _ = hops_for()  # nobody ever heard: all dead by 100
        assert hops.live_proxy_of(ME, 2, 100) == schedule.proxy_of(ME, 2)
        assert hops.publish_proxies(100, 2) == [schedule.proxy_of(ME, 2)]

    def test_inert_depth_zero_routes_to_the_scheduled_proxy_alone(self):
        hops, schedule, membership = hops_for(depth=0)
        scheduled = schedule.proxy_of(ME, 1)
        keep_alive(membership, 80, dead={scheduled})
        assert hops.live_proxy_of(ME, 1, 80) == scheduled
        assert hops.publish_proxies(80, 1) == [scheduled]
        # watches nothing, fails over never
        assert hops.update(80, 1, ROSTER, sets(interest={3}), {3}) == (False, [])
        assert hops.failover_events == []


class TestFirstHopsFailover:
    def test_update_reports_a_genuine_failover_once(self):
        hops, schedule, membership = hops_for()
        scheduled = schedule.proxy_of(ME, 0)
        keep_alive(membership, 1)
        assert hops.update(1, 0, ROSTER, None, {}) == (False, [])  # first route
        keep_alive(membership, 35, dead={scheduled})
        failed_over, orphaned = hops.update(35, 0, ROSTER, None, {})
        assert failed_over and orphaned == []
        [(frame, was, now)] = hops.failover_events
        assert (frame, was) == (35, scheduled) and now != scheduled
        keep_alive(membership, 36, dead={scheduled})
        assert hops.update(36, 0, ROSTER, None, {}) == (False, [])  # unchanged

    def test_routine_epoch_rotation_is_not_a_failover(self):
        hops, _, membership = hops_for()
        for frame in (1, PROXY_PERIOD_FRAMES, 2 * PROXY_PERIOD_FRAMES):
            keep_alive(membership, frame)
            epoch = frame // PROXY_PERIOD_FRAMES
            assert hops.update(frame, epoch, ROSTER, None, {}) == (False, [])
        assert hops.failover_events == []

    def test_update_names_the_subscriptions_a_dead_proxy_orphaned(self):
        hops, schedule, membership = hops_for()
        victim = next(
            proxy for proxy in (schedule.proxy_of(p, 0) for p in ROSTER if p != ME)
            if proxy not in (ME, schedule.proxy_of(ME, 0))
        )
        served = [p for p in ROSTER if schedule.proxy_of(p, 0) == victim and p != ME]
        assert served
        other = next(
            p for p in ROSTER
            if p not in served and p not in (ME, victim)
        )
        keep_alive(membership, 1)
        hops.update(1, 0, ROSTER, None, {})
        keep_alive(membership, 35, dead={victim})
        wanted = sets(interest=set(served[:1]), vision={other} | set(served[1:]))
        _, orphaned = hops.update(35, 0, ROSTER, wanted, set(ROSTER))
        assert orphaned == sorted(served)
        # reported when the proxy *newly* dies, not every frame after
        keep_alive(membership, 36, dead={victim})
        assert hops.update(36, 0, ROSTER, wanted, set(ROSTER))[1] == []

    def test_retry_destination_follows_the_subject_of_the_message(self):
        hops, schedule, membership = hops_for()
        epoch, frame = 0, 35
        dead = schedule.proxy_of(5, epoch)
        keep_alive(membership, frame, dead={dead})
        live = hops.live_proxy_of(5, epoch, frame)
        assert live != dead
        relay = SubscriptionRequest(3, 5, SUB_INTEREST, frame, 9)  # stage 2
        assert hops.retry_destination(relay, dead, epoch, frame) == live
        handoff = HandoffMessage(ME, 5, epoch, 9, frozenset(), frozenset())
        assert hops.retry_destination(handoff, dead, epoch, frame) == live
        # direct sends keep their destination; a live one is never re-aimed
        vote = RemovalProposal(ME, 6, frame, 9)
        assert hops.retry_destination(vote, dead, epoch, frame) == dead
        assert hops.retry_destination(relay, live, epoch, frame) == live

    def test_my_own_claims_and_requests_retry_through_my_live_proxy(self):
        hops, schedule, membership = hops_for()
        frame = 35
        mine = schedule.proxy_of(ME, 0)
        keep_alive(membership, frame, dead={mine})
        live = hops.live_proxy_of(ME, 0, frame)
        request = SubscriptionRequest(ME, 5, SUB_VISION, frame, 9)
        claim = KillClaim(ME, 5, frame, 10, "railgun", 100.0)
        assert hops.retry_destination(request, mine, 0, frame) == live
        assert hops.retry_destination(claim, mine, 0, frame) == live
        witness_copy = KillClaim(3, 5, frame, 10, "railgun", 100.0)
        assert hops.retry_destination(witness_copy, mine, 0, frame) == mine


class TestFirstHopAcceptance:
    def test_acceptance_spans_the_epoch_boundary(self):
        """The outgoing proxy still accepts a client's late traffic."""
        hops, schedule, _ = hops_for(depth=0)
        epoch = next(
            e for e in range(1, 200)
            if schedule.proxy_of(3, e - 1) == ME
            and ME not in (schedule.proxy_of(3, e), schedule.proxy_of(3, e + 1))
        )
        assert hops.is_proxy_of(3, epoch - 1) and not hops.is_proxy_of(3, epoch)
        assert not hops.serves(3, epoch)
        assert hops.accepts_first_hop_from(3, epoch)  # grace: last epoch's proxy
        assert not hops.accepts_first_hop_from(3, epoch + 1)  # one epoch only

    def test_a_stand_in_serves_only_within_the_failover_depth(self):
        schedule = ProxySchedule(ROSTER)
        walk = list(schedule.first_hops(3, 0, MAX_FAILOVER_ATTEMPTS))
        stand_in = next(hop for hop in walk[1:] if hop != walk[0])
        live, _, _ = hops_for(me=stand_in)
        inert, _, _ = hops_for(me=stand_in, depth=0)
        assert live.serves(3, 0) and live.accepts_first_hop_from(3, 0)
        assert live.may_route(3, 0, stand_in)
        assert not inert.serves(3, 0)
        assert not inert.may_route(3, 0, stand_in)
        assert inert.may_route(3, 0, walk[0])  # the scheduled proxy always may

    def test_acceptors_mirror_the_receiver_side_rule(self):
        hops, schedule, _ = hops_for()
        for epoch in (0, 1, 4):
            expected = {
                node
                for node in ROSTER
                if hops_for(me=node)[0].accepts_first_hop_from(ME, epoch)
            }
            assert hops.acceptors(epoch) == expected
        gone, _, _ = hops_for()
        gone.reschedule(schedule.without_players({ME}))
        assert gone.acceptors(1) == set()  # nobody forwards for the evicted

    def test_the_epochs_client_set_answers_as_the_schedule_does(self):
        """``is_proxy_of`` from the set the node opens each epoch: the same
        answers as ``verify_proxy`` (a stranger is nobody's client), without
        a lookup, and dropped with the schedule it was drawn from."""
        registry = MetricsRegistry(enabled=True)
        lookups = registry.counter("proxy.schedule.lookups")
        everyone = (*ROSTER, 99)
        for me in ROSTER:
            with use_registry(registry):
                hops, schedule, _ = hops_for(me=me)
            for epoch in (0, 3):
                hops.open_epoch(epoch, schedule.clients_of(me, epoch))
                expected = [schedule.verify_proxy(p, epoch, me) for p in everyone]
                before = lookups.value
                assert [hops.is_proxy_of(p, epoch) for p in everyone] == expected
                assert lookups.value == before
                # another epoch still goes to the schedule
                assert hops.is_proxy_of(3, epoch + 1) == schedule.verify_proxy(
                    3, epoch + 1, me
                )
        hops, schedule, _ = hops_for(me=ProxySchedule(ROSTER).proxy_of(3, 0))
        hops.open_epoch(0, schedule.clients_of(hops.player_id, 0))
        assert hops.is_proxy_of(3, 0)
        hops.reschedule(schedule.without_players({3}))
        assert not hops.is_proxy_of(3, 0)  # evicted: no stale set says yes

    def test_defense_bursts_are_windowed_and_rate_limited(self):
        hops, _, _ = hops_for()
        assert not hops.under_challenge(0)
        hops.challenged(50)
        hops.challenged(40)  # an earlier deadline never shortens the window
        assert hops.under_challenge(50) and not hops.under_challenge(51)
        assert hops.defense_due(10)
        assert not hops.defense_due(10 + DEFENSE_INTERVAL_FRAMES - 1)
        assert hops.defense_due(10 + DEFENSE_INTERVAL_FRAMES)


# ---------------------------------------------------------------------------
# client book
# ---------------------------------------------------------------------------


def book_for(me=ME):
    return ClientBook(me, retention_frames=PROXY_PERIOD_FRAMES)


def request(sender, target, kind=SUB_INTEREST, frame=0):
    return SubscriptionRequest(sender, target, kind, frame, 1)


class TestClientBook:
    def test_records_open_on_first_use_and_reads_stay_pure(self):
        book = book_for()
        assert 3 not in book._clients
        assert book.subscribers_of(3, 0) == (frozenset(), frozenset())
        assert 3 not in book._clients  # the read opened nothing
        state = book.state(3)
        assert book.state(3) is state and book._clients[3] is state

    def test_open_epoch_skips_myself(self):
        book = book_for()
        book.open_epoch([ME, 2, 5])
        assert ME not in book._clients
        assert 2 in book._clients and 5 in book._clients

    def test_registrations_drive_every_audience(self):
        book = book_for()
        book.register(request(4, 3, SUB_INTEREST), frame=0)
        book.register(request(5, 3, SUB_VISION), frame=0)
        assert book.subscribers_of(3, 1) == (frozenset({4}), frozenset({5}))
        assert book.witnesses_of(3, 1) == {4, 5}
        assert book.others_audience(3, ROSTER, 1) == [0, 1, 2, 3, 6, 7]
        # expiry is the table's: past retention the lists are empty again
        book.expire(PROXY_PERIOD_FRAMES)
        assert book.subscribers_of(3, PROXY_PERIOD_FRAMES) == (
            frozenset(), frozenset()
        )

    def test_drop_forgets_removed_players(self):
        book = book_for()
        book.open_epoch([2, 5])
        book.drop({2, 9})
        assert 2 not in book._clients and 5 in book._clients


def handoff_pair(depth=0):
    """An outgoing proxy's book + hops, with a client it serves in epoch 0
    and does not serve in epoch 1."""
    schedule = ProxySchedule(ROSTER)
    client, old = next(
        (player, schedule.proxy_of(player, 0))
        for player in ROSTER
        if schedule.proxy_of(player, 0) != schedule.proxy_of(player, 1)
        and schedule.proxy_of(player, 0) != player
    )
    hops, _, membership = hops_for(me=old, depth=depth)
    keep_alive(membership, PROXY_PERIOD_FRAMES)
    return book_for(old), hops, client, old, schedule.proxy_of(client, 1)


class TestHandoff:
    def test_export_then_import_round_trips_the_tenure(self):
        book, hops, client, old, new = handoff_pair()
        state = book.state(client)
        book.register(request(6, client, SUB_INTEREST), frame=30)
        book.register(request(7, client, SUB_VISION), frame=30)
        state.last_snapshot = snap(client, frame=39)
        state.update_count, state.suspicion_flags = 37, 2

        [(destination, handoff)] = list(
            book.export_handoffs(PROXY_PERIOD_FRAMES, 1, hops)
        )
        assert destination == new
        assert handoff.sequence == 0  # the node stamps it as it sends
        assert (handoff.sender_id, handoff.player_id, handoff.epoch) == (old, client, 0)
        assert client not in book._clients  # the tenure is over

        successor = book_for(new)
        incoming = successor.import_handoff(handoff, PROXY_PERIOD_FRAMES)
        assert incoming == snap(client, frame=39)
        assert successor.subscribers_of(client, PROXY_PERIOD_FRAMES) == (
            frozenset({6}), frozenset({7})
        )
        inherited = successor.state(client)
        assert inherited.last_snapshot == incoming
        assert inherited.predecessor_summaries == handoff.summaries
        assert handoff.summaries[0] == HandoffSummary(
            client, 0, old, snap(client, frame=39), 37, 2
        )

    def test_summaries_chain_handoff_depth_tenures_and_no_more(self):
        book, hops, client, old, _ = handoff_pair()
        older = tuple(
            HandoffSummary(client, -1 - i, 9, None, 0, i) for i in range(3)
        )
        book.state(client).predecessor_summaries = older
        [(_, handoff)] = list(book.export_handoffs(PROXY_PERIOD_FRAMES, 1, hops))
        assert len(handoff.summaries) == HANDOFF_DEPTH
        assert handoff.summaries[0].proxy_id == old
        assert handoff.summaries[1:] == older[: HANDOFF_DEPTH - 1]

    def test_import_without_a_snapshot_returns_none(self):
        book = book_for(5)
        message = HandoffMessage(
            1, 3, 0, 4, frozenset({6}), frozenset(),
            (HandoffSummary(3, 0, 1, None, 0, 0),),
        )
        assert book.import_handoff(message, 40) is None
        assert book.state(3).last_snapshot is None
        assert book.subscribers_of(3, 40)[0] == {6}

    def test_a_ghost_entry_is_dropped_not_handed_off(self):
        """Grace-period traffic opens records for clients I never proxied."""
        hops, schedule, membership = hops_for()
        ghost = next(
            player for player in ROSTER
            if player != ME
            and not hops.serves(player, 0)
            and schedule.proxy_of(player, 1) != ME
        )
        keep_alive(membership, PROXY_PERIOD_FRAMES)
        book = book_for()
        book.state(ghost).update_count = 5
        assert list(book.export_handoffs(PROXY_PERIOD_FRAMES, 1, hops)) == []
        assert ghost not in book._clients

    def test_a_re_elected_proxy_keeps_its_client(self):
        schedule = ProxySchedule(ROSTER)
        client, proxy, epoch = next(
            (player, schedule.proxy_of(player, e), e)
            for e in range(1, 200)
            for player in ROSTER
            if schedule.proxy_of(player, e) == schedule.proxy_of(player, e - 1)
            and schedule.proxy_of(player, e) != player
        )
        hops, _, membership = hops_for(me=proxy, depth=0)
        frame = epoch * PROXY_PERIOD_FRAMES
        keep_alive(membership, frame)
        book = book_for(proxy)
        state = book.state(client)
        assert list(book.export_handoffs(frame, epoch, hops)) == []
        assert book._clients[client] is state

    def test_a_stand_in_hands_off_only_a_client_it_actually_heard(self):
        schedule = ProxySchedule(ROSTER)
        walk = list(schedule.first_hops(3, 0, MAX_FAILOVER_ATTEMPTS))
        stand_in = next(
            hop for hop in walk[1:]
            if hop != walk[0] and hop != schedule.proxy_of(3, 1)
        )
        hops, _, membership = hops_for(me=stand_in)
        keep_alive(membership, PROXY_PERIOD_FRAMES)
        silent, heard = book_for(stand_in), book_for(stand_in)
        silent.state(3)
        heard.state(3).update_count = 1
        assert list(silent.export_handoffs(PROXY_PERIOD_FRAMES, 1, hops)) == []
        [(_, handoff)] = list(heard.export_handoffs(PROXY_PERIOD_FRAMES, 1, hops))
        assert handoff.sender_id == stand_in and handoff.player_id == 3


class TestSilencePoll:
    def _proxied(self):
        client = 3
        me = ProxySchedule(ROSTER).proxy_of(client, 0)
        hops, _, _ = hops_for(me=me, depth=0)
        book = book_for(me)
        book.open_epoch([client])
        return book, hops, client, me

    def test_dead_air_past_the_grace_is_rated_and_flagged(self):
        book, hops, client, me = self._proxied()
        assert list(book.poll_silence(SILENCE_GRACE_FRAMES, 0, 0, hops)) == []
        [rating] = list(book.poll_silence(SILENCE_GRACE_FRAMES + 1, 0, 0, hops))
        assert (rating.verifier_id, rating.subject_id) == (me, client)
        assert rating.check == CheckKind.RATE
        assert rating.confidence == Confidence.PROXY
        assert rating.rating == pytest.approx(5.2)
        assert "no traffic at all" in rating.detail
        assert book.state(client).suspicion_flags == 1

    def test_a_ghost_record_is_not_polled(self):
        book, hops, client, me = self._proxied()
        stranger = next(
            p for p in ROSTER if p not in (me, client) and not hops.is_proxy_of(p, 0)
        )
        book.state(stranger)
        subjects = {r.subject_id for r in book.poll_silence(30, 0, 0, hops)}
        assert subjects == {client}


# ---------------------------------------------------------------------------
# evidence (the Byzantine tier)
# ---------------------------------------------------------------------------


def log_for(me=2, hardened=True):
    signer = HmacSigner()
    for player in ROSTER:
        signer.register(player)
    config = WatchmenConfig()
    return EvidenceLog(me, signer, config.epoch_of_frame, hardened=hardened), signer


def signed_update(signer, sender, sequence, x=0.0):
    update = StateUpdate(sender, 0, sequence, snap(sender, x=x))
    return replace(update, signature=signer.sign(sender, encode_signable(update)))


def evidence_about(accused, first, second, witness=1, frame=0):
    return MisbehaviorEvidence(witness, accused, frame, 900, first, second)


class TestEvidenceWeighing:
    def test_two_signed_conflicting_updates_are_valid_proof(self):
        log, signer = log_for()
        proof = evidence_about(
            0, signed_update(signer, 0, 7, x=1.0), signed_update(signer, 0, 7, x=2.0)
        )
        assert log.weigh(proof) is VALID

    @pytest.mark.parametrize(
        "refusal",
        ["wrong_accused", "self_accusation", "different_sequences",
         "identical_payloads", "broken_signature"],
    )
    def test_each_forgery_is_refused(self, refusal):
        log, signer = log_for(me=2)
        first = signed_update(signer, 0, 7, x=1.0)
        second = signed_update(signer, 0, 7, x=2.0)
        accused = 0
        if refusal == "wrong_accused":
            accused = 3
        elif refusal == "self_accusation":
            accused = 2
            first = signed_update(signer, 2, 7, x=1.0)
            second = signed_update(signer, 2, 7, x=2.0)
        elif refusal == "different_sequences":
            second = signed_update(signer, 0, 8, x=2.0)
        elif refusal == "identical_payloads":
            second = first
        else:
            second = replace(second, signature=first.signature)
        assert log.weigh(evidence_about(accused, first, second)) is FORGED

    def test_inert_below_the_hardened_rung(self):
        log, signer = log_for(hardened=False)
        proof = evidence_about(
            0, signed_update(signer, 0, 7, x=1.0), signed_update(signer, 0, 7, x=2.0)
        )
        assert log.weigh(proof) is IGNORED
        forged = evidence_about(3, proof.first, proof.second)
        assert log.weigh(forged) is IGNORED  # not even the reporter is judged

    def test_due_epoch_is_a_function_of_the_evidence_frame_alone(self):
        log, signer = log_for()
        first, second = signed_update(signer, 0, 7, 1.0), signed_update(signer, 0, 7, 2.0)
        early = evidence_about(0, first, second, frame=PROXY_PERIOD_FRAMES - 1)
        late = evidence_about(0, first, second, frame=PROXY_PERIOD_FRAMES)
        assert log.due_epoch(early) == REMOVAL_DELAY_EPOCHS
        assert log.due_epoch(late) == 1 + REMOVAL_DELAY_EPOCHS


class TestBlamePolicies:
    def test_a_bad_signature_blames_the_hop_that_handed_it_over(self):
        log, _ = log_for(hardened=False)  # not a rung's policy
        assert log.blame_bad_signature(5, src=3, sender=0) == (
            "relayed message fails its signature (tampering hop)"
        )
        assert log.suspicion_events == [(5, 3, "tamper_hop")]
        # first hop: nothing was relayed, the named sender made it
        assert log.blame_bad_signature(6, src=0, sender=0) == (
            "invalid or missing signature"
        )
        assert len(log.suspicion_events) == 1

    def test_ack_withholding_needs_a_live_destination_and_the_hardened_rung(self):
        log, _ = log_for()
        assert not log.withholds_acks(9, 4, alive=False)
        assert log.withholds_acks(9, 4, alive=True)
        assert log.suspicion_events == [(9, 4, "ack_withhold")]
        inert, _ = log_for(hardened=False)
        assert not inert.withholds_acks(9, 4, alive=True)
        assert inert.suspicion_events == []

    def test_evidence_goes_out_once_per_accused_but_every_detection_is_logged(self):
        log, _ = log_for()
        assert log.equivocated(3, accused=0) is True
        assert log.equivocated(4, accused=0) is False
        assert log.equivocated(4, accused=5) is True
        assert log.equivocation_events == [(3, 0), (4, 0), (4, 5)]
        log.quarantined(6, 7)
        assert log.quarantine_events == [(6, 7)]


class TestStarvationScan:
    """One dark subject (3) behind a live proxy; each skip condition in turn."""

    FRAME = 4 * FRAMES_PER_SECOND  # a scan frame inside epoch 2

    def _scene(self, me=None, hardened=True):
        schedule = ProxySchedule(ROSTER)
        subject = 3
        membership = MembershipView(list(ROSTER))
        went_dark = self.FRAME - BYZANTINE_STARVATION_FRAMES - 1
        proxy = schedule.proxy_of(subject, (went_dark + 1) // PROXY_PERIOD_FRAMES)
        if me is None:
            me = next(p for p in ROSTER if p not in (subject, proxy))
        for node in ROSTER:
            membership.heard_from(node, went_dark if node == subject else self.FRAME)
        log, _ = log_for(me=me, hardened=hardened)
        return log, membership, schedule, subject, proxy

    def _scan(self, log, membership, schedule, frame=None, epoch=2):
        frame = self.FRAME if frame is None else frame
        return list(log.scan_starvation(frame, epoch, membership, schedule))

    def test_a_dark_subject_behind_a_live_proxy_is_reported_once_per_epoch(self):
        log, membership, schedule, subject, proxy = self._scene()
        assert self._scan(log, membership, schedule) == [
            (proxy, subject, BYZANTINE_STARVATION_FRAMES + 1)
        ]
        assert log.suspicion_events == [(self.FRAME, proxy, "starvation")]
        assert self._scan(log, membership, schedule) == []  # already rated
        assert len(self._scan(log, membership, schedule, epoch=3)) == 1

    def test_inert_below_the_hardened_rung(self):
        log, membership, schedule, *_ = self._scene(hardened=False)
        assert self._scan(log, membership, schedule) == []
        assert log.suspicion_events == []

    def test_only_whole_seconds_after_frame_zero_are_scanned(self):
        log, membership, schedule, *_ = self._scene()
        assert self._scan(log, membership, schedule, frame=0) == []
        assert self._scan(log, membership, schedule, frame=self.FRAME + 1) == []

    def test_myself_and_exempt_infrastructure_are_never_subjects(self):
        log, membership, schedule, subject, _ = self._scene(me=3)
        assert self._scan(log, membership, schedule) == []

    def test_a_recently_heard_subject_is_skipped(self):
        log, membership, schedule, subject, _ = self._scene()
        membership.heard_from(subject, self.FRAME - BYZANTINE_STARVATION_FRAMES)
        assert self._scan(log, membership, schedule) == []

    def test_a_subject_the_removal_machinery_already_has_is_skipped(self):
        log, membership, schedule, subject, _ = self._scene()
        membership.record_proposal(6, subject, self.FRAME, 2)
        assert self._scan(log, membership, schedule) == []

    def test_i_never_blame_myself_as_the_proxy(self):
        *_, subject, proxy = self._scene()
        log, membership, schedule, *_ = self._scene(me=proxy)
        assert self._scan(log, membership, schedule) == []

    def test_a_silent_proxy_could_be_a_partition_and_is_skipped(self):
        log, membership, schedule, subject, proxy = self._scene()
        membership._last_heard[proxy] = self.FRAME - FRAMES_PER_SECOND - 1
        assert self._scan(log, membership, schedule) == []


# ---------------------------------------------------------------------------
# publisher
# ---------------------------------------------------------------------------


def publisher_for(me=ME):
    return Publisher(me)


def moving(frame):
    return replace(snap(ME, frame=frame, x=10.0 * frame), velocity=Vec3(200.0, 0, 0))


#: A publisher whose phase is not 0, so the schedule's phase shows.
PHASED = 7


def tier_frames(player_id, frames):
    """The frames carrying ``player_id``'s keyframe, guidance and position."""
    publisher = publisher_for(me=player_id)
    keyframes, guidance, position = set(), set(), set()
    for frame in range(frames):
        for message in publisher.updates(frame, moving(frame)):
            if isinstance(message, StateUpdate) and not message.delta_fields:
                keyframes.add(frame)
            elif isinstance(message, GuidanceMessage):
                guidance.add(frame)
            elif isinstance(message, PositionUpdate):
                position.add(frame)
    return keyframes, guidance, position


class TestPublisherTiers:
    def test_every_frame_a_state_update_and_once_a_second_the_slow_tiers(self):
        publisher = publisher_for(me=PHASED)
        for frame in range(3 * FRAMES_PER_SECOND):
            sent = [type(m) for m in publisher.updates(frame, moving(frame))]
            if frame in (7, 27, 47):
                assert sent == [StateUpdate, GuidanceMessage, PositionUpdate]
            else:
                assert sent == [StateUpdate], frame

    def test_keyframe_once_a_second_and_deltas_in_between(self):
        publisher = publisher_for(me=PHASED)
        for frame in range(2 * FRAMES_PER_SECOND):
            update = next(iter(publisher.updates(frame, moving(frame))))
            if frame in (0, 7, 27):
                assert update.delta_fields == ()  # late receivers resynchronise
            else:
                assert "position" in update.delta_fields

    def test_each_player_keeps_its_own_phase_and_no_frame_is_crowded(self):
        """Each id's 1 Hz frames are exactly the frames of its own phase,
        from frame 0 on: no gap, the one from the session's start included, is
        longer than a second (the liveness thresholds assume as much), each
        id sends as many in every ``[0, 20k)`` as when all published on
        ``frame % 20 == 0``, and no frame carries more than its share of the
        roster.  The first ``StateUpdate`` is a keyframe whatever the phase."""
        roster, seconds = 48, 6
        frames = seconds * FRAMES_PER_SECOND
        crowd = Counter()
        for player_id in range(roster):
            keyframes, guidance, position = tier_frames(player_id, frames)
            assert guidance == position
            assert keyframes == position | {0}
            once = sorted(position)
            assert once[0] == player_id % FRAMES_PER_SECOND
            assert {b - a for a, b in zip(once, once[1:])} == {FRAMES_PER_SECOND}
            for k in range(1, seconds + 1):
                assert sum(f < k * FRAMES_PER_SECOND for f in once) == k
            crowd.update(once)
        assert max(crowd.values()) <= math.ceil(roster / FRAMES_PER_SECOND)

    def test_an_unchanged_avatar_still_sends_a_minimal_delta(self):
        publisher = publisher_for()
        list(publisher.updates(0, snap(ME, frame=0)))
        still = replace(snap(ME, frame=0))  # same state, frame field included
        [update] = list(publisher.updates(1, still))
        assert update.delta_fields == ("yaw",)

    def test_everything_leaves_unsequenced_and_as_me(self):
        publisher = publisher_for(me=4)
        publisher.claim_kill(3, 5, "railgun", 300.0)
        out = [
            *publisher.updates(0, snap(4)),
            *publisher.subscriptions(0, {2}, {3}),
            *publisher.drain_claims(),
            publisher.heartbeat(0, snap(4)),
        ]
        assert {m.sequence for m in out} == {0}
        assert {m.sender_id for m in out} == {4}
        assert all(m.signature is None for m in out)

    def test_heartbeat_carries_position_only(self):
        full = replace(snap(ME, x=5.0), health=37)
        beat = publisher_for().heartbeat(9, full)
        assert beat.frame == 9
        assert beat.snapshot == full.position_only()
        assert beat.snapshot.health != 37

    def test_guidance_uses_the_players_own_future_when_he_knows_it(self):
        publisher = publisher_for()
        now = snap(ME, frame=0, x=0.0)
        guessed = [m for m in publisher.updates(0, now)][1].prediction
        assert guessed.velocity == now.velocity  # first-order fallback
        publisher = publisher_for()
        publisher.own_future = lambda frame: snap(ME, frame=frame, x=4.0 * frame)
        informed = [m for m in publisher.updates(0, now)][1].prediction
        assert informed.velocity.x == pytest.approx(4.0 / 0.05)
        assert informed.horizon_frames == FRAMES_PER_SECOND


class TestPublisherQueues:
    def test_subscriptions_go_interest_first_each_in_target_order(self):
        requests = list(publisher_for().subscriptions(7, {5, 2}, {4, 1}))
        assert [(r.kind, r.target_id) for r in requests] == [
            (SUB_INTEREST, 2), (SUB_INTEREST, 5), (SUB_VISION, 1), (SUB_VISION, 4)
        ]
        assert {r.frame for r in requests} == {7}

    def test_spawns_drain_before_claims_and_the_queues_empty(self):
        publisher = publisher_for()
        publisher.claim_kill(3, 5, "rocket-launcher", 300.0)
        publisher.announce_projectile(3, "rocket-launcher", Vec3(), Vec3(900, 0, 0))
        publisher.claim_kill(3, 6, "railgun", 100.0)
        drained = publisher.drain_claims()
        assert [type(m) for m in drained] == [ProjectileSpawn, KillClaim, KillClaim]
        assert [m.victim_id for m in drained[1:]] == [5, 6]
        assert publisher.drain_claims() == []
