"""Byzantine hardening: adversarial envelope edges, detection, accounting.

Covers the PR 9 robustness tier (see ``docs/ROBUSTNESS.md``):

- sequence-watermark eviction keeps late retransmits *silent* — a
  garbage-collected tombstone must never turn into cheat evidence or a
  reprocessed message, on the paper rung as on the hardened one;
- ``_verify_envelope`` under attack: forged signatures, spoofed senders,
  tamper-hop attribution on every rung, duplicate-vs-equivocation
  classification, plus a property check that honest retransmits never
  accuse anyone no matter the interleaving;
- the equivocation pipeline end to end: archive cross-check, signed
  self-certifying evidence, quorum-free conviction, and every forgery
  path ``EvidenceLog.weigh`` must reject;
- the token-bucket flood defense with its *bounded* quarantine;
- conviction semantics on the membership view (idempotence, no rescind
  by liveness, interaction with the silence quorum);
- unified drop accounting: protocol-layer rejections surface as
  ``net.dropped.tamper`` / ``net.dropped.quarantine`` and feed
  ``messages_lost``;
- bit-identity: an empty Byzantine schedule (and hardening with no
  attacker) changes nothing;
- fault-schedule JSON round-trips for every adversarial fault kind.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import pytest

from repro.core import WatchmenSession
from repro.core import delivery as delivery_module
from repro.core.config import (
    BYZANTINE_QUARANTINE_FRAMES,
    BYZANTINE_QUARANTINE_STRIKES,
    BYZANTINE_RATE_BURST,
    BYZANTINE_RATE_MSGS_PER_FRAME,
    PROFILES,
    WatchmenConfig,
)
from repro.core.delivery import DUPLICATE, EVICTED, FRESH
from repro.core.membership import MembershipView
from repro.core.messages import (
    MisbehaviorEvidence,
    PositionUpdate,
    StateUpdate,
)
from repro.core.node import WatchmenNode
from repro.core.proxy import ProxySchedule
from repro.core.wire import encode_signable
from repro.crypto.signatures import HmacSigner
from repro.faults import FaultSchedule
from repro.faults.byzantine import (
    AckWithholdFault,
    EquivocationFault,
    FloodFault,
    SelectiveForwardFault,
    TamperFault,
)
from repro.game import generate_trace
from repro.game.avatar import AvatarSnapshot
from repro.game.vector import Vec3
from repro.obs import MetricsRegistry, use_registry
from tests.arena import make_arena
from tests.wirekit import LoopbackWire, deliver


def snap(player_id, frame=0, x=0.0, y=-800.0):
    return AvatarSnapshot(
        player_id=player_id,
        frame=frame,
        position=Vec3(x, y, 0),
        velocity=Vec3(),
        yaw=0.0,
        health=100,
        armor=0,
        weapon="machinegun",
        ammo=100,
        alive=True,
    )


class Harness:
    """N nodes over an instant, lossless, synchronous loopback."""

    def __init__(self, num_players=4, config=None, lose=None):
        self.config = config or WatchmenConfig()
        roster = list(range(num_players))
        self.schedule = ProxySchedule(
            roster,
            common_seed=self.config.common_seed,
            proxy_period_frames=self.config.proxy_period_frames,
        )
        self.signer = HmacSigner()
        wire = LoopbackWire(lose)
        self.sent = wire.sent
        self.frames = wire.frames
        self.nodes = wire.nodes
        for player_id in roster:
            self.nodes[player_id] = WatchmenNode(
                player_id=player_id,
                roster=roster,
                game_map=make_arena(),
                config=self.config,
                schedule=self.schedule,
                signer=self.signer,
                send_many=wire.send_many,
            )

    def tick(self, frame):
        for player_id, node in self.nodes.items():
            node.on_frame(frame, snap(player_id, frame=frame, x=100.0 * player_id))

    def signed_state(self, sender, sequence, frame=0, x=0.0):
        message = StateUpdate(sender, frame, sequence, snap(sender, frame, x=x))
        return replace(
            message, signature=self.signer.sign(sender, encode_signable(message))
        )

    def signed_position(self, sender, sequence, frame=0):
        message = PositionUpdate(sender, frame, sequence, snap(sender, frame))
        return replace(
            message, signature=self.signer.sign(sender, encode_signable(message))
        )

    def signed_evidence(self, witness, accused, first, second, *, frame=0,
                        sequence=900_000):
        evidence = MisbehaviorEvidence(
            sender_id=witness,
            accused_id=accused,
            frame=frame,
            sequence=sequence,
            first=first,
            second=second,
        )
        return replace(
            evidence, signature=self.signer.sign(witness, encode_signable(evidence))
        )


def hardened():
    """The top rung: failover + acks + the Byzantine tier, which is how
    hardening deploys."""
    return WatchmenConfig(profile="hardened")


def ratings_with(node, fragment):
    return [r for r in node.metrics.ratings if fragment in r.detail]


def _report_fingerprint(report) -> tuple:
    return (
        report.messages_sent,
        report.messages_lost,
        report.dropped_by_cause,
        report.mean_upload_kbps,
        report.max_upload_kbps,
        sorted(report.banned),
        report.view_error_stats(),
        dict(report.crashed),
    )


# ---- satellite 1: watermark eviction -------------------------------------


def spy_on_screen(node):
    """Every ``(sequence, verdict)`` ``node``'s duplicate screen returns, in order."""
    verdicts = []
    screen = node._window.screen

    def spy(message, buffer):
        verdicts.append((message.sequence, screen(message, buffer)))
        return verdicts[-1][1]

    node._window.screen = spy
    return verdicts


class TestWatermarkEviction:
    def _flood_sequences(self, harness, receiver, sender, count):
        node = harness.nodes[receiver]
        for sequence in range(count):
            deliver(node, sender, harness.signed_position(sender, sequence))
        return node

    def test_eviction_installs_watermark_and_bounds_memory(self):
        harness = Harness()
        harness.tick(0)
        node = self._flood_sequences(harness, 1, 0, 4200)
        assert node._window.watermark[0] == 2048
        verdicts = spy_on_screen(node)
        for sequence in (2048, 2049, 4199, *range(4200, 6146)):
            deliver(node, 0, harness.signed_position(0, sequence))
        assert verdicts[:3] == [(2048, EVICTED), (2049, DUPLICATE), (4199, DUPLICATE)]
        assert {verdict for _, verdict in verdicts[3:]} == {FRESH}
        # 2049..6144 is the 4096 a window tracks; one more evicts half
        assert node._window.watermark[0] == 4097

    def test_retransmit_straddling_eviction_is_silent_gates_off(self):
        """A retransmit below the watermark is screened, never judged.

        The pre-watermark code *re-accepted* evicted sequences (the
        tombstone was gone, so the message looked fresh); the fix must
        screen them silently even with every robustness gate off.
        """
        harness = Harness()  # the paper rung: nothing retransmits
        harness.tick(0)
        node = self._flood_sequences(harness, 1, 0, 4200)
        before_replays = node.metrics.replayed_messages
        verdicts = spy_on_screen(node)
        evicted = harness.signed_position(0, 100)  # below watermark 2048
        deliver(node, 0, evicted)
        assert node.metrics.replayed_messages == before_replays + 1
        assert list(node.metrics.ratings) == []
        # Not reprocessed either: the sequence stays evicted, not re-seen.
        deliver(node, 0, evicted)
        assert verdicts == [(100, EVICTED), (100, EVICTED)]

    def test_tracked_repeat_rates_no_one_on_the_paper_rung(self):
        """A repeat proves nothing about its sender: counted, screened, silent."""
        harness = Harness()
        harness.tick(0)
        node = self._flood_sequences(harness, 1, 0, 4200)
        before_replays = node.metrics.replayed_messages
        deliver(node, 0, harness.signed_position(0, 3000))  # still tracked
        assert node.metrics.replayed_messages == before_replays + 1
        assert list(node.metrics.ratings) == []

    def test_eviction_purges_equivocation_archive_in_lockstep(self, monkeypatch):
        # Rate limits lifted: this test floods sequences on purpose and
        # is about archive GC, not the flood defense.
        monkeypatch.setattr(delivery_module, "BYZANTINE_RATE_MSGS_PER_FRAME", 100_000)
        monkeypatch.setattr(delivery_module, "BYZANTINE_RATE_BURST", 100_000)
        harness = Harness(config=hardened())
        harness.tick(0)
        proxy = harness.schedule.proxy_of(0, 0)
        node = harness.nodes[proxy]
        for sequence in range(4200):
            deliver(node, 0, harness.signed_state(0, sequence))
        archive = node._window.archive[0]
        assert archive, "hardening must archive first-seen updates"
        assert min(archive) > node._window.watermark[0]



class TestAdversarialSequence:
    def test_a_sequence_at_the_top_of_int64_costs_no_more_than_one_at_zero(self):
        """A validly signed sender picks any int64: the window's memory
        must not grow with the value (a bitmap over the range would)."""
        harness = Harness()
        harness.tick(0)
        node = harness.nodes[1]
        top = harness.signed_position(0, 2**63 - 1)
        zero = harness.signed_position(0, 0)
        verdicts = spy_on_screen(node)
        tracemalloc.start()
        try:
            for message in (top, zero, top):
                deliver(node, 0, message)
            retained = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, delivery_module.__file__)]
            )
        finally:
            tracemalloc.stop()
        assert verdicts == [(2**63 - 1, FRESH), (0, FRESH), (2**63 - 1, DUPLICATE)]
        assert sum(stat.size for stat in retained.statistics("filename")) < 4096


# ---- satellite 3: envelope adversarial edges ------------------------------


class TestEnvelopeAdversarial:
    def test_forged_signature_relayed_blames_the_hop(self):
        harness = Harness(config=hardened())
        harness.tick(0)
        node = harness.nodes[1]
        drops = []
        node.protocol_drop = drops.append
        message = harness.signed_state(0, 500)
        tampered = replace(message, snapshot=snap(0, x=9999.0))
        deliver(node, 3, tampered)  # relayed by 3, signed by 0
        assert (0, 3, "tamper_hop") in node.evidence.suspicion_events
        assert drops == ["tamper"]
        assert [r.subject_id for r in ratings_with(node, "tampering hop")] == [3]
        # The named sender is *not* blamed: its signing path never
        # produces these bytes, so the mutation happened in flight.
        assert all(
            r.subject_id != 0 for r in ratings_with(node, "tampering hop")
        )

    def test_forged_signature_first_hop_blames_the_sender(self):
        harness = Harness(config=hardened())
        harness.tick(0)
        node = harness.nodes[1]
        message = StateUpdate(0, 0, 501, snap(0))  # unsigned
        deliver(node, 0, message)  # src == sender: nothing was relayed
        assert node.evidence.suspicion_events == []
        assert [
            r.subject_id for r in ratings_with(node, "invalid or missing")
        ] == [0]

    def test_spoofed_sender_vs_route_attributed_to_route(self):
        """Player 2 signs with *its own* key while claiming to be 0."""
        for config in (None, hardened()):  # the paper rung and the top one
            harness = Harness(config=config)
            harness.tick(0)
            node = harness.nodes[1]
            message = StateUpdate(0, 0, 502, snap(0))
            spoofed = replace(
                message, signature=harness.signer.sign(2, encode_signable(message))
            )
            deliver(node, 2, spoofed)
            # The verify keys off the claimed sender (0), so the signature
            # fails; the blame lands on the delivering hop (2), never on 0.
            assert (0, 2, "tamper_hop") in node.evidence.suspicion_events
            assert [r.subject_id for r in node.metrics.ratings] == [2]

    def test_identical_retransmit_is_replay_not_equivocation(self):
        harness = Harness(config=hardened())
        harness.tick(0)
        proxy = harness.schedule.proxy_of(0, 0)
        node = harness.nodes[proxy]
        message = harness.signed_state(0, 504)
        deliver(node, 0, message)
        before = node.metrics.replayed_messages
        deliver(node, 0, message)
        assert node.metrics.replayed_messages == before + 1
        assert node.evidence.equivocation_events == []
        assert ratings_with(node, "equivocation") == []

    def test_reliable_mode_screens_duplicates_silently(self):
        for profile in PROFILES:
            harness = Harness(config=WatchmenConfig(profile=profile))
            harness.tick(0)
            node = harness.nodes[1]
            message = harness.signed_position(0, 505)
            deliver(node, 0, message)
            before = len(node.metrics.ratings)
            deliver(node, 0, message)
            assert node.metrics.replayed_messages == 1, profile
            assert len(node.metrics.ratings) == before, profile

    def test_honest_retransmit_interleavings_never_accuse(self):
        """Property: shuffled + duplicated honest traffic stays innocent.

        Whatever order (and multiplicity) the network delivers a batch of
        correctly signed, sequence-distinct updates in, the hardened
        envelope must treat every repeat as a retransmission artefact —
        zero equivocation events, zero quarantines, zero max-confidence
        ratings against the honest sender.
        """
        hypothesis = pytest.importorskip("hypothesis")
        given = hypothesis.given
        settings = hypothesis.settings
        st = hypothesis.strategies

        # Retransmits are an *expected* artefact here: the hardened rung
        # stands on the layers that generate them (retry ladder, dual-send
        # failover).
        config = hardened()

        @given(data=st.data())
        @settings(max_examples=20, deadline=None)
        def run(data):
            harness = Harness(config=config)
            harness.tick(0)
            proxy = harness.schedule.proxy_of(0, 0)
            node = harness.nodes[proxy]
            originals = [harness.signed_state(0, 600 + i) for i in range(6)]
            extras = data.draw(
                st.lists(st.sampled_from(originals), max_size=8)
            )
            batch = data.draw(st.permutations(originals + extras))
            for message in batch:
                deliver(node, 0, message)
            assert node.evidence.equivocation_events == []
            assert node.evidence.quarantine_events == []
            assert not any(
                r.rating >= 10.0 and r.subject_id == 0
                for r in node.metrics.ratings
            )

        run()


# ---- tentpole: equivocation detection + evidence --------------------------


class TestEquivocation:
    def _conflict(self, harness, sender=0, sequence=700):
        first = harness.signed_state(sender, sequence, x=10.0)
        second = harness.signed_state(sender, sequence, x=5000.0)
        return first, second

    def test_conflicting_payloads_detected_and_broadcast(self):
        harness = Harness(config=hardened())
        harness.tick(0)
        proxy = harness.schedule.proxy_of(0, 0)
        witness = harness.nodes[proxy]
        first, second = self._conflict(harness)
        deliver(witness, 0, first)
        deliver(witness, 0, second)
        assert [(f, who) for f, who in witness.evidence.equivocation_events] == [(0, 0)]
        assert len(ratings_with(witness, "equivocation: conflicting")) == 1
        evidence = [
            m for _, _, m in harness.sent if isinstance(m, MisbehaviorEvidence)
        ]
        assert evidence and all(e.accused_id == 0 for e in evidence)
        # Loopback delivered the evidence: every honest node convicted.
        for player_id, node in harness.nodes.items():
            if player_id == 0:
                continue
            assert 0 in node.membership.convicted, player_id

    def test_evidence_emitted_once_per_accused(self):
        harness = Harness(config=hardened())
        harness.tick(0)
        proxy = harness.schedule.proxy_of(0, 0)
        witness = harness.nodes[proxy]
        first, second = self._conflict(harness, sequence=701)
        third = harness.signed_state(0, 701, x=-4000.0)
        deliver(witness, 0, first)
        deliver(witness, 0, second)
        before = len(
            [m for _, _, m in harness.sent if isinstance(m, MisbehaviorEvidence)]
        )
        deliver(witness, 0, third)
        after = len(
            [m for _, _, m in harness.sent if isinstance(m, MisbehaviorEvidence)]
        )
        assert after == before  # second conflict: rated, not re-broadcast

    def test_valid_evidence_convicts_a_third_party(self):
        harness = Harness(config=hardened())
        harness.tick(0)
        node = harness.nodes[2]
        first, second = self._conflict(harness, sequence=702)
        evidence = harness.signed_evidence(1, 0, first, second)
        deliver(node, 1, evidence)
        assert 0 in node.membership.convicted
        assert len(ratings_with(node, "verified misbehavior evidence")) == 1

    @pytest.mark.parametrize(
        "mutate",
        [
            "wrong_accused",
            "different_sequences",
            "identical_payloads",
            "broken_inner_signature",
        ],
    )
    def test_forged_evidence_rejected_and_reporter_rated(self, mutate):
        harness = Harness(config=hardened())
        harness.tick(0)
        node = harness.nodes[2]
        first, second = self._conflict(harness, sequence=703)
        if mutate == "wrong_accused":
            evidence = harness.signed_evidence(1, 3, first, second)
        elif mutate == "different_sequences":
            other = harness.signed_state(0, 704, x=5000.0)
            evidence = harness.signed_evidence(1, 0, first, other)
        elif mutate == "identical_payloads":
            evidence = harness.signed_evidence(1, 0, first, first)
        else:
            broken = replace(second, signature=first.signature)
            evidence = harness.signed_evidence(1, 0, first, broken)
        deliver(node, 1, evidence)
        assert node.membership.convicted == set()
        rated = ratings_with(node, "evidence fails verification")
        assert [r.subject_id for r in rated] == [1]  # the reporter, not 0

    def test_no_self_conviction_on_hearsay(self):
        harness = Harness(config=hardened())
        harness.tick(0)
        accused = harness.nodes[0]
        first, second = self._conflict(harness, sequence=705)
        evidence = harness.signed_evidence(1, 0, first, second)
        deliver(accused, 1, evidence)
        assert 0 not in accused.membership.convicted

    def test_hardening_off_ignores_evidence(self):
        harness = Harness()
        harness.tick(0)
        node = harness.nodes[2]
        first, second = self._conflict(harness, sequence=706)
        evidence = harness.signed_evidence(1, 0, first, second)
        deliver(node, 1, evidence)
        assert node.membership.convicted == set()
        assert len(node.metrics.ratings) == 0


# ---- tentpole: flood defense ---------------------------------------------


class TestRateLimitQuarantine:
    def test_flood_trips_bounded_quarantine(self):
        harness = Harness(config=hardened())
        harness.tick(0)
        node = harness.nodes[1]
        drops = []
        node.protocol_drop = drops.append
        burst = BYZANTINE_RATE_BURST
        strikes = BYZANTINE_QUARANTINE_STRIKES
        for i in range(burst + strikes + 5):
            deliver(node, 2, harness.signed_position(2, 800 + i))
        assert [src for _, src in node.evidence.quarantine_events] == [2]
        assert drops.count("quarantine") >= 5
        assert len(ratings_with(node, "message flood")) == 1
        # Bounded: quarantine expires, the link speaks again, strikes
        # are forgiven — a false positive self-heals instead of
        # escalating toward an eviction.
        resume = BYZANTINE_QUARANTINE_FRAMES + 1
        node.on_frame(resume, snap(1, frame=resume, x=100.0))
        before = len(drops)
        deliver(node, 2, harness.signed_position(2, 900))
        assert len(drops) == before
        assert node._hops.quarantined_until == {}
        assert len(node.evidence.quarantine_events) == 1

    def test_honest_pacing_never_strikes(self):
        harness = Harness(config=hardened())
        harness.tick(0)
        node = harness.nodes[1]
        rate = BYZANTINE_RATE_MSGS_PER_FRAME
        sequence = 1000
        for frame in range(1, 31):
            node.on_frame(frame, snap(1, frame=frame, x=100.0))
            for _ in range(rate - 1):
                deliver(node, 2, harness.signed_position(2, sequence, frame))
                sequence += 1
        assert node.evidence.quarantine_events == []
        assert node._hops.strikes.get(2, 0) == 0


# ---- tentpole: conviction semantics --------------------------------------


class TestConvictionSemantics:
    def test_convict_is_idempotent_and_pins_the_epoch(self):
        view = MembershipView(roster=[0, 1, 2, 3])
        assert view.convict(3, epoch_due=5) is True
        assert view.convict(3, epoch_due=99) is False  # repeat ignored
        assert view._scheduled_removals[3] == 5  # first conviction pins
        assert view.apply_removals(4) == set()
        assert view.apply_removals(5) == {3}
        assert 3 not in view.current_roster()

    def test_liveness_does_not_rescind_a_conviction(self):
        view = MembershipView(roster=[0, 1, 2, 3])
        view.convict(3, epoch_due=5)
        view.heard_from(3, frame=90)  # the equivocator keeps publishing
        assert 3 in view._scheduled_removals
        assert view.apply_removals(5) == {3}

    def test_convict_rejects_strangers_and_the_removed(self):
        view = MembershipView(roster=[0, 1, 2, 3])
        assert view.convict(9, epoch_due=5) is False
        view.convict(3, epoch_due=1)
        view.apply_removals(1)
        assert view.convict(3, epoch_due=2) is False


# ---- satellite 2: unified drop accounting ---------------------------------


class TestDropAccounting:
    def test_protocol_drops_feed_the_registry_and_the_report(self):
        registry = MetricsRegistry()
        trace = generate_trace(num_players=6, num_frames=120, seed=3)
        schedule = FaultSchedule(
            byzantine=(TamperFault(node_id=1, start_frame=20, end_frame=80),),
            seed=3,
        )
        with use_registry(registry):
            session = WatchmenSession(trace, config=hardened(), faults=schedule)
            report = session.run()
        tampered = report.dropped_by_cause.get("tamper", 0)
        assert tampered > 0
        counters = registry.snapshot()["counters"]
        assert counters["net.dropped.tamper"] == tampered
        assert session.network.rejected_by_protocol >= tampered
        # PR 4 convention: every dead datagram has exactly one cause
        # counter, and messages_lost is their sum — protocol-layer
        # rejections included.
        assert report.messages_lost == sum(report.dropped_by_cause.values())

    def test_quarantine_drops_counted_by_cause(self):
        registry = MetricsRegistry()
        trace = generate_trace(num_players=6, num_frames=120, seed=4)
        schedule = FaultSchedule(
            byzantine=(
                FloodFault(
                    node_id=1,
                    victims=frozenset({2, 3}),
                    start_frame=20,
                    end_frame=80,
                ),
            ),
            seed=4,
        )
        with use_registry(registry):
            report = WatchmenSession(
                trace, config=hardened(), faults=schedule
            ).run()
        quarantined = report.dropped_by_cause.get("quarantine", 0)
        assert quarantined > 0
        assert registry.snapshot()["counters"]["net.dropped.quarantine"] == (
            quarantined
        )
        assert report.messages_lost == sum(report.dropped_by_cause.values())


# ---- bit-identity + serialization ----------------------------------------


class TestByzantineBitIdentity:
    def test_empty_byzantine_schedule_equals_no_injector(self):
        trace = generate_trace(num_players=8, num_frames=120, seed=11)
        plain = WatchmenSession(trace).run()
        empty = WatchmenSession(trace, faults=FaultSchedule(byzantine=())).run()
        assert _report_fingerprint(plain) == _report_fingerprint(empty)

    def test_hardening_without_attackers_is_inert_under_empty_schedule(self):
        """Hardening + an empty schedule == hardening + no injector.

        (Hardening itself may observably differ from no-hardening; the
        identity that must hold is that *wiring the Byzantine machinery
        with nothing to inject* changes no byte of the outcome.)
        """
        trace = generate_trace(num_players=8, num_frames=120, seed=11)
        config = hardened()
        plain = WatchmenSession(trace, config=config).run()
        empty = WatchmenSession(
            trace, config=config, faults=FaultSchedule(byzantine=())
        ).run()
        assert _report_fingerprint(plain) == _report_fingerprint(empty)
        assert plain.equivocations_detected == 0
        assert plain.quarantines == 0


class TestScheduleRoundTrip:
    def test_every_byzantine_kind_round_trips(self):
        schedule = FaultSchedule(
            byzantine=(
                EquivocationFault(node_id=1, start_frame=10, end_frame=50),
                TamperFault(node_id=2, start_frame=5, end_frame=25),
                SelectiveForwardFault(
                    node_id=3,
                    victims=frozenset({0, 4}),
                    start_frame=8,
                    end_frame=40,
                ),
                FloodFault(
                    node_id=4,
                    victims=frozenset({1}),
                    start_frame=12,
                    end_frame=30,
                    msgs_per_frame=96,
                ),
                AckWithholdFault(node_id=5, start_frame=0, end_frame=60),
            ),
            seed=17,
        )
        assert FaultSchedule.from_json(schedule.to_json()) == schedule
        assert schedule.byzantine_node_ids() == frozenset({1, 2, 3, 4, 5})
        assert [f.node_id for f in schedule.byzantine_for(3)] == [3]

    def test_empty_byzantine_tuple_keeps_schedule_empty(self):
        assert FaultSchedule(byzantine=()) == FaultSchedule()
        assert FaultSchedule(
            byzantine=(AckWithholdFault(node_id=0, start_frame=0, end_frame=1),)
        ) != FaultSchedule()
