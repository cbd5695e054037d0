"""The twelve protocol-violation ratings, pinned field for field.

These are the ratings ``WatchmenNode`` itself files (``CheckKind.RATE``)
when the *message discipline* is breached, as opposed to the game-state
checks the verifiers file.  Their ``rating`` / ``confidence`` /
``deviation`` / ``detail`` feed reputation downstream (tapes, chaos
metrics), so a refactor of how they are built must not move a digit.
Each case drives the public surface until the rating fires and returns
``(node, subject, rating, confidence, deviation, detail)``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import (
    ACK_RETRY_MAX_ATTEMPTS,
    BYZANTINE_QUARANTINE_STRIKES,
    BYZANTINE_RATE_BURST,
    WatchmenConfig,
)
from repro.core.messages import (
    AckMessage,
    HandoffMessage,
    RemovalProposal,
)
from repro.core.verification import CheckKind, Confidence
from repro.core.wire import encode_signable
from tests.test_byzantine import Harness, hardened, snap
from tests.wirekit import as_frame, deliver


def _non_proxy_of(harness, client, exclude=()):
    proxy = harness.schedule.proxy_of(client, 0)
    return next(n for n in harness.nodes if n not in (client, proxy, *exclude))


def invalid_signature():
    harness = Harness()
    harness.tick(0)
    node = harness.nodes[1]
    forged = replace(harness.signed_position(0, 500), snapshot=snap(0, x=77.0))
    deliver(node, 0, forged)
    return node, 0, 10.0, Confidence.PROXY, 1.0, "invalid or missing signature"


def malformed_frame():
    harness = Harness()
    harness.tick(0)
    node = harness.nodes[1]
    node.on_message(3, as_frame(harness.signed_position(0, 500))[:-1])  # truncated
    return node, 3, 10.0, Confidence.PROXY, 1.0, "malformed frame"


def tampering_hop(profile="hardened"):
    harness = Harness(config=WatchmenConfig(profile=profile))
    harness.tick(0)
    node = harness.nodes[1]
    tampered = replace(harness.signed_state(0, 500), snapshot=snap(0, x=9999.0))
    deliver(node, 3, tampered)  # relayed by 3, signed by 0
    return (node, 3, 10.0, Confidence.PROXY, 1.0,
            "relayed message fails its signature (tampering hop)")


def tampering_hop_paper():
    return tampering_hop("paper")


def message_flood():
    harness = Harness(config=hardened())
    harness.tick(0)
    node = harness.nodes[1]
    for i in range(BYZANTINE_RATE_BURST + BYZANTINE_QUARANTINE_STRIKES):
        deliver(node, 2, harness.signed_position(2, 800 + i))
    return (node, 2, 8.0, Confidence.PROXY, float(BYZANTINE_QUARANTINE_STRIKES),
            "message flood: token bucket exhausted repeatedly")


def _equivocate(harness, witness):
    node = harness.nodes[witness]
    deliver(node, 0, harness.signed_state(0, 700, x=0.0))
    deliver(node, 0, harness.signed_state(0, 700, x=500.0))
    return node


def equivocation():
    harness = Harness(config=hardened())
    harness.tick(0)
    node = _equivocate(harness, harness.schedule.proxy_of(0, 0))
    return (node, 0, 10.0, Confidence.PROXY, 1.0,
            "equivocation: conflicting signed payloads for sequence 700")


def verified_evidence():
    harness = Harness(config=hardened())
    harness.tick(0)
    witness = harness.schedule.proxy_of(0, 0)
    _equivocate(harness, witness)  # broadcasts evidence to the roster
    node = harness.nodes[_non_proxy_of(harness, 0)]
    return (node, 0, 10.0, Confidence.PROXY, 1.0,
            "verified misbehavior evidence (signed equivocation)")


def forged_evidence():
    harness = Harness(config=hardened())
    harness.tick(0)
    node = harness.nodes[2]
    same = harness.signed_state(0, 701)
    deliver(node, 1, harness.signed_evidence(1, 0, same, same))
    return (node, 1, 8.0, Confidence.PROXY, 1.0,
            "misbehavior evidence fails verification")


def direct_update_bypassing_proxy():
    harness = Harness()
    harness.tick(0)
    node = harness.nodes[_non_proxy_of(harness, 0)]
    deliver(node, 0, harness.signed_state(0, 900))
    return (node, 0, 9.0, Confidence.PROXY, 1.0,
            "direct state update bypassing proxy")


def handoff_from_a_non_proxy():
    harness = Harness()
    harness.tick(0)
    impostor = _non_proxy_of(harness, 0)
    node = harness.nodes[_non_proxy_of(harness, 0, exclude=(impostor,))]
    handoff = HandoffMessage(
        sender_id=impostor, player_id=0, epoch=0, sequence=950,
        interest_subscribers=frozenset(), vision_subscribers=frozenset(),
        summaries=(),
    )
    signed = replace(
        handoff, signature=harness.signer.sign(impostor, encode_signable(handoff))
    )
    deliver(node, impostor, signed)
    return (node, impostor, 10.0, Confidence.PROXY, 1.0,
            "handoff from a node that was not the proxy")


def escaping_client():
    harness = Harness()
    proxy = harness.schedule.proxy_of(0, 0)
    node = harness.nodes[proxy]
    for frame in range(18):  # only the proxy runs: client 0 never speaks
        node.on_frame(frame, snap(proxy, frame=frame))
    silent_for = 17  # first frame past the 16-frame grace
    return (node, 0, 5.0 + 0.2 * (silent_for - 16), Confidence.PROXY,
            float(silent_for), "no traffic at all for 17 frames (escaping?)")


def starving_proxy():
    harness = Harness(num_players=5, config=hardened())
    subject = 0
    proxy = harness.schedule.proxy_of(subject, 0)
    observer = _non_proxy_of(harness, subject)
    node = harness.nodes[observer]
    node.on_frame(0, snap(observer))
    node.membership.heard_from(proxy, 50)  # the proxy is demonstrably alive
    node.on_frame(60, snap(observer, frame=60))  # ... the subject dark since 0
    return (node, proxy, 6.0, Confidence.OTHER, 60.0,
            f"player {subject} dark while its proxy stays live "
            "(selective forwarding?)")


def ack_withholding():
    # a loopback that loses every receipt: destinations look ack-withholding
    harness = Harness(
        config=WatchmenConfig(profile="hardened"),
        lose=lambda message: isinstance(message, AckMessage),
    )
    harness.tick(0)
    node = harness.nodes[1]
    node._transmit(RemovalProposal(sender_id=1, subject_id=3, frame=0, sequence=990), [2])
    for frame in range(1, 200):
        node.membership.heard_from(2, frame)  # 2 keeps heartbeating
        node.on_frame(frame, snap(1, frame=frame, x=100.0))
        if any(kind == "ack_withhold" for _, _, kind in node.evidence.suspicion_events):
            break
    return (node, 2, 6.0, Confidence.OTHER, float(ACK_RETRY_MAX_ATTEMPTS),
            "retry ladder exhausted against a live destination (ack withholding?)")


CASES = [
    malformed_frame,
    invalid_signature,
    tampering_hop,
    tampering_hop_paper,
    message_flood,
    equivocation,
    verified_evidence,
    forged_evidence,
    direct_update_bypassing_proxy,
    handoff_from_a_non_proxy,
    escaping_client,
    starving_proxy,
    ack_withholding,
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_protocol_violation_rating_is_pinned(case):
    node, subject, rating, confidence, deviation, detail = case()
    matches = [
        r for r in node.metrics.ratings
        if r.detail == detail and r.subject_id == subject
    ]
    assert matches, [r.detail for r in node.metrics.ratings]
    found = matches[0]
    assert found.check is CheckKind.RATE
    assert found.verifier_id == node.player_id
    assert found.frame == node.current_frame
    assert (found.rating, found.confidence, found.deviation) == (
        pytest.approx(rating), confidence, deviation,
    )
