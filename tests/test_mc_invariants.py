"""End-state invariant predicates over synthetic session shapes."""

from __future__ import annotations

from types import SimpleNamespace

from repro.core.config import MIN_RATING
from repro.core.verification import CheckKind, RatingLog
from repro.mc import invariants
from repro.mc.invariants import (
    INVARIANTS,
    equivocator_convicted,
    live_nodes,
    membership_agreement,
    no_false_eviction,
    single_kill_credit,
)


def node(roster=(), ratings=(), removed=()):
    """A node shape whose rating log is a real one, ``ratings`` filed in order."""
    log = RatingLog(0)
    for r in ratings:
        log.file(r.subject_id, r.frame, r.check, MIN_RATING, 1.0, 0.0, r.detail)
    return SimpleNamespace(
        membership=SimpleNamespace(
            current_roster=lambda r=tuple(roster): list(r),
            removed=set(removed),
        ),
        metrics=SimpleNamespace(ratings=log),
    )


def session(nodes, crashed=(), byzantine=()):
    return SimpleNamespace(
        nodes=nodes,
        crashed=set(crashed),
        byzantine_ids=set(byzantine),
    )


def rating(subject_id, frame, detail, check=CheckKind.KILL):
    return SimpleNamespace(
        subject_id=subject_id, frame=frame, detail=detail, check=check
    )


class TestLiveNodes:
    def test_excludes_crashed_and_departed(self):
        # A departure is a crash-stop: one ``CrashFault``, one ``crashed`` book.
        s = session({0: node(), 1: node(), 2: node()}, crashed={1, 2})
        assert set(live_nodes(s)) == {0}

    def test_excludes_byzantine_attackers(self):
        s = session({0: node(), 1: node(), 2: node()}, byzantine={2})
        assert set(live_nodes(s)) == {0, 1}


class TestNoFalseEviction:
    def test_full_rosters_hold(self):
        s = session({0: node((0, 1)), 1: node((0, 1))})
        assert no_false_eviction(s) is None

    def test_missing_live_peer_is_reported(self):
        s = session({0: node((0,)), 1: node((0, 1))})
        message = no_false_eviction(s)
        assert message is not None
        assert "node 0 evicted live player 1" in message

    def test_crashed_peer_may_be_evicted(self):
        s = session({0: node((0, 1)), 1: node((0, 1)), 2: node()}, crashed={2})
        assert no_false_eviction(s) is None


class TestMembershipAgreement:
    def test_identical_rosters_agree(self):
        s = session({0: node((0, 1)), 1: node((1, 0))})  # order-insensitive
        assert membership_agreement(s) is None

    def test_disagreement_is_reported(self):
        s = session({0: node((0, 1)), 1: node((0, 1, 2))})
        message = membership_agreement(s)
        assert message is not None
        assert "disagree" in message

    def test_crashed_nodes_do_not_vote(self):
        s = session({0: node((0, 1)), 1: node((0, 1)), 2: node((9,))}, crashed={2})
        assert membership_agreement(s) is None


class TestSingleKillCredit:
    def test_one_judgement_per_claim(self):
        s = session({0: node(ratings=[rating(1, 10, "consistent kill")])})
        assert single_kill_credit(s) is None

    def test_double_judgement_is_reported(self):
        s = session(
            {
                0: node(
                    ratings=[
                        rating(1, 10, "consistent kill"),
                        rating(1, 10, "distance 3.2 exceeds reach"),
                    ]
                )
            }
        )
        message = single_kill_credit(s)
        assert message is not None
        assert "frame 10" in message and "2 times" in message

    def test_spawn_ratings_do_not_collide_with_claims(self):
        # ProjectileTracker shares CheckKind.KILL but speaks a disjoint
        # detail vocabulary; a spawn and a claim at the same (subject,
        # frame) are legitimate.
        s = session(
            {
                0: node(
                    ratings=[
                        rating(1, 10, "consistent kill"),
                        rating(1, 10, "consistent projectile spawn"),
                    ]
                )
            }
        )
        assert single_kill_credit(s) is None

    def test_distinct_frames_are_distinct_claims(self):
        s = session(
            {
                0: node(
                    ratings=[
                        rating(1, 10, "consistent kill"),
                        rating(1, 14, "consistent kill"),
                    ]
                )
            }
        )
        assert single_kill_credit(s) is None


class TestEquivocatorConvicted:
    def test_vacuous_without_attackers(self):
        s = session({0: node((0, 1))})
        assert equivocator_convicted(s) is None

    def test_every_live_node_must_remove_the_attacker(self):
        s = session(
            {
                0: node((0, 1), removed={2}),
                1: node((0, 1), removed={2}),
                2: node((0, 1, 2)),
            },
            byzantine={2},
        )
        assert equivocator_convicted(s) is None

    def test_missing_conviction_is_reported(self):
        s = session(
            {0: node((0, 1), removed={2}), 1: node((0, 1, 2))},
            byzantine={2},
        )
        message = equivocator_convicted(s)
        assert message is not None
        assert "node 1 never removed equivocator(s) [2]" in message


def test_registry_names_every_invariant():
    assert set(INVARIANTS) == {
        "no_false_eviction",
        "membership_agreement",
        "no_orphaned_subscription",
        "single_kill_credit",
        "equivocator_convicted",
    }


def test_every_invariant_is_exported():
    assert set(INVARIANTS) <= set(invariants.__all__)
