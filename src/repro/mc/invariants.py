"""Safety invariants the model checker evaluates at the end of a run.

Each invariant is a pure predicate over a finished
:class:`~repro.core.protocol.WatchmenSession`: it returns ``None`` when
the property holds and a human-readable violation description when it
does not.  They are *end-state* properties on purpose — the explorer's
scenarios end with a quiescence tail (no controlled decisions, enough
frames for retransmissions and epoch rollover to settle), so any
violation present at the end is a stable protocol failure rather than a
transient in-flight state.

The checks are deliberately white-box: they reach into node internals
(membership views, subscriber tables, emitted ratings) the way a test
harness would, because the properties are about the *protocol state*, not
about any one node's public API.

* ``no_false_eviction`` — no node that is alive at the end of the run has
  been removed from any live node's membership roster.  The rescind-on-
  liveness guard in :meth:`repro.core.membership.MembershipView.heard_from`
  is what defends this against partition-then-heal schedules.
* ``membership_agreement`` — all live nodes agree on the roster at
  quiescence (eventual agreement, checked after the settle tail).
* ``no_orphaned_subscription`` — every interest subscription a live
  player believes is active is actually registered at *some* live node
  (the target's proxy or a failover candidate).  Measured cause of the
  violations it finds at full scale: ``SubscriptionPlanner.plan`` pushes
  its own expiry forward every frame the target stays in the set and
  re-sends only when that expiry lapses, so a continuously wanted target
  is requested once, while the proxy's entry expires
  ``subscription_retention_frames`` (40) after that one request — the
  subscriber is orphaned with no message lost.
* ``single_kill_credit`` — no node emitted more than one kill-check
  rating for the same (subject, frame): duplicated or replayed
  ``KillClaim`` deliveries must be screened by sequence dedup, never
  double-judged.
* ``equivocator_convicted`` — every honest node's membership view has
  removed every Byzantine attacker at quiescence, no matter how the
  evidence broadcasts were dropped, duplicated or reordered.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from repro.core.protocol import WatchmenSession
from repro.core.verification import CheckKind
from repro.core.node import WatchmenNode

__all__ = [
    "INVARIANTS",
    "equivocator_convicted",
    "live_nodes",
    "membership_agreement",
    "no_false_eviction",
    "no_orphaned_subscription",
    "single_kill_credit",
]

InvariantFn = Callable[[WatchmenSession], "str | None"]


def live_nodes(session: WatchmenSession) -> dict[int, WatchmenNode]:
    """Honest nodes still running at the end of the session.

    Byzantine attackers are excluded: their eviction is the protocol
    working, so honest-safety invariants must not count them as victims,
    and agreement is a property of the honest nodes' views.
    """
    return {
        node_id: node
        for node_id, node in session.nodes.items()
        if node_id not in session.crashed
        and node_id not in session.byzantine_ids
    }


def no_false_eviction(session: WatchmenSession) -> str | None:
    live = live_nodes(session)
    for observer_id, observer in sorted(live.items()):
        roster = set(observer.membership.current_roster())
        for peer_id in sorted(live):
            if peer_id not in roster:
                return (
                    f"node {observer_id} evicted live player {peer_id} "
                    f"(roster: {sorted(roster)})"
                )
    return None


def membership_agreement(session: WatchmenSession) -> str | None:
    live = live_nodes(session)
    rosters = {
        node_id: frozenset(node.membership.current_roster())
        for node_id, node in sorted(live.items())
    }
    if len(set(rosters.values())) <= 1:
        return None
    lines = ", ".join(
        f"{node_id}:{sorted(roster)}" for node_id, roster in rosters.items()
    )
    return f"live nodes disagree on the roster at quiescence ({lines})"


def no_orphaned_subscription(session: WatchmenSession) -> str | None:
    live = live_nodes(session)
    for subscriber_id, subscriber in sorted(live.items()):
        for target_id in sorted(subscriber.planner.active_interest()):
            if target_id not in live:
                continue
            registered = False
            for holder in live.values():
                interest, _ = holder.clients.subscribers_of(
                    target_id, holder.current_frame
                )
                if subscriber_id in interest:
                    registered = True
                    break
            if not registered:
                return (
                    f"player {subscriber_id} believes he is interest-"
                    f"subscribed to {target_id}, but no live node holds "
                    f"the subscription (its entry lapsed or never arrived)"
                )
    return None


#: Detail vocabulary of ``KillVerifier.verify`` — the claim-judgement
#: side of the KILL check family.  ``ProjectileTracker.verify_spawn``
#: shares ``CheckKind.KILL`` but speaks a disjoint vocabulary
#: ("consistent projectile spawn", "speed … vs spec …", "origin … from
#: the shooter"), and a spawn rating at the same (subject, frame) as a
#: claim rating is legitimate — only *claim* judgements must be unique.
_CLAIM_DETAIL_MARKERS = (
    "consistent kill",
    "unknown weapon",
    "distance ",
    "no line of sight",
    "claimed ",
    "kill faster",
    "no matching projectile",
    "closest announced projectile",
)


def _is_claim_judgement(detail: str) -> bool:
    return any(marker in detail for marker in _CLAIM_DETAIL_MARKERS)


def single_kill_credit(session: WatchmenSession) -> str | None:
    for node_id, node in sorted(session.nodes.items()):
        credits = Counter(
            (rating.subject_id, rating.frame)
            for rating in node.metrics.ratings.of_check(CheckKind.KILL)
            if _is_claim_judgement(rating.detail)
        )
        for (subject_id, frame), count in sorted(credits.items()):
            if count > 1:
                return (
                    f"node {node_id} judged the kill claim of player "
                    f"{subject_id} at frame {frame} {count} times "
                    f"(duplicate delivery escaped sequence dedup)"
                )
    return None


def equivocator_convicted(session: WatchmenSession) -> str | None:
    """Every honest node removed every Byzantine attacker at quiescence.

    Evidence broadcasts may be dropped, duplicated or reordered by the
    schedule; the ACK retry ladder plus the idempotent
    :meth:`~repro.core.membership.MembershipView.convict` must still
    deliver exactly one conviction to every honest membership view.
    """
    if not session.byzantine_ids:
        return None
    for node_id, node in sorted(live_nodes(session).items()):
        missing = session.byzantine_ids - node.membership.removed
        if missing:
            return (
                f"node {node_id} never removed equivocator(s) "
                f"{sorted(missing)} (roster: "
                f"{sorted(node.membership.current_roster())})"
            )
    return None


#: name → predicate, the vocabulary scenarios use to declare their checks
INVARIANTS: dict[str, InvariantFn] = {
    "no_false_eviction": no_false_eviction,
    "membership_agreement": membership_agreement,
    "no_orphaned_subscription": no_orphaned_subscription,
    "single_kill_credit": single_kill_credit,
    "equivocator_convicted": equivocator_convicted,
}
