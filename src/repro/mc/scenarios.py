"""Model-checking scenarios: small, shrunken protocol situations.

A :class:`McScenario` bundles everything one bounded exploration needs: a
deterministic base :class:`~repro.replay.scenario.TapeScenario` (small
roster, zero ambient loss, LAN latency — the *only* nondeterminism left
is the delivery schedule), the controlled message types and decision
window, the fault budgets, the invariants to check, and optional
:class:`~repro.faults.schedule.FaultSchedule` entries (a partition for
the eviction scenario).

The configs are *shrunk*: proxy epochs and silence thresholds are pulled
down so that an entire handoff or eviction round fits inside a horizon
the explorer can enumerate exhaustively.  The shrunken values respect
every :class:`~repro.core.config.WatchmenConfig` validation invariant
(failover still precedes eviction, retries still fit the window), so the
protocol logic being explored is the same one the full-scale defaults
run — only the clock is faster.

Every execution of a scenario ends with a **quiescence tail**: the
decision window closes well before the last frame, leaving room for ACK
retransmissions, epoch rollover and membership settling.  The invariants
in :mod:`repro.mc.invariants` are end-state properties and rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.core.messages import (
    HandoffMessage,
    KillClaim,
    MisbehaviorEvidence,
    RemovalProposal,
    SubscriptionRequest,
)
from repro.faults.byzantine import EquivocationFault
from repro.faults.schedule import FaultSchedule, PartitionFault
from repro.mc.controller import Action
from repro.replay.scenario import TapeScenario

__all__ = ["McScenario", "SCENARIOS", "scenario_by_name"]


@dataclass(frozen=True)
class McScenario:
    """One bounded-exploration setup: base run + decision envelope."""

    name: str
    description: str
    base: TapeScenario
    controlled: tuple[str, ...]
    window: tuple[int, int]
    invariants: tuple[str, ...]
    config: Mapping[str, Any] = field(default_factory=dict)
    faults: FaultSchedule | None = None
    drop_budget: int = 0
    dup_budget: int = 0
    defer_limit: int = 0
    #: total defers per execution; None lets every message use its limit
    defer_budget: int | None = None
    #: capture only sends from these nodes (None = all senders)
    controlled_src: tuple[int, ...] | None = None
    #: exploration budget: executions before the explorer gives up
    max_executions: int = 256

    def mc_json(self, schedule: tuple[Action, ...] = ()) -> dict[str, Any]:
        """The ``mc`` envelope a tape scenario (and its tapes) carries."""
        return {
            "config": dict(self.config),
            "controlled": sorted(self.controlled),
            "window": [self.window[0], self.window[1]],
            "drop_budget": self.drop_budget,
            "dup_budget": self.dup_budget,
            "defer_limit": self.defer_limit,
            "defer_budget": self.defer_budget,
            "controlled_src": (
                None if self.controlled_src is None else sorted(self.controlled_src)
            ),
            "schedule": [list(action) for action in schedule],
        }

    def tape_scenario(self, schedule: tuple[Action, ...] = ()) -> TapeScenario:
        """The base scenario with this envelope (and schedule) embedded."""
        return replace(self.base, mc=self.mc_json(schedule))


def _names(*types: type) -> tuple[str, ...]:
    return tuple(t.__name__ for t in types)


#: Proxy handoff vs subscription routing: three players, epochs shrunk to
#: 16 frames so the window straddles two handoffs.  Subscription requests
#: relay through the sender's proxy to the target's proxy while the
#: target's proxy *changes underneath the relay*; one drop and one defer
#: are enough to exercise the late-registration and retransmission paths.
_HANDOFF = McScenario(
    name="handoff-subscription",
    description=(
        "subscription relay racing proxy handoff across two shrunken epochs"
    ),
    base=TapeScenario(
        players=3,
        frames=96,
        seed=11,
        latency="lan",
        loss_rate=0.0,
        jitter_ms=0.0,
    ),
    controlled=_names(SubscriptionRequest, HandoffMessage),
    window=(12, 36),
    invariants=("no_orphaned_subscription", "membership_agreement"),
    config={"proxy_period_frames": 16},
    drop_budget=1,
    defer_limit=1,
)

#: Crash-then-heal eviction quorum: four players, one of them cut off by
#: a partition for longer than the shrunken membership silence threshold,
#: healing before the removal epoch applies.  Four is the smallest roster
#: where the liveness-challenge defense can work at all: with three, both
#: surviving nodes are the subject's first-hop acceptors, which the
#: defense burst deliberately skips.  The silence trips at frame 40, so
#: every proposal is sent then; the window closes before the frame-44 ACK
#: retransmissions (pure echoes of already-captured sends).  Deferring
#: and dropping the proposals probes the quorum bookkeeping across
#: frames; the rescind-on-liveness guard in
#: ``MembershipView.heard_from`` is what keeps every interleaving
#: eviction-free.  The partitioned node's own proposals (it suspects the
#: entire live side at once) can never reach quorum — one proposer of
#: four — so ``controlled_src`` leaves them to the ordinary network,
#: where the partition drops them, instead of tripling the schedule
#: space with decisions that cannot influence the invariant.
_EVICTION = McScenario(
    name="crash-eviction",
    description=(
        "partition-then-heal removal quorum under proposal reordering"
    ),
    base=TapeScenario(
        players=4,
        frames=96,
        seed=7,
        latency="lan",
        loss_rate=0.0,
        jitter_ms=0.0,
    ),
    controlled=_names(RemovalProposal),
    window=(39, 43),
    invariants=("no_false_eviction", "membership_agreement"),
    config={
        "proxy_period_frames": 24,
        "proxy_silence_threshold_frames": 12,
        "membership_silence_frames": 20,
    },
    faults=FaultSchedule(
        partitions=(
            PartitionFault(
                group_a=frozenset({3}),
                group_b=frozenset({0, 1, 2}),
                start_frame=20,
                end_frame=42,
            ),
        ),
    ),
    drop_budget=1,
    defer_limit=2,
    defer_budget=2,
    controlled_src=(0, 1, 2),
    max_executions=1500,
)

#: Kill-claim duplication: three players in close quarters so kills occur
#: early; one duplication plus deferrals checks that sequence dedup
#: screens the copy on every interleaving instead of double-judging.
_KILL = McScenario(
    name="kill-claim",
    description="duplicated kill claims must earn exactly one judgement",
    base=TapeScenario(
        players=3,
        frames=100,
        seed=5,
        latency="lan",
        loss_rate=0.0,
        jitter_ms=0.0,
    ),
    controlled=_names(KillClaim),
    window=(0, 80),
    invariants=("single_kill_credit",),
    dup_budget=1,
    defer_limit=1,
)

#: Equivocation-evidence quorum: four players, one equivocating for half
#: a shrunken epoch.  Every witness broadcasts one self-certifying
#: :class:`~repro.core.messages.MisbehaviorEvidence`; the explorer drops,
#: duplicates and reorders those broadcasts.  The properties under test:
#: duplicate or reordered evidence convicts *exactly once* (the first
#: conviction pins the removal epoch; ``MembershipView.convict`` is
#: idempotent), dropped evidence is healed by the ACK retry ladder, and
#: every honest node ends on the same roster — with the equivocator gone
#: — regardless of which witness's evidence arrived first.  The
#: equivocator's frames straddle an epoch boundary on purpose, so
#: different witnesses pin *different* due epochs; agreement must still
#: hold at quiescence.  ``controlled_src`` confines the decision space to
#: witness 0's broadcasts — the other witnesses' evidence rides the
#: ordinary network, already convicting everyone, so the explorer probes
#: the *redundant* lane: every way of dropping, duplicating or delaying
#: one witness's evidence against a backdrop of competing evidence, which
#: is exactly where a non-idempotent convict() or a rescindable
#: conviction would diverge.  Keeping the space single-witness is what
#: lets the exploration complete exhaustively under CI's coverage gate.
_EVIDENCE = McScenario(
    name="equivocation-evidence",
    description=(
        "duplicated and reordered misbehavior evidence must convict the "
        "equivocator exactly once, on every honest node"
    ),
    base=TapeScenario(
        players=4,
        frames=96,
        seed=9,
        latency="lan",
        loss_rate=0.0,
        jitter_ms=0.0,
    ),
    controlled=_names(MisbehaviorEvidence),
    window=(20, 44),
    invariants=(
        "no_false_eviction",
        "membership_agreement",
        "equivocator_convicted",
    ),
    config={"proxy_period_frames": 24, "profile": "hardened"},
    faults=FaultSchedule(
        byzantine=(
            EquivocationFault(node_id=3, start_frame=20, end_frame=32),
        ),
        seed=9,
    ),
    drop_budget=1,
    dup_budget=1,
    defer_limit=2,
    defer_budget=2,
    controlled_src=(0,),
    max_executions=1500,
)

SCENARIOS: tuple[McScenario, ...] = (_HANDOFF, _EVICTION, _KILL, _EVIDENCE)


def scenario_by_name(name: str) -> McScenario:
    for scenario in SCENARIOS:
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in SCENARIOS)
    raise ValueError(f"unknown mc scenario {name!r} (known: {known})")
