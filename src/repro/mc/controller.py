"""Delivery-schedule controller: message ordering as a decision point.

The model checker needs to *choose* the order in which a small set of
protocol messages is delivered, while everything else about the run —
game trace, RNG lanes, periodic updates — stays bit-identical.  The
:class:`McController` does this by hooking
:class:`repro.net.transport.DatagramNetwork`: sends of *controlled*
message types inside the decision *window* are captured instead of being
scheduled through the latency model, and are released at the start of
subsequent frames under an explicit decision loop.

Each flush iteration is one **decision point**: the controller computes
the set of enabled actions over the messages that are ready, then either
follows the next entry of its *schedule* (the explorer's chosen prefix,
or a counterexample tape's recorded choices) or applies the default
policy — deliver the first message in canonical order.  Beyond plain
delivery reordering, bounded fault decisions widen the space:

* ``("drop", id)`` — discard the message (at most ``drop_budget`` times),
* ``("dup", id)`` — deliver it *and* re-enqueue a copy for another
  decision (at most ``dup_budget`` times),
* ``("defer", id)`` — push it to the next frame (at most ``defer_limit``
  times per message, so the loop always terminates, and at most
  ``defer_budget`` times per execution when a budget is set — per-message
  limits alone let the schedule space grow as 2^messages).

Determinism contract: for a fixed session and a fixed schedule prefix,
the sequence of decision points — enabled sets and all — is identical on
every run.  The explorer relies on this to branch (it replays a prefix
and substitutes one choice), and counterexample tapes rely on it to
reproduce a violation from the recorded schedule alone.  When a
scheduled action is not enabled (possible only if the tree changed since
the tape was recorded), the controller falls back to the default policy
and counts the mismatch instead of crashing — the tape verifier then
reports the divergence through fingerprints, which is the signal CI
wants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.core.protocol import WatchmenSession
from repro.core.wire import TAG_NAMES
from repro.net.transport import DatagramNetwork, ScheduleController

__all__ = ["Action", "McDecision", "McController"]

#: one choice: ``(action, capture_id)`` with action in
#: {"deliver", "drop", "dup", "defer"}
Action = tuple[str, int]


@dataclass(slots=True)
class _Captured:
    """One intercepted send awaiting a delivery decision."""

    capture_id: int
    src: int
    dst: int
    frame: bytes
    sent_at: float
    type_name: str
    ready_at: int
    defers: int = 0

    def canonical_key(self) -> tuple[int, int, int, str, int]:
        """Deterministic ordering independent of capture timing jitter."""
        return (self.ready_at, self.src, self.dst, self.type_name, self.capture_id)


@dataclass(frozen=True, slots=True)
class McDecision:
    """One decision point: what was possible and what was chosen."""

    frame: int
    enabled: tuple[Action, ...]
    chosen: Action

    def to_json(self) -> dict[str, Any]:
        return {
            "frame": self.frame,
            "enabled": [list(a) for a in self.enabled],
            "chosen": list(self.chosen),
        }


class McController(ScheduleController):
    """Capture controlled sends and release them under an explicit schedule."""

    def __init__(
        self,
        controlled: Sequence[str],
        window: tuple[int, int],
        drop_budget: int = 0,
        dup_budget: int = 0,
        defer_limit: int = 0,
        defer_budget: int | None = None,
        controlled_src: Sequence[int] | None = None,
        schedule: Sequence[Action] = (),
    ) -> None:
        if window[0] >= window[1]:
            raise ValueError("decision window must be non-empty")
        self.controlled = frozenset(controlled)
        #: restrict decision points to sends from these nodes (None = all);
        #: scenarios use this to keep messages that cannot influence the
        #: checked invariant out of the schedule space
        self.controlled_src = (
            None if controlled_src is None else frozenset(int(s) for s in controlled_src)
        )
        self.window = (int(window[0]), int(window[1]))
        self.drop_budget = int(drop_budget)
        self.dup_budget = int(dup_budget)
        self.defer_limit = int(defer_limit)
        self.defer_budget = None if defer_budget is None else int(defer_budget)
        self.schedule: tuple[Action, ...] = tuple(
            (str(action), int(cid)) for action, cid in schedule
        )
        self.decisions: list[McDecision] = []
        #: scheduled actions that were not enabled when their turn came;
        #: nonzero means the tree diverged from the schedule's origin
        self.fallbacks = 0
        self.captured = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.deferred = 0
        #: capture_id → (src, dst, type_name); the explorer's independence
        #: relation needs destination and message type per decision id
        self.meta: dict[int, tuple[int, int, str]] = {}
        self._network: DatagramNetwork | None = None
        self._pending: list[_Captured] = []
        self._frame = -1
        self._next_id = 0
        self._script_pos = 0
        self._drops_used = 0
        self._dups_used = 0
        self._defers_used = 0

    # ---- wiring ----------------------------------------------------------

    def install(self, session: WatchmenSession) -> None:
        """Attach to the session's network and frame-begin hook.

        Must run before any recorder/verifier hooks attach so both the
        record and verify paths end up with the identical chain:
        recorder bookkeeping first, then the controller's flush.
        """
        self._network = session.network
        session.network.attach_controller(self)
        previous = session.on_frame_begin

        def hook(frame: int) -> None:
            if previous is not None:
                previous(frame)
            self.begin_frame(frame)

        session.on_frame_begin = hook

    # ---- ScheduleController ----------------------------------------------

    def intercept(self, src: int, dst: int, frame: bytes) -> bool:
        network = self._network
        if network is None:
            return False
        if not self.window[0] <= self._frame < self.window[1]:
            return False
        if self.controlled_src is not None and src not in self.controlled_src:
            return False
        type_name = TAG_NAMES.get(frame[0])
        if type_name not in self.controlled:
            return False
        self._pending.append(
            _Captured(
                capture_id=self._next_id,
                src=src,
                dst=dst,
                frame=frame,
                sent_at=network.queue.now,
                type_name=type_name,
                ready_at=self._frame + 1,
            )
        )
        self.meta[self._next_id] = (src, dst, type_name)
        self._next_id += 1
        self.captured += 1
        return True

    # ---- decision loop ---------------------------------------------------

    def begin_frame(self, frame: int) -> None:
        self._frame = frame
        while True:
            ready = sorted(
                (e for e in self._pending if e.ready_at <= frame),
                key=_Captured.canonical_key,
            )
            if not ready:
                return
            enabled = self._enabled_actions(ready)
            chosen = self._choose(enabled)
            self.decisions.append(
                McDecision(frame=frame, enabled=tuple(enabled), chosen=chosen)
            )
            self._apply(chosen, frame)

    def _enabled_actions(self, ready: list[_Captured]) -> list[Action]:
        """All actions available at this decision point, default first.

        Delivery is offered for every ready message (reordering is the
        point), but fault actions are offered only for the *head* of the
        canonical order.  This loses nothing: to fault message ``e``
        after delivering ``f``, take the deliver-``f`` reorder branch
        first — ``e`` is then the head of its own decision point.  It
        removes an entire axis of redundancy, because "defer ``e`` now"
        and "deliver three other messages, then defer ``e``" are the
        same execution whenever the deliveries commute.
        """
        enabled: list[Action] = [("deliver", e.capture_id) for e in ready]
        head = ready[0]
        if (
            self.defer_limit > 0
            and head.defers < self.defer_limit
            and (
                self.defer_budget is None
                or self._defers_used < self.defer_budget
            )
        ):
            enabled.append(("defer", head.capture_id))
        if self._drops_used < self.drop_budget:
            enabled.append(("drop", head.capture_id))
        if self._dups_used < self.dup_budget:
            enabled.append(("dup", head.capture_id))
        return enabled

    def _choose(self, enabled: list[Action]) -> Action:
        if self._script_pos < len(self.schedule):
            scripted = self.schedule[self._script_pos]
            self._script_pos += 1
            if scripted in enabled:
                return scripted
            self.fallbacks += 1
        return enabled[0]

    def _apply(self, chosen: Action, frame: int) -> None:
        action, capture_id = chosen
        entry = next(e for e in self._pending if e.capture_id == capture_id)
        network = self._network
        assert network is not None  # install() ran before any frame hook
        if action == "deliver":
            self._pending.remove(entry)
            self.delivered += 1
            network.deliver_captured(entry.src, entry.dst, entry.frame, entry.sent_at)
        elif action == "drop":
            self._pending.remove(entry)
            self._drops_used += 1
            self.dropped += 1
            network.drop_captured()
        elif action == "dup":
            self._dups_used += 1
            self.duplicated += 1
            self.delivered += 1
            network.deliver_captured(entry.src, entry.dst, entry.frame, entry.sent_at)
            self._pending.remove(entry)
            self._pending.append(
                _Captured(
                    capture_id=self._next_id,
                    src=entry.src,
                    dst=entry.dst,
                    frame=entry.frame,
                    sent_at=entry.sent_at,
                    type_name=entry.type_name,
                    ready_at=frame,
                )
            )
            self.meta[self._next_id] = (entry.src, entry.dst, entry.type_name)
            self._next_id += 1
        elif action == "defer":
            entry.ready_at = frame + 1
            entry.defers += 1
            self._defers_used += 1
            self.deferred += 1
        else:
            raise ValueError(f"unknown schedule action {action!r}")

    # ---- introspection ---------------------------------------------------

    def choices(self) -> tuple[Action, ...]:
        """The decision sequence this run actually took."""
        return tuple(d.chosen for d in self.decisions)

    def stats(self) -> dict[str, int]:
        return {
            "captured": self.captured,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "deferred": self.deferred,
            "decisions": len(self.decisions),
            "fallbacks": self.fallbacks,
        }

    # ---- serialisation ---------------------------------------------------

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "McController":
        """Rebuild from a tape scenario's ``mc`` mapping.

        The ``config`` key (WatchmenConfig overrides) is consumed by
        :meth:`repro.replay.scenario.TapeScenario.make_config`, not here.
        """
        window = data["window"]
        raw_defer_budget = data.get("defer_budget")
        return McController(
            controlled=tuple(str(name) for name in data["controlled"]),
            window=(int(window[0]), int(window[1])),
            drop_budget=int(data.get("drop_budget", 0)),
            dup_budget=int(data.get("dup_budget", 0)),
            defer_limit=int(data.get("defer_limit", 0)),
            defer_budget=None if raw_defer_budget is None else int(raw_defer_budget),
            controlled_src=data.get("controlled_src"),
            schedule=tuple(
                (str(action), int(cid))
                for action, cid in data.get("schedule", ())
            ),
        )
