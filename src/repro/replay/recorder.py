"""The tape recorder: pure observation of a live Watchmen session.

:class:`TapeRecorder` attaches to a session through two hooks that exist
for exactly this purpose — ``session.on_frame_begin`` (frame boundaries)
and ``session.network.send_taps`` (every datagram offered to the
transport, with its local acceptance outcome).  Neither hook perturbs the
run: a taped session is bit-identical to an untapped one, which is what
lets verify mode compare streams byte for byte.

Recording is two-phase.  During the run the tap only appends
``(src, dst, frame, accepted)`` tuples — the very ``bytes`` the transport
was handed, so a tape row is what crossed the wire and costs one list
append per datagram.  Conversion and digest chaining happen after the
frame loop, in :meth:`TapeRecorder.finalize`; that is how record mode
stays within its ≤10 % frame-loop overhead budget.  Either way the stream
is held once: each frame's tuples are released as that frame is converted,
and :meth:`TapeRecorder.completed_frames` hands frames over while the run
is still going (verify mode checks each one and drops it).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterator

from repro.obs.registry import get_registry
from repro.replay.scenario import TapeScenario
from repro.replay.tape import Tape, TapedMessage, TapeFrame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.protocol import WatchmenSession
    from repro.faults.schedule import FaultSchedule

__all__ = ["TapeRecorder", "record_session"]


class TapeRecorder:
    """Captures one session run into a :class:`~repro.replay.tape.Tape`."""

    def __init__(
        self,
        session: "WatchmenSession",
        scenario: TapeScenario,
        faults: "FaultSchedule | None" = None,
    ) -> None:
        self.session = session
        self.scenario = scenario
        self.faults = faults
        self._frames: deque[tuple[int, list[tuple[int, int, bytes, bool]]]] = deque()
        self._current: list[tuple[int, int, bytes, bool]] = []
        self._attached = False
        self._finalized = False
        obs = get_registry()
        self._ctr_messages = obs.counter("tape.messages")
        self._ctr_bytes = obs.counter("tape.bytes")
        self._gauge_frames = obs.gauge("tape.frames")

    # ---- hooks -------------------------------------------------------------

    def attach(self) -> "TapeRecorder":
        """Hook into the session; idempotent, chains any existing hook."""
        if self._attached:
            return self
        previous = self.session.on_frame_begin

        def on_frame_begin(frame: int) -> None:
            self._begin_frame(frame)
            if previous is not None:
                previous(frame)

        self.session.on_frame_begin = on_frame_begin
        self.session.network.send_taps.append(self._tap)
        self._attached = True
        return self

    def detach(self) -> None:
        taps = self.session.network.send_taps
        if self._tap in taps:
            taps.remove(self._tap)
        self._attached = False

    def _begin_frame(self, frame: int) -> None:
        self._current = []
        self._frames.append((frame, self._current))

    def _tap(self, src: int, dst: int, frame: bytes, accepted: bool) -> None:
        # Sends fired from delivery callbacks between ticks land on the
        # last-started frame — the same attribution record and verify use,
        # so frame-level comparison stays deterministic.
        self._current.append((src, dst, frame, accepted))

    # ---- hand-over ---------------------------------------------------------

    def completed_frames(self) -> Iterator[TapeFrame]:
        """Every captured frame no send can still join — all but the newest
        while attached — converted, in order, each frame's tuples released
        as it is converted."""
        frames = self._frames
        for _ in range(len(frames) - (1 if self._attached else 0)):
            frame_index, raw = frames.popleft()
            yield TapeFrame(
                frame=frame_index,
                messages=[
                    TapedMessage(
                        src=src,
                        dst=dst,
                        size_bytes=len(frame),
                        accepted=accepted,
                        payload=frame,
                    )
                    for src, dst, frame, accepted in raw
                ],
            )

    def finalize(self) -> Tape:
        """Detach and fingerprint the captured stream."""
        if self._finalized:
            raise RuntimeError("recorder already finalized")
        self._finalized = True
        self.detach()
        tape = Tape(
            scenario=self.scenario,
            trace=self.session.trace,
            frames=list(self.completed_frames()),
            faults=self.faults,
        )
        tape.fingerprint()
        self._ctr_messages.inc(tape.num_messages)
        self._ctr_bytes.inc(tape.payload_bytes)
        self._gauge_frames.set(tape.num_frames)
        return tape


def record_session(scenario: TapeScenario) -> Tape:
    """Simulate, run, and record one scenario end to end."""
    game_map = scenario.make_map()
    trace = scenario.make_trace(game_map)
    faults = scenario.make_faults(trace.player_ids())
    session = scenario.make_session(trace, faults=faults, game_map=game_map)
    recorder = TapeRecorder(session, scenario, faults=faults)
    recorder.attach()
    session.run()
    return recorder.finalize()
