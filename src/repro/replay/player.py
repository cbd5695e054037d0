"""The tape player.

**Verify** re-runs the protocol from the tape's own inputs — the embedded
trace, the materialised fault schedule, and the scenario's seeds — through
the exact construction path the recording used, and holds each fresh
frame against the tape's as soon as the next one begins; a frame that
agrees is dropped, so verify holds one frame of the fresh stream, never a
second tape.  The first divergent frame is reported with a structured
message-level diff, so a protocol change that breaks determinism (or byte
compatibility) is localised immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.wire import WireError, decode_bytes, encode_message
from repro.replay.recorder import TapeRecorder
from repro.replay.tape import DigestChain, Tape, TapedMessage, TapeFrame

__all__ = [
    "Divergence",
    "VerifyResult",
    "verify_tape",
    "compare_tapes",
    "diff_tapes",
]


@dataclass(frozen=True, slots=True)
class Divergence:
    """The first point where two streams disagree."""

    frame: int
    #: index of the first differing message within the frame, or None
    #: when the frame's message *counts* differ
    index: int | None
    kind: str  # "message" | "count" | "frames"
    expected: dict[str, Any] | None
    actual: dict[str, Any] | None

    def describe(self) -> str:
        if self.kind == "frames":
            return (
                f"frame count mismatch: expected "
                f"{(self.expected or {}).get('frames')}, got "
                f"{(self.actual or {}).get('frames')}"
            )
        if self.kind == "count":
            return (
                f"frame {self.frame}: message count mismatch — expected "
                f"{(self.expected or {}).get('messages')}, got "
                f"{(self.actual or {}).get('messages')}"
            )
        return (
            f"frame {self.frame}, message {self.index}: expected "
            f"{self.expected}, got {self.actual}"
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "frame": self.frame,
            "index": self.index,
            "kind": self.kind,
            "expected": self.expected,
            "actual": self.actual,
        }


@dataclass(frozen=True, slots=True)
class VerifyResult:
    """Outcome of one tape verification."""

    clean: bool
    frames: int
    messages: int
    divergence: Divergence | None = None

    def to_json(self) -> dict[str, Any]:
        return {
            "clean": self.clean,
            "frames": self.frames,
            "messages": self.messages,
            "divergence": (
                self.divergence.to_json() if self.divergence is not None else None
            ),
        }


def _message_row(message: TapedMessage) -> dict[str, Any]:
    # Diffs are for humans (and JSON reports): decode the binary frame
    # back to the dict envelope; fall back to hex for alien bytes.
    try:
        payload: Any = encode_message(decode_bytes(message.payload))
    except WireError:
        payload = {"undecodable": message.payload.hex()}
    return {
        "src": message.src,
        "dst": message.dst,
        "size_bytes": message.size_bytes,
        "accepted": message.accepted,
        "payload": payload,
    }


def _frame_divergence(expected: TapeFrame, actual: TapeFrame) -> Divergence | None:
    """How two frames disagree, or None.  Digests are compared first
    (cheap); only a mismatching frame pays for a message-level diff."""
    if expected.digest == actual.digest:
        return None
    if len(expected.messages) != len(actual.messages):
        return Divergence(
            frame=expected.frame,
            index=None,
            kind="count",
            expected={"messages": len(expected.messages)},
            actual={"messages": len(actual.messages)},
        )
    for index, (msg_expected, msg_actual) in enumerate(
        zip(expected.messages, actual.messages)
    ):
        if msg_expected != msg_actual:
            return Divergence(
                frame=expected.frame,
                index=index,
                kind="message",
                expected=_message_row(msg_expected),
                actual=_message_row(msg_actual),
            )
    # Digests differed but no row did: the digest chain itself was
    # perturbed upstream (a prior frame) — report the frame head-on.
    return Divergence(
        frame=expected.frame,
        index=None,
        kind="message",
        expected={"digest": expected.digest},
        actual={"digest": actual.digest},
    )


class _Comparison:
    """Sealed frames held against a tape's as they arrive: the one
    per-frame comparison, fed a whole tape by :func:`compare_tapes` and one
    fresh frame at a time by :func:`verify_tape`."""

    def __init__(self, expected: Tape) -> None:
        self._tape = expected
        self._expected = iter(expected.frames)
        self._first: Divergence | None = None
        self.frames = 0
        self.messages = 0

    def take(self, actual: Iterable[TapeFrame]) -> None:
        for tape_frame in actual:
            self.frames += 1
            self.messages += len(tape_frame.messages)
            expected = next(self._expected, None)
            if self._first is None and expected is not None:
                self._first = _frame_divergence(expected, tape_frame)

    def result(self, sha256: str) -> VerifyResult:
        """The verdict on a stream whose final digest is ``sha256``: a
        frame-count mismatch outranks the first divergent frame."""
        expected, first = self._tape, self._first
        if expected.num_frames != self.frames:
            first = Divergence(
                frame=min(expected.num_frames, self.frames),
                index=None,
                kind="frames",
                expected={"frames": expected.num_frames},
                actual={"frames": self.frames},
            )
        return VerifyResult(
            clean=first is None and expected.sha256 == sha256,
            frames=self.frames,
            messages=self.messages,
            divergence=first,
        )


def compare_tapes(expected: Tape, actual: Tape) -> VerifyResult:
    """Frame-by-frame comparison; only the first divergence is diffed."""
    comparison = _Comparison(expected)
    comparison.take(actual.frames)
    return comparison.result(actual.sha256)


def verify_tape(tape: Tape) -> VerifyResult:
    """Re-simulate from the tape's inputs and diff against its stream."""
    session = tape.scenario.make_session(tape.trace, faults=tape.faults)
    recorder = TapeRecorder(session, tape.scenario, faults=tape.faults)
    chain = DigestChain()
    comparison = _Comparison(tape)

    def take_completed() -> None:
        for tape_frame in recorder.completed_frames():
            chain.seal(tape_frame)
            comparison.take((tape_frame,))

    previous = session.on_frame_begin

    def on_frame_begin(frame: int) -> None:
        # runs once the recorder has opened ``frame``: every earlier frame
        # is complete
        take_completed()
        if previous is not None:
            previous(frame)

    session.on_frame_begin = on_frame_begin
    recorder.attach()
    session.run()
    recorder.detach()
    take_completed()
    return comparison.result(chain.hexdigest())


def diff_tapes(a: Tape, b: Tape) -> VerifyResult:
    """Structural diff of two already-recorded tapes (no simulation)."""
    return compare_tapes(a, b)
