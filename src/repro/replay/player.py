"""The tape player.

**Verify** re-runs the protocol from the tape's own inputs — the embedded
trace, the materialised fault schedule, and the scenario's seeds — through
the exact construction path the recording used, records the fresh run,
and compares the two streams frame by frame.  The first divergent frame
is reported with a structured message-level diff, so a protocol change
that breaks determinism (or byte compatibility) is localised immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.wire import WireError, decode_bytes, encode_message
from repro.replay.recorder import TapeRecorder
from repro.replay.tape import Tape, TapedMessage

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


def compare_tapes(expected: Tape, actual: Tape) -> VerifyResult:
    """Frame-by-frame comparison; stops at the first divergence.

    Digests are compared first (cheap); only the first mismatching frame
    pays for a message-level diff.
    """
    if expected.num_frames != actual.num_frames:
        return VerifyResult(
            clean=False,
            frames=actual.num_frames,
            messages=actual.num_messages,
            divergence=Divergence(
                frame=min(expected.num_frames, actual.num_frames),
                index=None,
                kind="frames",
                expected={"frames": expected.num_frames},
                actual={"frames": actual.num_frames},
            ),
        )
    for frame_expected, frame_actual in zip(expected.frames, actual.frames):
        if frame_expected.digest == frame_actual.digest:
            continue
        if len(frame_expected.messages) != len(frame_actual.messages):
            return VerifyResult(
                clean=False,
                frames=actual.num_frames,
                messages=actual.num_messages,
                divergence=Divergence(
                    frame=frame_expected.frame,
                    index=None,
                    kind="count",
                    expected={"messages": len(frame_expected.messages)},
                    actual={"messages": len(frame_actual.messages)},
                ),
            )
        for index, (msg_expected, msg_actual) in enumerate(
            zip(frame_expected.messages, frame_actual.messages)
        ):
            if msg_expected != msg_actual:
                return VerifyResult(
                    clean=False,
                    frames=actual.num_frames,
                    messages=actual.num_messages,
                    divergence=Divergence(
                        frame=frame_expected.frame,
                        index=index,
                        kind="message",
                        expected=_message_row(msg_expected),
                        actual=_message_row(msg_actual),
                    ),
                )
        # Digests differed but no row did: the digest chain itself was
        # perturbed upstream (a prior frame) — report the frame head-on.
        return VerifyResult(
            clean=False,
            frames=actual.num_frames,
            messages=actual.num_messages,
            divergence=Divergence(
                frame=frame_expected.frame,
                index=None,
                kind="message",
                expected={"digest": frame_expected.digest},
                actual={"digest": frame_actual.digest},
            ),
        )
    return VerifyResult(
        clean=expected.sha256 == actual.sha256,
        frames=actual.num_frames,
        messages=actual.num_messages,
    )


def verify_tape(tape: Tape) -> VerifyResult:
    """Re-simulate from the tape's inputs and diff against its stream."""
    session = tape.scenario.make_session(tape.trace, faults=tape.faults)
    recorder = TapeRecorder(session, tape.scenario, faults=tape.faults)
    recorder.attach()
    session.run()
    fresh = recorder.finalize()
    return compare_tapes(tape, fresh)


def diff_tapes(a: Tape, b: Tape) -> VerifyResult:
    """Structural diff of two already-recorded tapes (no simulation)."""
    return compare_tapes(a, b)
