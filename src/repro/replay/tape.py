"""The ``.tape`` format: a match recorded for byte-exact re-verification.

A tape is everything needed to reproduce one protocol run — the scenario
(player count, seeds for every RNG lane, network weather, fault schedule,
cheat roster), the per-frame player inputs (the embedded
:class:`~repro.game.trace.GameTrace`), and the full wire-encoded message
stream the run produced — in one fingerprinted artifact.

Layout (gzip-compressed JSONL, one JSON object per line):

1. **header** — ``format`` / ``version`` tags, the scenario, the
   materialised fault schedule, and ``config_hash`` (SHA-256 over the
   canonical scenario+faults JSON: two tapes with the same hash were
   recorded under identical configuration);
2. **trace rows** — the embedded game trace
   (:meth:`~repro.game.trace.GameTrace.to_json_rows` rows, verbatim);
3. **frame rows** — one per simulated frame, carrying every datagram the
   nodes *offered* to the transport that frame (src, dst, size, local
   acceptance, and the canonical binary wire frame, base64-armoured for
   the JSONL container) plus the running SHA-256 of all frame payloads
   so far;
4. **footer** — totals and the final digest.

Version 2 switched the taped payload from the JSON-dict envelope to the
binary wire frame (:func:`repro.core.wire.encode_bytes`): digests cover
the exact bytes the protocol ships, and the corpus shrinks with them.
Version-1 tapes are rejected — regenerate with ``make tapes``.

The running digest makes tampering localisable: flipping any byte of any
message breaks the digest of that frame and every later one, so integrity
checking reports the *first* corrupted frame.  All JSON is canonical
(sorted keys, compact separators) and gzip is written with ``mtime=0`` so
re-recording the same scenario on the same zlib yields identical bytes.

File I/O note: this module is the replay subsystem's persistence
boundary and is explicitly allowlisted for the ``D104`` lint rule (see
``repro.lint.determinism.FILE_IO_ALLOWLIST``).
"""

from __future__ import annotations

import base64
import binascii
import gzip
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.core.wire import TAG_NAMES
from repro.faults.schedule import FaultSchedule
from repro.game.trace import GameTrace
from repro.replay.scenario import TapeScenario

__all__ = [
    "TAPE_FORMAT",
    "TAPE_VERSION",
    "TapeError",
    "TapeFormatError",
    "TapeIntegrityError",
    "TapedMessage",
    "TapeFrame",
    "Tape",
    "config_hash",
    "write_tape",
    "read_tape",
]

TAPE_FORMAT = "repro.tape.v1"
TAPE_VERSION = 2


class TapeError(ValueError):
    """Base class for anything wrong with a tape artifact."""


class TapeFormatError(TapeError):
    """Unknown format tag, unsupported version, or malformed rows."""


class TapeIntegrityError(TapeError):
    """Stored fingerprints do not match the tape's own content."""

    def __init__(self, message: str, frame: int | None = None) -> None:
        super().__init__(message)
        #: first frame whose digest failed, when localisable
        self.frame = frame


def _canonical(data: Any) -> bytes:
    """Canonical JSON bytes: the only shape digests are computed over."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")


def config_hash(scenario: TapeScenario, faults: FaultSchedule | None) -> str:
    """Fingerprint of the recording configuration (not of the stream)."""
    payload = {
        "version": TAPE_VERSION,
        "scenario": scenario.to_json(),
        "faults": faults.to_json() if faults is not None else None,
    }
    return hashlib.sha256(_canonical(payload)).hexdigest()


@dataclass(frozen=True, slots=True)
class TapedMessage:
    """One datagram as offered to the transport."""

    src: int
    dst: int
    size_bytes: int
    #: False when the transport refused it locally (budget/NAT); the
    #: refusal is part of the run's observable behaviour, so it is taped.
    accepted: bool
    #: the canonical binary wire frame (:func:`repro.core.wire.encode_bytes`)
    payload: bytes

    def digest_bytes(self) -> bytes:
        """The canonical bytes this message contributes to digests: the
        routing envelope as canonical JSON, then the raw wire frame —
        exactly what a node would transmit."""
        return (
            _canonical([self.src, self.dst, self.size_bytes, int(self.accepted)])
            + b"|"
            + self.payload
        )

    def type_name(self) -> str:
        """Message type from the frame's leading tag byte ('?' if alien)."""
        if not self.payload:
            return "?"
        return TAG_NAMES.get(self.payload[0], "?")


@dataclass(slots=True)
class TapeFrame:
    """Every message offered during one simulation frame."""

    frame: int
    messages: list[TapedMessage] = field(default_factory=list)
    #: cumulative SHA-256 over all frame payloads up to and including
    #: this one (hex) — filled by :func:`fingerprint_frames`
    digest: str = ""

    def payload_bytes(self) -> int:
        return sum(m.size_bytes for m in self.messages)


def fingerprint_frames(frames: list[TapeFrame]) -> str:
    """Fill each frame's cumulative digest; returns the final digest."""
    running = hashlib.sha256()
    for tape_frame in frames:
        for message in tape_frame.messages:
            running.update(message.digest_bytes())
            running.update(b"\n")
        running.update(b"frame:%d\n" % tape_frame.frame)
        tape_frame.digest = running.hexdigest()
    return running.hexdigest()


@dataclass(slots=True)
class Tape:
    """A complete recorded match."""

    scenario: TapeScenario
    trace: GameTrace
    frames: list[TapeFrame]
    faults: FaultSchedule | None = None
    #: final cumulative digest (hex); filled by fingerprint()/read_tape
    sha256: str = ""
    version: int = TAPE_VERSION

    def fingerprint(self) -> str:
        """(Re)compute all frame digests and the final fingerprint."""
        self.sha256 = fingerprint_frames(self.frames)
        return self.sha256

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def num_messages(self) -> int:
        return sum(len(f.messages) for f in self.frames)

    @property
    def payload_bytes(self) -> int:
        return sum(f.payload_bytes() for f in self.frames)

    def config_hash(self) -> str:
        return config_hash(self.scenario, self.faults)

    def messages_by_type(self) -> dict[str, int]:
        """Message-type histogram over the whole stream (for inspect)."""
        counts: dict[str, int] = {}
        for tape_frame in self.frames:
            for message in tape_frame.messages:
                kind = message.type_name()
                counts[kind] = counts.get(kind, 0) + 1
        return dict(sorted(counts.items()))


# ---- persistence -----------------------------------------------------------


def _header_row(tape: Tape) -> dict[str, Any]:
    return {
        "kind": "header",
        "format": TAPE_FORMAT,
        "version": tape.version,
        "config_hash": tape.config_hash(),
        "scenario": tape.scenario.to_json(),
        "faults": tape.faults.to_json() if tape.faults is not None else None,
    }


def write_tape(tape: Tape, path: str | Path) -> Path:
    """Serialize (recomputing fingerprints) to gzip JSONL at ``path``."""
    tape.fingerprint()
    lines: list[bytes] = [_canonical(_header_row(tape))]
    lines.extend(_canonical({"kind": "trace", "row": row})
                 for row in tape.trace.to_json_rows())
    for tape_frame in tape.frames:
        lines.append(_canonical({
            "kind": "frame",
            "frame": tape_frame.frame,
            "digest": tape_frame.digest,
            "messages": [
                [
                    m.src,
                    m.dst,
                    m.size_bytes,
                    int(m.accepted),
                    base64.b64encode(m.payload).decode("ascii"),
                ]
                for m in tape_frame.messages
            ],
        }))
    lines.append(_canonical({
        "kind": "end",
        "frames": tape.num_frames,
        "messages": tape.num_messages,
        "payload_bytes": tape.payload_bytes,
        "sha256": tape.sha256,
    }))
    body = b"\n".join(lines) + b"\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the gzip container deterministic across runs.
    path.write_bytes(gzip.compress(body, compresslevel=9, mtime=0))
    return path


def _iter_rows(path: Path) -> Iterator[dict[str, Any]]:
    try:
        raw = path.read_bytes()
    except OSError as error:
        # Unreadable path: an invocation problem, not a corrupt recording.
        raise TapeFormatError(f"{path}: cannot read tape: {error}") from error
    try:
        body = gzip.decompress(raw)
    except (OSError, EOFError, gzip.BadGzipFile) as error:
        raise TapeIntegrityError(f"{path}: not a readable tape: {error}") from error
    for lineno, line in enumerate(body.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as error:
            raise TapeIntegrityError(
                f"{path}: line {lineno} is not valid JSON: {error}"
            ) from error
        if not isinstance(row, dict) or "kind" not in row:
            raise TapeFormatError(f"{path}: line {lineno} has no 'kind' tag")
        yield row


def _check_header(path: Path, row: dict[str, Any]) -> None:
    if row.get("kind") != "header":
        raise TapeFormatError(f"{path}: first row must be the header")
    if row.get("format") != TAPE_FORMAT:
        raise TapeFormatError(
            f"{path}: unknown tape format {row.get('format')!r} "
            f"(expected {TAPE_FORMAT})"
        )
    if row.get("version") != TAPE_VERSION:
        raise TapeFormatError(
            f"{path}: unsupported tape version {row.get('version')!r} "
            f"(this reader speaks version {TAPE_VERSION})"
        )


def read_tape(path: str | Path) -> Tape:
    """Load a tape, recomputing every fingerprint.

    Raises :class:`TapeFormatError` for version/format problems and
    :class:`TapeIntegrityError` (carrying the first bad frame) when the
    stored digests do not match the content.
    """
    path = Path(path)
    header: dict[str, Any] | None = None
    trace_rows: list[dict[str, Any]] = []
    frames: list[TapeFrame] = []
    stored_digests: list[str] = []
    footer: dict[str, Any] | None = None
    for row in _iter_rows(path):
        if header is None:
            _check_header(path, row)
            header = row
            continue
        kind = row["kind"]
        if kind == "trace":
            trace_rows.append(row["row"])
        elif kind == "frame":
            try:
                messages = [
                    TapedMessage(
                        src=entry[0],
                        dst=entry[1],
                        size_bytes=entry[2],
                        accepted=bool(entry[3]),
                        payload=base64.b64decode(
                            entry[4].encode("ascii"), validate=True
                        ),
                    )
                    for entry in row["messages"]
                ]
                frames.append(TapeFrame(frame=row["frame"], messages=messages))
                stored_digests.append(row["digest"])
            except (
                KeyError,
                IndexError,
                TypeError,
                AttributeError,
                UnicodeEncodeError,
                binascii.Error,
            ) as error:
                raise TapeFormatError(
                    f"{path}: malformed frame row: {error}"
                ) from error
        elif kind == "end":
            footer = row
        else:
            raise TapeFormatError(f"{path}: unknown row kind {kind!r}")
    if header is None:
        raise TapeFormatError(f"{path}: empty tape")
    if footer is None:
        raise TapeIntegrityError(f"{path}: truncated tape (no footer)")

    try:
        scenario = TapeScenario.from_json(header["scenario"])
    except (KeyError, TypeError, ValueError) as error:
        raise TapeFormatError(f"{path}: bad scenario in header: {error}") from error
    faults = (
        FaultSchedule.from_json(header["faults"])
        if header.get("faults") is not None
        else None
    )
    try:
        trace = GameTrace.from_json_rows(trace_rows)
    except (ValueError, KeyError, TypeError) as error:
        raise TapeFormatError(f"{path}: bad embedded trace: {error!r}") from error

    tape = Tape(
        scenario=scenario,
        trace=trace,
        frames=frames,
        faults=faults,
        version=header["version"],
    )
    tape.fingerprint()

    expected_hash = header.get("config_hash")
    if expected_hash != tape.config_hash():
        raise TapeIntegrityError(
            f"{path}: config_hash mismatch — header says "
            f"{str(expected_hash)[:12]}…, content hashes to "
            f"{tape.config_hash()[:12]}…"
        )
    for tape_frame, stored in zip(frames, stored_digests):
        if tape_frame.digest != stored:
            raise TapeIntegrityError(
                f"{path}: frame {tape_frame.frame} digest mismatch "
                f"(stored {stored[:12]}…, recomputed "
                f"{tape_frame.digest[:12]}…)",
                frame=tape_frame.frame,
            )
    if footer.get("sha256") != tape.sha256:
        raise TapeIntegrityError(
            f"{path}: footer fingerprint mismatch (stored "
            f"{str(footer.get('sha256'))[:12]}…, recomputed "
            f"{tape.sha256[:12]}…)"
        )
    if footer.get("frames") != tape.num_frames:
        raise TapeIntegrityError(
            f"{path}: footer says {footer.get('frames')} frames, "
            f"tape carries {tape.num_frames}"
        )
    return tape
