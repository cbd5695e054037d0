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
Both directions stream: :func:`write_tape` and :func:`read_tape` hold one
row beyond the tape itself (docs/REPLAY.md, "Memory").

File I/O note: this module is the replay subsystem's persistence
boundary and is explicitly allowlisted for the ``D104`` lint rule (see
``repro.lint.determinism.FILE_IO_ALLOWLIST``).
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Iterator

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
    "DigestChain",
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


#: what ``json.dumps(data, sort_keys=True, separators=(",", ":"))`` builds
#: per call, built once: every message's digest passes through it
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(data: Any) -> bytes:
    """Canonical JSON bytes: the only shape digests are computed over."""
    return _CANONICAL.encode(data).encode("utf-8")


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
        exactly what a node would transmit.  The envelope is four ints, so
        it is formatted directly: the bytes ``_canonical`` would give."""
        return b"[%d,%d,%d,%d]|" % (
            self.src, self.dst, self.size_bytes, self.accepted
        ) + self.payload

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
    #: this one (hex) — filled by :meth:`DigestChain.seal`
    digest: str = ""

    def payload_bytes(self) -> int:
        return sum(m.size_bytes for m in self.messages)


class DigestChain:
    """The running SHA-256 over a stream of frames: the one statement of
    the frame-digest rule.  Each message adds its
    :meth:`TapedMessage.digest_bytes` and a newline, each frame closes with
    ``frame:<n>``, and a frame's digest is the running state after it —
    cumulative, so it fingerprints every frame up to and including this one.
    """

    __slots__ = ("_running",)

    def __init__(self) -> None:
        self._running = hashlib.sha256()

    def seal(self, tape_frame: TapeFrame) -> str:
        """Chain ``tape_frame`` in and stamp it with the running digest."""
        running = self._running
        for message in tape_frame.messages:
            running.update(message.digest_bytes())
            running.update(b"\n")
        running.update(b"frame:%d\n" % tape_frame.frame)
        tape_frame.digest = running.hexdigest()
        return tape_frame.digest

    def hexdigest(self) -> str:
        """The digest of everything chained so far (the tape's fingerprint)."""
        return self._running.hexdigest()


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
        chain = DigestChain()
        for tape_frame in self.frames:
            chain.seal(tape_frame)
        self.sha256 = chain.hexdigest()
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


def _armour(armoured: dict[bytes, str], payload: bytes) -> str:
    """``payload`` in base64 for the JSONL container, encoded once per
    distinct payload in ``armoured`` (a fan-out hands every destination the
    same frame)."""
    text = armoured.get(payload)
    if text is None:
        text = armoured[payload] = base64.b64encode(payload).decode("ascii")
    return text


def write_tape(tape: Tape, path: str | Path) -> Path:
    """Serialize to gzip JSONL at ``path`` row by row, recomputing the
    fingerprints as the frames go by: one row is held at a time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    chain = DigestChain()
    # wbits=31: zlib writes the gzip header (mtime 0) and trailer itself,
    # and deflate's output does not depend on how its input is chunked, so
    # re-recording the same scenario on the same zlib yields identical bytes.
    deflate = zlib.compressobj(9, zlib.DEFLATED, 31)
    with path.open("wb") as out:

        def emit(row: dict[str, Any]) -> None:
            out.write(deflate.compress(_canonical(row)))
            out.write(deflate.compress(b"\n"))

        emit(_header_row(tape))
        for row in tape.trace.to_json_rows():
            emit({"kind": "trace", "row": row})
        for tape_frame in tape.frames:
            armoured: dict[bytes, str] = {}
            emit({
                "kind": "frame",
                "frame": tape_frame.frame,
                "digest": chain.seal(tape_frame),
                "messages": [
                    [
                        m.src,
                        m.dst,
                        m.size_bytes,
                        int(m.accepted),
                        _armour(armoured, m.payload),
                    ]
                    for m in tape_frame.messages
                ],
            })
        tape.sha256 = chain.hexdigest()
        emit({
            "kind": "end",
            "frames": tape.num_frames,
            "messages": tape.num_messages,
            "payload_bytes": tape.payload_bytes,
            "sha256": tape.sha256,
        })
        out.write(deflate.flush())
    return path


#: compressed bytes read per inflate step
_READ_CHUNK = 1 << 16


class _Inflater:
    """One gzip member, inflated chunk by chunk and split into lines.

    zlib parses the header and checks the CRC-32 and the length itself
    (``wbits=31``).  Every fault of the container — a bad header or deflate
    block, a failed check, a stream that ends early, bytes after it — is a
    :class:`TapeIntegrityError`.
    """

    def __init__(self, path: Path, handle: BinaryIO) -> None:
        self._path = path
        self._handle = handle
        self._stream = zlib.decompressobj(wbits=31)

    def _chunks(self) -> Iterator[bytes]:
        stream = self._stream
        while not stream.eof:
            raw = self._handle.read(_READ_CHUNK)
            if not raw:
                raise TapeIntegrityError(
                    f"{self._path}: truncated tape (the gzip stream ends early)"
                )
            try:
                data = stream.decompress(raw)
            except zlib.error as error:
                raise TapeIntegrityError(
                    f"{self._path}: not a readable tape: {error}"
                ) from error
            yield data
        if stream.unused_data or self._handle.read(1):
            raise TapeIntegrityError(
                f"{self._path}: not a readable tape: bytes after the gzip stream"
            )

    def lines(self) -> Iterator[bytes]:
        tail = b""
        for chunk in self._chunks():
            *complete, tail = (tail + chunk).split(b"\n")
            yield from complete
        if tail:
            yield tail

    def drain(self) -> None:
        """Inflate whatever is left unread, checking the container."""
        for _ in self._chunks():
            pass


def _iter_rows(path: Path, lines: Iterator[bytes]) -> Iterator[dict[str, Any]]:
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError as error:  # JSONDecodeError, or bytes that are not UTF-8
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


def _read_frame(path: Path, row: dict[str, Any], chain: DigestChain) -> TapeFrame:
    """One frame row, chained and checked against its stored digest.

    Messages that carry the same armoured payload share one ``bytes``.
    """
    payloads: dict[str, bytes] = {}
    try:
        messages = []
        for entry in row["messages"]:
            payload = payloads.get(entry[4])
            if payload is None:
                payload = payloads[entry[4]] = base64.b64decode(
                    entry[4].encode("ascii"), validate=True
                )
            messages.append(TapedMessage(
                src=entry[0],
                dst=entry[1],
                size_bytes=entry[2],
                accepted=bool(entry[3]),
                payload=payload,
            ))
        tape_frame = TapeFrame(frame=row["frame"], messages=messages)
        stored = row["digest"]
        digest = chain.seal(tape_frame)
    except (
        KeyError,
        IndexError,
        TypeError,
        AttributeError,
        UnicodeEncodeError,
        binascii.Error,
    ) as error:
        raise TapeFormatError(f"{path}: malformed frame row: {error}") from error
    if digest != stored:
        raise TapeIntegrityError(
            f"{path}: frame {tape_frame.frame} digest mismatch "
            f"(stored {str(stored)[:12]}…, recomputed {digest[:12]}…)",
            frame=tape_frame.frame,
        )
    return tape_frame


def _read_rows(path: Path, rows: Iterator[dict[str, Any]]) -> Tape:
    """The rows in the order the writer emits them: header, trace, frames,
    footer.  Each row is checked as it arrives and only the frames are kept."""
    header = next(rows, None)
    if header is None:
        raise TapeFormatError(f"{path}: empty tape")
    _check_header(path, header)
    try:
        scenario = TapeScenario.from_json(header["scenario"])
        faults = (
            FaultSchedule.from_json(header["faults"])
            if header.get("faults") is not None
            else None
        )
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise TapeFormatError(f"{path}: bad scenario in header: {error}") from error
    expected_hash = header.get("config_hash")
    content_hash = config_hash(scenario, faults)
    if expected_hash != content_hash:
        raise TapeIntegrityError(
            f"{path}: config_hash mismatch — header says "
            f"{str(expected_hash)[:12]}…, content hashes to "
            f"{content_hash[:12]}…"
        )

    row = next(rows, None)

    def trace_rows() -> Iterator[dict[str, Any]]:
        # hands the trace its rows as they are read; stops on the first
        # row of another kind, which is left in ``row``
        nonlocal row
        while row is not None and row["kind"] == "trace":
            yield row["row"]
            row = next(rows, None)

    try:
        trace = GameTrace.from_json_rows(trace_rows())
    except TapeError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as error:
        raise TapeFormatError(f"{path}: bad embedded trace: {error!r}") from error

    chain = DigestChain()
    frames: list[TapeFrame] = []
    while row is not None and row["kind"] == "frame":
        frames.append(_read_frame(path, row, chain))
        row = next(rows, None)
    if row is None:
        raise TapeIntegrityError(f"{path}: truncated tape (no footer)")
    if row["kind"] != "end":
        raise TapeFormatError(f"{path}: unknown or misplaced row kind {row['kind']!r}")
    footer = row
    # reading on past the footer is what runs the container's end checks
    if next(rows, None) is not None:
        raise TapeFormatError(f"{path}: rows after the footer")

    tape = Tape(
        scenario=scenario,
        trace=trace,
        frames=frames,
        faults=faults,
        sha256=chain.hexdigest(),
        version=header["version"],
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


def read_tape(path: str | Path) -> Tape:
    """Load a tape row by row, recomputing every fingerprint as it goes.

    Raises :class:`TapeFormatError` for version/format problems and
    :class:`TapeIntegrityError` (carrying the first bad frame) when the
    stored digests do not match the content or the gzip container is
    damaged.  A damaged container outranks whatever it garbled: a row that
    fails to parse is reported only once the rest has inflated cleanly.
    """
    path = Path(path)
    try:
        handle = path.open("rb")
    except OSError as error:
        # Unreadable path: an invocation problem, not a corrupt recording.
        raise TapeFormatError(f"{path}: cannot read tape: {error}") from error
    with handle:
        inflater = _Inflater(path, handle)
        try:
            return _read_rows(path, _iter_rows(path, inflater.lines()))
        except TapeFormatError:
            inflater.drain()
            raise
