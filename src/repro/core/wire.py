"""The serialization boundary: GameMessage <-> canonical binary frames.

A message in flight is its frame: the transport carries ``bytes``, a
receiver opens them through :class:`FrameMemo`, and a forwarder sends the
buffer it received.  ``MESSAGE_TYPES`` registers every member of the
``GameMessage`` union, and ``MESSAGE_TAGS`` assigns each registered type
its one-byte wire tag; ``tests/test_core_wire_roundtrip.py::TestRegistry``
holds both tables against the union.

Encoding is structural — driven by the dataclass field types — so a new
field on an existing message round-trips without codec edits; only *new
message types* need a registry entry and a tag.  The binary frame is
**canonical**: exactly one byte string encodes any given message (minimal
varints, table-preferred strings, sorted sets, no trailing bytes), which
is what lets encoded frames be hashed, compared, and signed.  The paper's
scalability argument is bit-level (~100-bit signatures, 924-bit state
updates); this codec is what makes the simulated bandwidth accounting
match that arithmetic instead of paying JSON's 5-10x envelope tax.

Frame layout (see docs/PROTOCOL.md for the full field tables)::

    frame     := tag:u8 field*          # fields in dataclass order;
                                        # the signature field comes last
    int       := zigzag LEB128 varint   # minimal encoding required
    float     := IEEE-754 binary64, big-endian (bit-exact); finite
    bool      := u8 (0|1)
    str       := 0x00 uvarint utf8* | table-code:u8 (1..N)
    bytes     := uvarint raw*
    Optional  := present:u8 (0|1) [value]
    tuple[X,…]:= uvarint value*
    frozenset := uvarint value*         # strictly ascending
    dataclass := field*                 # nested, structural

:func:`encode_message` is the one-way JSON-safe dict form the tape
verifier prints in human-readable diffs; nothing decodes it.
"""

from __future__ import annotations

import dataclasses
import struct
import types
import typing
from typing import Any, Callable, Union

from repro.core.membership import RemovalProposal
from repro.core.messages import (
    AckMessage,
    GameMessage,
    GuidanceMessage,
    HandoffMessage,
    HandoffSummary,
    KillClaim,
    MisbehaviorEvidence,
    PositionUpdate,
    ProjectileSpawn,
    StateUpdate,
    SubscriptionRequest,
)
from repro.crypto.signatures import Signature
from repro.game.avatar import AvatarSnapshot
from repro.game.deadreckoning import GuidancePrediction
from repro.game.vector import Vec3
from repro.obs.registry import get_registry

__all__ = [
    "MESSAGE_TYPES",
    "MESSAGE_TAGS",
    "TAG_NAMES",
    "WireError",
    "encode_message",
    "encode_bytes",
    "decode_bytes",
    "encode_signable",
    "encoded_size",
    "seal",
    "FRAME_MEMO_CAPACITY",
    "FrameMemo",
]


class WireError(ValueError):
    """Raised for unknown message types or malformed wire payloads."""


#: Registry of every message type that crosses the wire: exactly the
#: GameMessage union.
MESSAGE_TYPES: dict[str, type] = {
    "StateUpdate": StateUpdate,
    "PositionUpdate": PositionUpdate,
    "GuidanceMessage": GuidanceMessage,
    "SubscriptionRequest": SubscriptionRequest,
    "KillClaim": KillClaim,
    "ProjectileSpawn": ProjectileSpawn,
    "HandoffMessage": HandoffMessage,
    "RemovalProposal": RemovalProposal,
    "AckMessage": AckMessage,
    "MisbehaviorEvidence": MisbehaviorEvidence,
}

#: One-byte wire tag per registered message type.  Tags are append-only
#: protocol surface: recorded tapes store them, so renumbering an
#: existing entry orphans every committed tape.  It names exactly the
#: types MESSAGE_TYPES registers, one unique byte each.
MESSAGE_TAGS: dict[str, int] = {
    "StateUpdate": 1,
    "PositionUpdate": 2,
    "GuidanceMessage": 3,
    "SubscriptionRequest": 4,
    "KillClaim": 5,
    "ProjectileSpawn": 6,
    "HandoffMessage": 7,
    "RemovalProposal": 8,
    "AckMessage": 9,
    "MisbehaviorEvidence": 10,
}

_TAG_TO_TYPE: dict[int, type] = {
    MESSAGE_TAGS[name]: cls for name, cls in MESSAGE_TYPES.items()
}

#: Leading frame byte -> message type name, for whoever books or schedules
#: frames by kind without opening them (transport counters, the tape
#: histogram, the model checker's capture filter).
TAG_NAMES: dict[int, str] = {tag: name for name, tag in MESSAGE_TAGS.items()}

#: Payload dataclasses that appear as message fields (encoded as dicts).
#: StateUpdate is both a wire message and a payload: misbehavior evidence
#: nests the two conflicting signed updates it proves with.
_PAYLOAD_TYPES = (
    AvatarSnapshot,
    GuidancePrediction,
    HandoffSummary,
    Vec3,
    StateUpdate,
)

#: Protocol-constant strings encoded as a single table code instead of
#: inline UTF-8: snapshot delta field names, stock weapon names, the
#: signature schemes, and the subscription kinds.  Append-only for the
#: same tape-compatibility reason as MESSAGE_TAGS.  A string present
#: here MUST be table-coded (canonical form); anything else is inline.
_STRING_TABLE: tuple[str, ...] = (
    "",
    "position",
    "velocity",
    "yaw",
    "health",
    "armor",
    "weapon",
    "ammo",
    "alive",
    "machinegun",
    "shotgun",
    "rocket-launcher",
    "lightning-gun",
    "railgun",
    "hmac-sha256",
    "schnorr-secp256k1",
    "VS",
    "IS",
)
_STRING_CODES: dict[str, int] = {
    value: index + 1 for index, value in enumerate(_STRING_TABLE)
}

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
_PACK_F64 = struct.Struct(">d")


# ---- primitive writers -----------------------------------------------------


def _write_uvarint(value: int, out: bytearray) -> None:
    """Unsigned LEB128 (lengths and counts)."""
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _write_int(value: int, out: bytearray) -> None:
    """Zigzag LEB128: small magnitudes of either sign stay one byte."""
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise WireError(f"int {value} outside the 64-bit wire range")
    zigzag = (value << 1) if value >= 0 else ((-value << 1) - 1)
    _write_uvarint(zigzag, out)


def _write_float(value: float, out: bytearray) -> None:
    # binary64 bit pattern, verbatim: the codec must be exact on raw
    # simulation doubles or decode(encode(m)) == m fails.
    try:
        out += _PACK_F64.pack(value)
    except (TypeError, struct.error) as error:
        raise WireError(f"cannot encode float {value!r}") from error


def _write_str(value: str, out: bytearray) -> None:
    code = _STRING_CODES.get(value)
    if code is not None:
        out.append(code)
        return
    raw = value.encode("utf-8")
    out.append(0)
    _write_uvarint(len(raw), out)
    out += raw


def _write_bytes(value: bytes, out: bytearray) -> None:
    _write_uvarint(len(value), out)
    out += value


# ---- primitive readers -----------------------------------------------------


class _Reader:
    """Bounds-checked cursor: every overrun is a WireError, never an
    IndexError or struct.error escaping to the caller."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise WireError("truncated wire frame")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise WireError("truncated wire frame")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def remaining(self) -> int:
        return len(self.data) - self.pos


def _read_uvarint(reader: _Reader) -> int:
    result = 0
    shift = 0
    count = 0
    while True:
        byte = reader.byte()
        count += 1
        result |= (byte & 0x7F) << shift
        if not (byte & 0x80):
            if byte == 0 and count > 1:
                # e.g. 0x80 0x00 re-encodes 0 — one valid encoding only
                raise WireError("non-minimal varint")
            if result > (1 << 64) - 1:
                raise WireError("varint exceeds 64 bits")
            return result
        if count >= 10:
            raise WireError("varint exceeds 64 bits")
        shift += 7


def _read_int(reader: _Reader) -> int:
    zigzag = _read_uvarint(reader)
    return (zigzag >> 1) if not (zigzag & 1) else -((zigzag + 1) >> 1)


def _read_float(reader: _Reader) -> float:
    value = _PACK_F64.unpack(reader.take(8))[0]
    if value - value != 0.0:
        # NaN or an infinity: no game quantity is one, and past the
        # boundary it would reach geometry and verifiers as a coordinate.
        raise WireError(f"non-finite float {value!r}")
    return value


def _read_str(reader: _Reader) -> str:
    code = reader.byte()
    if code != 0:
        if code > len(_STRING_TABLE):
            raise WireError(f"unknown string-table code {code}")
        return _STRING_TABLE[code - 1]
    length = _read_uvarint(reader)
    try:
        value = reader.take(length).decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireError("invalid UTF-8 in wire string") from error
    if value in _STRING_CODES:
        raise WireError(f"non-canonical inline encoding of {value!r}")
    return value


def _read_bytes(reader: _Reader) -> bytes:
    return reader.take(_read_uvarint(reader))


# ---- structural codec ------------------------------------------------------
#
# One compiled (encoder, decoder) closure pair per declared field type,
# cached by the type object — type-hint dispatch happens once per type,
# not once per message, which matters because every signature covers an
# encode_signable() call on the hot path.

_Encoder = Callable[[Any, bytearray], None]
_Decoder = Callable[[_Reader], Any]
_CODECS: dict[Any, tuple[_Encoder, _Decoder]] = {}


def _codec_for(declared: Any) -> tuple[_Encoder, _Decoder]:
    pair = _CODECS.get(declared)
    if pair is None:
        pair = _build_codec(declared)
        _CODECS[declared] = pair
    return pair


def _bool_encoder(value: Any, out: bytearray) -> None:
    out.append(1 if value else 0)


def _bool_decoder(reader: _Reader) -> bool:
    flag = reader.byte()
    if flag > 1:
        raise WireError(f"bool byte must be 0 or 1, got {flag}")
    return flag == 1


def _float_encoder(value: Any, out: bytearray) -> None:
    # int-valued floats arrive from hand-built messages; normalise like
    # the JSON codec did rather than reject.
    _write_float(float(value) if type(value) is int else value, out)


def _build_codec(declared: Any) -> tuple[_Encoder, _Decoder]:
    origin = typing.get_origin(declared)
    if origin in (Union, types.UnionType):
        arms = [a for a in typing.get_args(declared) if a is not type(None)]
        if len(arms) != 1:
            raise WireError(f"ambiguous union {declared!r}")
        inner_encode, inner_decode = _codec_for(arms[0])

        def encode(value: Any, out: bytearray) -> None:
            if value is None:
                out.append(0)
            else:
                out.append(1)
                inner_encode(value, out)

        def decode(reader: _Reader) -> Any:
            present = reader.byte()
            if present == 0:
                return None
            if present != 1:
                raise WireError(f"presence byte must be 0 or 1, got {present}")
            return inner_decode(reader)

        return encode, decode
    if origin is tuple:
        args = typing.get_args(declared)
        if len(args) == 2 and args[1] is Ellipsis:
            item_encode, item_decode = _codec_for(args[0])

            def encode(value: Any, out: bytearray) -> None:
                _write_uvarint(len(value), out)
                for item in value:
                    item_encode(item, out)

            def decode(reader: _Reader) -> Any:
                count = _read_uvarint(reader)
                if count > reader.remaining():
                    # every element costs >= 1 byte; reject absurd counts
                    # before looping rather than after
                    raise WireError("truncated wire frame")
                return tuple(item_decode(reader) for _ in range(count))

            return encode, decode
        arm_codecs = [_codec_for(arm) for arm in args]

        def encode(value: Any, out: bytearray) -> None:
            if len(value) != len(arm_codecs):
                raise WireError(
                    f"expected {len(arm_codecs)}-tuple, got {len(value)}"
                )
            for (arm_encode, _), item in zip(arm_codecs, value):
                arm_encode(item, out)

        def decode(reader: _Reader) -> Any:
            return tuple(arm_decode(reader) for _, arm_decode in arm_codecs)

        return encode, decode
    if origin is frozenset:
        (arm,) = typing.get_args(declared)
        item_encode, item_decode = _codec_for(arm)

        def encode(value: Any, out: bytearray) -> None:
            _write_uvarint(len(value), out)
            for item in sorted(value):
                item_encode(item, out)

        def decode(reader: _Reader) -> Any:
            count = _read_uvarint(reader)
            if count > reader.remaining():
                raise WireError("truncated wire frame")
            items = []
            for _ in range(count):
                item = item_decode(reader)
                if items and not item > items[-1]:
                    raise WireError("set elements must be strictly ascending")
                items.append(item)
            return frozenset(items)

        return encode, decode
    if declared is Signature:
        return _codec_for_dataclass(Signature)
    if declared is bytes:
        return _write_bytes, _read_bytes
    if dataclasses.is_dataclass(declared):
        return _codec_for_dataclass(declared)
    if declared is bool:
        return _bool_encoder, _bool_decoder
    if declared is int:
        return _write_int, _read_int
    if declared is float:
        return _float_encoder, _read_float
    if declared is str:
        return _write_str, _read_str
    raise WireError(f"cannot build a wire codec for {declared!r}")


def _codec_for_dataclass(cls: type) -> tuple[_Encoder, _Decoder]:
    plan = _field_plan(cls)

    def encode(value: Any, out: bytearray) -> None:
        if type(value) is not cls:
            raise WireError(
                f"expected {cls.__name__}, got {type(value).__name__}"
            )
        for name, (field_encode, _) in plan:
            field_encode(getattr(value, name), out)

    def decode(reader: _Reader) -> Any:
        kwargs = {
            name: field_decode(reader) for name, (_, field_decode) in plan
        }
        try:
            return cls(**kwargs)
        except WireError:
            raise
        except (TypeError, ValueError) as error:
            # e.g. SubscriptionRequest's kind validation
            raise WireError(f"invalid {cls.__name__}: {error}") from error

    return encode, decode


def _field_plan(cls: type) -> tuple[tuple[str, tuple[_Encoder, _Decoder]], ...]:
    # `from __future__ import annotations` makes every hint a string until
    # this call; callers cache the plan, so it resolves once per class.
    hints = typing.get_type_hints(cls)
    return tuple(
        (field.name, _codec_for(hints[field.name]))
        for field in dataclasses.fields(cls)
    )


_PLAN_CACHE: dict[type, tuple[tuple[str, tuple[_Encoder, _Decoder]], ...]] = {}


def _plan_for(cls: type) -> tuple[tuple[str, tuple[_Encoder, _Decoder]], ...]:
    plan = _PLAN_CACHE.get(cls)
    if plan is None:
        plan = _field_plan(cls)
        _PLAN_CACHE[cls] = plan
    return plan


# ---- binary envelope -------------------------------------------------------


def encode_bytes(message: GameMessage) -> bytes:
    """One canonical binary frame: tag byte + fields in declared order."""
    name = type(message).__name__
    tag = MESSAGE_TAGS.get(name)
    if tag is None or MESSAGE_TYPES.get(name) is not type(message):
        raise WireError(f"unregistered message type {name}")
    out = bytearray((tag,))
    for field_name, (field_encode, _) in _plan_for(type(message)):
        field_encode(getattr(message, field_name), out)
    return bytes(out)


def decode_bytes(payload: bytes) -> GameMessage:
    """Inverse of :func:`encode_bytes`; raises WireError on any malformed
    input — truncation, bad tags, non-canonical forms, trailing bytes."""
    if not isinstance(payload, (bytes, bytearray, memoryview)):
        raise WireError("wire frame must be bytes")
    reader = _Reader(bytes(payload))
    tag = reader.byte()
    cls = _TAG_TO_TYPE.get(tag)
    if cls is None:
        raise WireError(f"unknown message tag {tag}")
    kwargs = {
        name: field_decode(reader)
        for name, (_, field_decode) in _plan_for(cls)
    }
    if reader.remaining():
        raise WireError(f"{reader.remaining()} trailing bytes after frame")
    try:
        return cls(**kwargs)
    except WireError:
        raise
    except (TypeError, ValueError) as error:
        raise WireError(f"invalid {cls.__name__}: {error}") from error


def encode_signable(message: GameMessage) -> bytes:
    """The byte string a node signs: the full canonical frame *minus* the
    top-level signature field.  Nested signatures (the signed updates
    inside MisbehaviorEvidence) stay in — the evidence covers them.
    Canonicality of the frame makes this deterministic across nodes."""
    name = type(message).__name__
    tag = MESSAGE_TAGS.get(name)
    if tag is None or MESSAGE_TYPES.get(name) is not type(message):
        raise WireError(f"unregistered message type {name}")
    out = bytearray((tag,))
    for field_name, (field_encode, _) in _plan_for(type(message)):
        if field_name == "signature":
            continue
        field_encode(getattr(message, field_name), out)
    return bytes(out)


def encoded_size(message: GameMessage) -> int:
    """Serialized frame size in bytes, for offline sizing — a live frame
    is charged ``len(frame)``.  Off every live path but kept by name:
    perfbench's tracer resolves its ``core.wire`` boundaries by name."""
    return len(encode_bytes(message))


_encode_signature_field = _codec_for(Signature | None)[0]


def _signature_field(signature: Signature | None) -> bytes:
    """A frame's last field: presence byte, then scheme, signer and MAC."""
    out = bytearray()
    _encode_signature_field(signature, out)
    return bytes(out)


def seal(signable: bytes, signature: Signature) -> bytes:
    """The frame of a signed message from the bytes that were signed:
    ``encode_signable(m)`` ‖ signature field == ``encode_bytes(signed m)``,
    because every message type declares ``signature`` last."""
    return signable + _signature_field(signature)


# ---- frames in flight ------------------------------------------------------

#: Distinct frames a :class:`FrameMemo` remembers.  Sized from a
#: measurement, not a knob (docs/PERFORMANCE.md): at 2 048 a 48-player
#: session decodes every distinct delivered frame exactly once, for
#: about +1 MiB over 512 entries; 16 384 decodes no fewer there and
#: costs +3 to +6 MiB on every workload.
FRAME_MEMO_CAPACITY = 2048


class FrameMemo:
    """What each in-flight buffer decodes to, and which buffer a decoded
    message arrived as.

    Decoding is a pure function of immutable bytes and every message is
    a frozen dataclass of immutable values, so remembering the result
    changes nothing a receiver can observe — it only means a frame that
    reaches many nodes of one process (a session shares one memo) pays
    the validating :func:`decode_bytes` once, not once per delivery.
    Nothing about *trust* is remembered: signatures are checked by each
    receiver, on every delivery, over the bytes it was handed.

    The reverse direction is by identity: the object :meth:`open_frame`
    returned maps back to the very buffer it came from, so a relay or
    retransmission sends that buffer untouched.  Any other
    object — a hand-built message, a copy a tampering hop altered — is
    encoded afresh.  The oldest entry is evicted at
    ``FRAME_MEMO_CAPACITY``; canonical framing makes that invisible
    (the frame re-decodes, the message re-encodes, to equal values).
    """

    def __init__(self) -> None:
        #: frame -> (message, end of the signed prefix), oldest first
        self._opened: dict[bytes, tuple[GameMessage, int]] = {}
        #: id(message) -> frame, for exactly the messages ``_opened`` holds
        #: (and thereby keeps alive, so an id is never a recycled one)
        self._arrived_as: dict[int, bytes] = {}
        obs = get_registry()
        self._ctr_decoded = obs.counter("wire.frames.decoded")
        self._ctr_reused = obs.counter("wire.frames.reused")
        self._ctr_reencoded = obs.counter("wire.frames.reencoded")

    def __len__(self) -> int:
        return len(self._opened)

    def open_frame(self, frame: bytes) -> tuple[GameMessage, int]:
        """``(message, signed_end)`` for a received buffer; the signature
        covers ``frame[:signed_end]``.  Raises :class:`WireError` for
        anything :func:`decode_bytes` rejects."""
        if type(frame) is not bytes:
            raise WireError("wire frame must be bytes")
        entry = self._opened.get(frame)
        if entry is not None:
            self._ctr_reused.inc()
            return entry
        message = decode_bytes(frame)
        entry = (message, len(frame) - len(_signature_field(message.signature)))
        if len(self._opened) >= FRAME_MEMO_CAPACITY:
            evicted, _ = self._opened.pop(next(iter(self._opened)))
            del self._arrived_as[id(evicted)]
        self._opened[frame] = entry
        self._arrived_as[id(message)] = frame
        self._ctr_decoded.inc()
        return entry

    def frame_of(self, message: GameMessage) -> bytes:
        """The buffer ``message`` arrived as, else a fresh encoding."""
        frame = self._arrived_as.get(id(message))
        if frame is None:
            self._ctr_reencoded.inc()
            frame = encode_bytes(message)
        return frame


# ---- JSON-safe dict form (human-readable tape diffs) -----------------------


def _encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, Signature):
        return {
            "scheme": value.scheme,
            "signer_id": value.signer_id,
            "data": value.data.hex(),
        }
    if isinstance(value, _PAYLOAD_TYPES):
        return {
            field.name: _encode_value(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_encode_value(item) for item in value]
    raise WireError(f"cannot encode value of type {type(value).__name__}")


def encode_message(message: GameMessage) -> dict[str, Any]:
    """One message as a JSON-safe dict, tagged with its type name."""
    name = type(message).__name__
    if name not in MESSAGE_TYPES:
        raise WireError(f"unregistered message type {name}")
    return {
        "type": name,
        **{
            field.name: _encode_value(getattr(message, field.name))
            for field in dataclasses.fields(message)
        },
    }
