"""The closure-per-field codec ``core.wire`` compiled away: verbatim.

One ``(encoder, decoder)`` closure pair per declared field type, cached by
the type object, driven by a ``_Reader`` cursor, and a keyword-built
dataclass at the end.  ``tests/test_core_wire_compiled.py`` holds the
compiled per-type codec to this one: the same bytes from ``encode_bytes``
and ``encode_signable``, and on any buffer the same value or the same
``WireError`` message from ``decode_bytes``.  The registry tables (tags,
types, the string table) are the module's own, imported.
"""

from __future__ import annotations

import dataclasses
import struct
import types
import typing
from typing import Any, Callable, Union

from repro.core.messages import GameMessage
from repro.core.wire import (
    _STRING_CODES,
    _STRING_TABLE,
    _TAG_TO_TYPE,
    MESSAGE_TAGS,
    MESSAGE_TYPES,
    WireError,
)
from repro.crypto.signatures import Signature

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

