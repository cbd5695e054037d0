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

from repro.core.config import MAX_USEFUL_AGE_FRAMES
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
    "FRAME_MEMO_HORIZON_FRAMES",
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
_TRUNCATED = "truncated wire frame"


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


def _write_floats(values: tuple[Any, ...], out: bytearray) -> None:
    """One binary64 bit pattern per value, verbatim: the codec must be
    exact on raw simulation doubles or decode(encode(m)) == m fails.
    Int-valued floats arrive from hand-built messages and are normalised
    rather than rejected."""
    for value in values:
        try:
            out += _PACK_F64.pack(float(value) if type(value) is int else value)
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


def _expected(cls: type, value: Any, floats: tuple[Any, ...]) -> None:
    """Refuse a nested value of the wrong type, after whatever the float
    fields encoded before it would have refused."""
    _write_floats(floats, bytearray())
    raise WireError(f"expected {cls.__name__}, got {type(value).__name__}")


# ---- primitive readers -----------------------------------------------------
#
# The ``*_at`` readers take the buffer and a position and return (value,
# next position).  An overrun is an IndexError, which the compiled decoder
# that called the reader turns into "truncated wire frame".


def _uvarint_at(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    count = 0
    while True:
        byte = data[pos]
        pos += 1
        count += 1
        result |= (byte & 0x7F) << shift
        if not (byte & 0x80):
            if byte == 0 and count > 1:
                # e.g. 0x80 0x00 re-encodes 0 — one valid encoding only
                raise WireError("non-minimal varint")
            if result > (1 << 64) - 1:
                raise WireError("varint exceeds 64 bits")
            return result, pos
        if count >= 10:
            raise WireError("varint exceeds 64 bits")
        shift += 7


def _str_at(data: bytes, pos: int) -> tuple[str, int]:
    """An inline string; ``pos`` is just past its 0x00 escape."""
    length, pos = _uvarint_at(data, pos)
    end = pos + length
    if end > len(data):
        raise WireError(_TRUNCATED)
    try:
        value = data[pos:end].decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireError("invalid UTF-8 in wire string") from error
    if value in _STRING_CODES:
        raise WireError(f"non-canonical inline encoding of {value!r}")
    return value, end


def _check_finite(values: tuple[float, ...]) -> None:
    for value in values:
        if value - value != 0.0:
            # NaN or an infinity: no game quantity is one, and past the
            # boundary it would reach geometry and verifiers as a coordinate.
            raise WireError(f"non-finite float {value!r}")


def _short_floats(data: bytes, pos: int) -> None:
    """Refuse a run of floats the buffer cannot hold, as reading them one
    by one would: a non-finite one before the cut, else the cut."""
    while pos + 8 <= len(data):
        _check_finite(_PACK_F64.unpack_from(data, pos))
        pos += 8
    raise WireError(_TRUNCATED)


# ---- compiled codecs -------------------------------------------------------
#
# Each registered message type gets one straight-line encoder and one
# decoder, generated as Python source from its dataclass fields and
# compiled on first use, the way ``dataclasses`` builds ``__init__``
# (importing this module compiles nothing).  Nested dataclasses are
# inlined, so a run of adjacent float fields — a snapshot's position,
# velocity and yaw — is one ``struct`` call; a varint of one or two
# bytes never leaves the function; and each value is built in one step
# (:func:`_built`).
# Longer varints, inline strings and every refusal go through the helpers
# above.
# ``tests/reference/wire.py`` keeps the per-field closures this replaced,
# and ``tests/test_core_wire_compiled.py`` holds the two to the same
# bytes, values and errors.


class _Source:
    """One generated function: its lines, its globals, and the float run
    waiting for one ``struct`` call."""

    def __init__(self, params: str) -> None:
        self.lines = [f"def compiled({params}):"]
        self.indent = 1
        self.globals: dict[str, Any] = {
            "WireError": WireError,
            "struct": struct,
            "_TRUNCATED": _TRUNCATED,
        }
        self.names = 0
        #: float targets (decoding) or expressions (encoding) in field order
        self.run: list[str] = []
        #: lines that use the run's values, emitted right after it
        self.after_run: list[str] = []

    def local(self) -> str:
        self.names += 1
        return f"v{self.names}"

    def const(self, value: Any) -> str:
        name = f"c{len(self.globals)}"
        self.globals[name] = value
        return name

    def emit(self, *lines: str) -> None:
        pad = "    " * self.indent
        self.lines.extend(pad + line for line in lines)

    def then(self, *lines: str) -> None:
        """Lines that need the values read so far."""
        if self.run:
            self.after_run.extend(lines)
        else:
            self.emit(*lines)

    def flush(self) -> None:
        """Emit the pending float run; subclasses say how."""
        raise NotImplementedError

    def open_block(self, header: str) -> None:
        self.flush()
        self.emit(header)
        self.indent += 1

    def close_block(self) -> None:
        self.flush()
        self.indent -= 1

    def build(self) -> Callable[..., Any]:
        self.flush()
        namespace: dict[str, Any] = {}
        exec("\n".join(self.lines), self.globals, namespace)
        return typing.cast(Callable[..., Any], namespace["compiled"])


def _shape(declared: Any) -> tuple[str, Any]:
    """What a declared field type encodes as, and its inner type."""
    origin = typing.get_origin(declared)
    if origin in (Union, types.UnionType):
        arms = [a for a in typing.get_args(declared) if a is not type(None)]
        if len(arms) != 1:
            raise WireError(f"ambiguous union {declared!r}")
        return "optional", arms[0]
    if origin in (tuple, frozenset):
        args = typing.get_args(declared)
        if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
            raise WireError(f"cannot build a wire codec for {declared!r}")
        return origin.__name__, args[0]
    if dataclasses.is_dataclass(declared):
        return "dataclass", declared
    if declared in (bytes, bool, int, float, str):
        return declared.__name__, None
    raise WireError(f"cannot build a wire codec for {declared!r}")


def _validates(cls: type) -> bool:
    """Can building ``cls`` refuse its values (a ``__post_init__`` check)?"""
    return hasattr(cls, "__post_init__")


def _fields(cls: type) -> list[tuple[str, Any]]:
    """``cls``'s fields in declared order, which is its positional order.
    ``from __future__ import annotations`` makes every hint a string until
    this call, which runs once per class per compiled function."""
    hints = typing.get_type_hints(cls)
    return [(field.name, hints[field.name]) for field in dataclasses.fields(cls)]


# -- decoding ----------------------------------------------------------------


class _DecodeSource(_Source):
    def flush(self) -> None:
        if not self.run:
            return
        targets, count = self.run, len(self.run)
        self.run = []
        unpack = self.const(struct.Struct(f">{count}d").unpack_from)
        self.emit(
            f"if pos + {8 * count} > n:",
            "    _short_floats(data, pos)",
            f"{', '.join(targets)}, = {unpack}(data, pos)",
            f"pos += {8 * count}",
            f"if {' + '.join(f'({t} - {t})' for t in targets)} != 0.0:",
            f"    _check_finite(({', '.join(targets)},))",
            *self.after_run,
        )
        self.after_run = []


def _built(src: _DecodeSource, cls: type, args: list[str], target: str) -> list[str]:
    """Lines that make ``target`` the ``cls`` of ``args`` (its fields, in
    order) in one step: a bare instance, each slot set through its member
    descriptor, then the class's ``__post_init__`` check, if it has one,
    with a refusal turned into a WireError.  What the generated
    ``__init__`` would have done, less its ``object.__setattr__`` call per
    field: the value is as frozen, equal and hashable as a constructed one.
    """
    lines = [f"{target} = _new({src.const(cls)})"]
    for (name, _), arg in zip(_fields(cls), args):
        slot = cls.__dict__.get(name)
        if type(slot) is not types.MemberDescriptorType:
            raise WireError(f"{cls.__name__}.{name} is not a slot (wire types are slots=True)")
        lines.append(f"{src.const(slot.__set__)}({target}, {arg})")
    if _validates(cls):
        lines += (
            "try:",
            f"    {src.const(getattr(cls, '__post_init__'))}({target})",
            "except WireError:",
            "    raise",
            "except (TypeError, ValueError) as error:",
            f"    raise WireError(f'invalid {cls.__name__}: {{error}}') from error",
        )
    return lines


def _emit_read_fields(src: _DecodeSource, cls: type) -> list[str]:
    """Read every field of ``cls`` at ``pos``; the locals that hold them."""
    args = []
    for _, declared in _fields(cls):
        arg = src.local()
        _emit_read(src, declared, arg)
        args.append(arg)
    return args


def _emit_read_count(src: _DecodeSource, target: str) -> None:
    src.emit(
        f"{target} = data[pos]",
        f"if {target} < 128:",
        "    pos += 1",
        "else:",
        f"    {target}, pos = _uvarint_at(data, pos)",
    )


def _emit_read(src: _DecodeSource, declared: Any, target: str) -> None:
    """Emit the lines that read one ``declared`` value at ``pos`` into ``target``."""
    kind, inner = _shape(declared)
    if kind == "float":
        src.run.append(target)
        return
    if kind == "dataclass":
        build = _built(src, inner, _emit_read_fields(src, inner), target)
        if _validates(inner):
            src.flush()
            src.emit(*build)
        else:
            src.then(*build)
        return
    src.flush()
    if kind == "int":
        src.emit(
            f"{target} = data[pos]",
            f"if {target} < 128:",
            "    pos += 1",
            f"elif 0 < data[pos + 1] < 128:",
            f"    {target} = {target} & 127 | data[pos + 1] << 7",
            "    pos += 2",
            "else:",
            f"    {target}, pos = _uvarint_at(data, pos)",
            f"{target} = ({target} >> 1) ^ -({target} & 1)",
        )
    elif kind == "bool":
        src.emit(
            f"{target} = data[pos]",
            "pos += 1",
            f"if {target} > 1:",
            f"    raise WireError(f'bool byte must be 0 or 1, got {{{target}}}')",
            f"{target} = {target} == 1",
        )
    elif kind == "str":
        by_code = src.const((None, *_STRING_TABLE))
        src.emit(
            f"{target} = data[pos]",
            "pos += 1",
            f"if {target} == 0:",
            f"    {target}, pos = _str_at(data, pos)",
            f"elif {target} <= {len(_STRING_TABLE)}:",
            f"    {target} = {by_code}[{target}]",
            "else:",
            f"    raise WireError(f'unknown string-table code {{{target}}}')",
        )
    elif kind == "bytes":
        _emit_read_count(src, target)
        src.emit(
            f"if pos + {target} > n:",
            "    raise WireError(_TRUNCATED)",
            f"{target} = data[pos:pos + {target}]",
            f"pos += len({target})",
        )
    elif kind == "optional":
        present = src.local()
        src.emit(f"{present} = data[pos]", "pos += 1")
        src.open_block(f"if {present} == 1:")
        _emit_read(src, inner, target)
        src.close_block()
        src.emit(
            f"elif {present} == 0:",
            f"    {target} = None",
            "else:",
            f"    raise WireError(f'presence byte must be 0 or 1, got {{{present}}}')",
        )
    else:  # a tuple[X, ...] or a frozenset[X]: count, then the items
        count, items, item = src.local(), src.local(), src.local()
        _emit_read_count(src, count)
        src.emit(
            # every element costs >= 1 byte; reject absurd counts before
            # looping rather than after
            f"if {count} > n - pos:",
            "    raise WireError(_TRUNCATED)",
            f"{items} = []",
        )
        src.open_block(f"for _ in range({count}):")
        _emit_read(src, inner, item)
        if kind == "frozenset":
            src.then(
                f"if {items} and not {item} > {items}[-1]:",
                "    raise WireError('set elements must be strictly ascending')",
            )
        src.then(f"{items}.append({item})")
        src.close_block()
        src.emit(f"{target} = {kind}({items})")


def _compile_decoder(cls: type) -> Callable[[bytes, int], tuple[Any, int]]:
    """``decode(data, pos)``: the message of type ``cls`` whose fields start
    at ``pos`` and end the buffer, and where its top-level ``signature``
    field starts — the end of the prefix that signature covers."""
    src = _DecodeSource("data, pos")
    src.emit("n = len(data)")
    src.open_block("try:")
    args = []
    for field_name, declared in _fields(cls):
        if field_name == "signature":
            src.flush()
            src.emit("signed_end = pos")
        arg = src.local()
        _emit_read(src, declared, arg)
        args.append(arg)
    src.close_block()
    src.emit(
        "except IndexError:",
        "    raise WireError(_TRUNCATED) from None",
        "if pos != n:",
        "    raise WireError(f'{n - pos} trailing bytes after frame')",
        *_built(src, cls, args, "m"),
        "return m, signed_end",
    )
    src.globals.update(
        _uvarint_at=_uvarint_at, _str_at=_str_at, _check_finite=_check_finite,
        _short_floats=_short_floats, _new=object.__new__,
    )
    return src.build()


# -- encoding ----------------------------------------------------------------


class _EncodeSource(_Source):
    def flush(self) -> None:
        if not self.run:
            return
        values = f"{', '.join(self.run)},"
        pack = self.const(struct.Struct(f">{len(self.run)}d").pack)
        self.run = []
        self.emit(
            "try:",
            f"    out += {pack}({values})",
            "except (TypeError, struct.error):",
            f"    _write_floats(({values}), out)",
        )


def _emit_write(src: _EncodeSource, declared: Any, value: str) -> None:
    """Emit the lines that append ``value`` (an expression) to ``out``."""
    kind, inner = _shape(declared)
    if kind == "float":
        src.run.append(value)
        return
    local = value
    if not value.isidentifier():
        local = src.local()
        src.emit(f"{local} = {value}")
    if kind == "dataclass":
        cls = src.const(inner)
        src.emit(
            f"if type({local}) is not {cls}:",
            f"    _expected({cls}, {local}, ({''.join(v + ', ' for v in src.run)}))",
        )
        for name, field_type in _fields(inner):
            _emit_write(src, field_type, f"{local}.{name}")
        return
    src.flush()
    if kind == "int":
        src.emit(
            f"if 0 <= {local} < 64:",
            f"    out.append({local} << 1)",
            f"elif 0 < {local} < 8192:",
            f"    out.append({local} << 1 & 127 | 128)",
            f"    out.append({local} >> 6)",
            "else:",
            f"    _write_int({local}, out)",
        )
    elif kind == "bool":
        src.emit(f"out.append(1 if {local} else 0)")
    elif kind == "str":
        code = src.local()
        src.emit(
            f"{code} = _STRING_CODES.get({local})",
            f"if {code} is None:",
            f"    _write_str({local}, out)",
            "else:",
            f"    out.append({code})",
        )
    elif kind == "bytes":
        src.emit(f"_write_uvarint(len({local}), out)", f"out += {local}")
    elif kind == "optional":
        src.emit(f"if {local} is None:", "    out.append(0)")
        src.open_block("else:")
        src.emit("out.append(1)")
        _emit_write(src, inner, local)
        src.close_block()
    else:  # a tuple[X, ...] or a frozenset[X] (in ascending order)
        item = src.local()
        src.emit(f"_write_uvarint(len({local}), out)")
        items = local if kind == "tuple" else f"sorted({local})"
        src.open_block(f"for {item} in {items}:")
        _emit_write(src, inner, item)
        src.close_block()


def _encoder_source(params: str) -> _EncodeSource:
    src = _EncodeSource(params)
    src.globals.update(
        _write_uvarint=_write_uvarint, _write_int=_write_int,
        _write_floats=_write_floats, _write_str=_write_str, _expected=_expected,
        _STRING_CODES=_STRING_CODES,
    )
    return src


def _compile_encoder(cls: type) -> Callable[[Any, bool], bytearray]:
    """``encode(message, signed)``: the tag and every field of a ``cls``
    message in declared order, its signature only if ``signed``."""
    name = cls.__name__
    tag = MESSAGE_TAGS.get(name)
    if tag is None or MESSAGE_TYPES.get(name) is not cls:
        raise WireError(f"unregistered message type {name}")
    src = _encoder_source("m, signed")
    src.emit(f"out = bytearray({bytes((tag,))!r})")
    for field_name, declared in _fields(cls):
        if field_name == "signature":
            src.open_block("if signed:")
            _emit_write(src, declared, "m.signature")
            src.close_block()
        else:
            _emit_write(src, declared, f"m.{field_name}")
    src.flush()
    src.emit("return out")
    return src.build()


_ENCODERS: dict[type, Callable[[Any, bool], bytearray]] = {}
_DECODERS: dict[int, Callable[[bytes, int], tuple[Any, int]]] = {}
#: Where the last :func:`decode_bytes` that returned found its message's
#: signature field.  :meth:`FrameMemo.open_frame` reads it right after its
#: own call returns; going through the module-level ``decode_bytes`` keeps
#: every live decode visible to whatever wraps that name (perfbench's
#: ``core.wire`` boundary).
_last_signed_end = [0]


def _encoder(cls: type) -> Callable[[Any, bool], bytearray]:
    encode = _ENCODERS.get(cls)
    if encode is None:
        encode = _ENCODERS[cls] = _compile_encoder(cls)
    return encode


def _signature_field(signature: Signature | None) -> bytearray:
    """A frame's last field: presence byte, then scheme, signer and MAC.
    Its encoder is cached under ``Signature``, which no message type is."""
    encode = _ENCODERS.get(Signature)
    if encode is None:
        src = _encoder_source("m, signed")
        src.emit("out = bytearray()")
        _emit_write(src, Signature | None, "m")
        src.flush()
        src.emit("return out")
        encode = _ENCODERS[Signature] = src.build()
    return encode(signature, True)


# ---- binary envelope -------------------------------------------------------


def encode_bytes(message: GameMessage) -> bytes:
    """One canonical binary frame: tag byte + fields in declared order."""
    return bytes(_encoder(type(message))(message, True))


def decode_bytes(payload: bytes) -> GameMessage:
    """Inverse of :func:`encode_bytes`; raises WireError on any malformed
    input — truncation, bad tags, non-canonical forms, trailing bytes."""
    if type(payload) is not bytes:
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise WireError("wire frame must be bytes")
        payload = bytes(payload)
    if not payload:
        raise WireError(_TRUNCATED)
    decode = _DECODERS.get(payload[0])
    if decode is None:
        cls = _TAG_TO_TYPE.get(payload[0])
        if cls is None:
            raise WireError(f"unknown message tag {payload[0]}")
        decode = _DECODERS[payload[0]] = _compile_decoder(cls)
    message: GameMessage
    message, _last_signed_end[0] = decode(payload, 1)
    return message


def encode_signable(message: GameMessage) -> bytes:
    """The byte string a node signs: the full canonical frame *minus* the
    top-level signature field.  Nested signatures (the signed updates
    inside MisbehaviorEvidence) stay in — the evidence covers them.
    Canonicality of the frame makes this deterministic across nodes."""
    return bytes(_encoder(type(message))(message, False))


def encoded_size(message: GameMessage) -> int:
    """Serialized frame size in bytes, for offline sizing — a live frame
    is charged ``len(frame)``.  Off every live path but kept by name:
    perfbench's tracer resolves its ``core.wire`` boundaries by name."""
    return len(encode_bytes(message))


def seal(signable: bytes, signature: Signature) -> bytes:
    """The frame of a signed message from the bytes that were signed:
    ``encode_signable(m)`` ‖ signature field == ``encode_bytes(signed m)``,
    because every message type declares ``signature`` last."""
    return signable + _signature_field(signature)


# ---- frames in flight ------------------------------------------------------

#: Frames a :class:`FrameMemo` keeps a buffer after the frame it was first
#: opened in.  An update older than ``MAX_USEFUL_AGE_FRAMES`` is loss to
#: whoever receives it, so every delivery and relay of a buffer falls
#: inside this window; the extra frame is for the hardened rung's first
#: retransmissions (docs/PERFORMANCE.md, "PR 44").
FRAME_MEMO_HORIZON_FRAMES = MAX_USEFUL_AGE_FRAMES + 1


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
    encoded afresh.  What the memo holds is what is in flight: an entry
    goes once it is ``FRAME_MEMO_HORIZON_FRAMES`` older than the frame
    :meth:`advance` last named, a simulated frame, never a clock or a
    count.  Canonical framing makes that invisible (the frame re-decodes,
    the message re-encodes, to equal values).
    """

    def __init__(self) -> None:
        #: frame -> (message, end of the signed prefix)
        self._opened: dict[bytes, tuple[GameMessage, int]] = {}
        #: id(message) -> frame, for exactly the messages ``_opened`` holds
        #: (and thereby keeps alive, so an id is never a recycled one)
        self._arrived_as: dict[int, bytes] = {}
        #: simulated frame -> the buffers first opened in it, oldest first
        self._born: dict[int, list[bytes]] = {0: []}
        self._frame = 0
        obs = get_registry()
        self._ctr_decoded = obs.counter("wire.frames.decoded")
        self._ctr_reused = obs.counter("wire.frames.reused")
        self._ctr_reencoded = obs.counter("wire.frames.reencoded")

    def __len__(self) -> int:
        return len(self._opened)

    def advance(self, frame: int) -> None:
        """Frame ``frame`` has begun: forget every buffer first opened more
        than ``FRAME_MEMO_HORIZON_FRAMES`` before it.  Every node sharing
        the memo calls this; the first call of a frame does the work."""
        if frame <= self._frame:
            return
        self._frame = frame
        self._born[frame] = []
        for born in [f for f in self._born if f < frame - FRAME_MEMO_HORIZON_FRAMES]:
            for buffer in self._born.pop(born):
                message, _ = self._opened.pop(buffer)
                del self._arrived_as[id(message)]

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
        entry = (message, _last_signed_end[0])
        self._opened[frame] = entry
        self._arrived_as[id(message)] = frame
        self._born[self._frame].append(frame)
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
