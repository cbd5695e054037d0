"""The compiled per-type codec against the closure codec it replaced.

``repro.core.wire`` builds one straight-line encoder and one decoder per
registered message type, on first use; ``tests/reference/wire.py`` is the
per-field closure codec, verbatim.  On every message type the two write
the same bytes, and on any buffer — a frame, a truncation, an extension,
one byte changed — they accept and refuse alike, return equal values and
raise the same ``WireError`` message.  A decoded value is built in one
step (a bare instance, its slots set, its ``__post_init__`` run), so the
values themselves are held to what the constructor makes: frozen all the
way down, equal and hash-equal to ``cls(*fields)``.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.core import wire
from repro.core.messages import SUB_VISION, StateUpdate, SubscriptionRequest
from repro.core.wire import WireError
from repro.game.vector import Vec3
from tests.reference import wire as reference
from tests.test_core_wire_roundtrip import (
    MESSAGE_CLASSES,
    _class_strategy,
    any_float,
    build_message,
    finite,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def outcome(decode, buffer: bytes) -> tuple:
    """What decoding ``buffer`` gives: the refusal's message, or the value
    with its exact bytes (equal floats may differ in sign bit)."""
    try:
        message = decode(buffer)
    except WireError as error:
        return ("refused", str(error))
    return ("accepted", type(message), message, reference.encode_bytes(message))


def assert_same_decoding(buffer: bytes) -> tuple:
    compiled = outcome(wire.decode_bytes, buffer)
    assert compiled == outcome(reference.decode_bytes, buffer), buffer.hex()
    return compiled


def mutations(frame: bytes):
    """Every truncation, a few extensions, and each byte set to values that
    cross the varint, bool, presence and string-table boundaries."""
    for cut in range(len(frame)):
        yield frame[:cut]
    for junk in (b"\x00", b"\x01", b"\x7f", b"\x80", b"\xff\xff", b"extra"):
        yield frame + junk
    for index in range(len(frame)):
        for value in {0, 1, 2, 0x12, 0x13, 0x7F, 0x80, 0xFF, frame[index] ^ 1}:
            yield frame[:index] + bytes([value]) + frame[index + 1 :]


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
class TestSameAsTheClosureCodec:
    def test_same_bytes_out(self, cls):
        @settings(max_examples=60, deadline=None)
        @given(message=_class_strategy(cls, any_float))
        def run(message):
            assert wire.encode_bytes(message) == reference.encode_bytes(message)
            assert wire.encode_signable(message) == reference.encode_signable(message)

        run()

    def test_same_verdict_on_every_nearby_buffer(self, cls):
        frame = reference.encode_bytes(build_message(cls))
        verdicts = {assert_same_decoding(buffer)[0] for buffer in mutations(frame)}
        assert verdicts == {"accepted", "refused"}

    def test_same_verdict_on_mutated_generated_frames(self, cls):
        @settings(max_examples=60, deadline=None)
        @given(message=_class_strategy(cls, any_float), data=st.data())
        def run(message, data):
            frame = reference.encode_bytes(message)
            assert_same_decoding(frame)
            how = data.draw(st.sampled_from(("truncate", "extend", "replace")))
            if how == "truncate":
                buffer = frame[: data.draw(st.integers(0, len(frame) - 1))]
            elif how == "extend":
                buffer = frame + data.draw(st.binary(min_size=1, max_size=9))
            else:
                index = data.draw(st.integers(0, len(frame) - 1))
                value = data.draw(st.integers(0, 255))
                buffer = frame[:index] + bytes([value]) + frame[index + 1 :]
            assert_same_decoding(buffer)

        run()


def constructed(value):
    """``value`` rebuilt through the constructors, nested values first."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return type(value)(
            *(constructed(getattr(value, f.name)) for f in dataclasses.fields(value))
        )
    if isinstance(value, tuple):
        return tuple(constructed(item) for item in value)
    return value


def assert_frozen(value) -> int:
    """Every field of ``value`` and of each value nested in it refuses
    assignment; returns how many fields were tried."""
    tried = 0
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            current = getattr(value, field.name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, current)
            tried += 1 + assert_frozen(current)
    elif isinstance(value, tuple):
        tried += sum(assert_frozen(item) for item in value)
    return tried


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
def test_decoded_values_are_constructed_values(cls):
    @settings(max_examples=40, deadline=None)
    @given(message=_class_strategy(cls, finite))
    def run(message):
        decoded = wire.decode_bytes(wire.encode_bytes(message))
        assert type(decoded) is cls
        assert assert_frozen(decoded) >= len(dataclasses.fields(cls))
        rebuilt = cls(*(getattr(decoded, f.name) for f in dataclasses.fields(cls)))
        deep = constructed(decoded)
        for twin in (rebuilt, deep, message):
            assert decoded == twin and twin == decoded
            assert hash(decoded) == hash(twin)

    run()


def test_a_refused_subscription_kind_reads_as_before():
    """``SubscriptionRequest.__post_init__`` still runs on a decoded value,
    and its refusal still becomes the same ``WireError``."""
    valid = build_message(SubscriptionRequest)
    for kind in ("bogus", "VS ", "position", ""):
        forged = object.__new__(SubscriptionRequest)
        for field in dataclasses.fields(SubscriptionRequest):
            object.__setattr__(forged, field.name, getattr(valid, field.name))
        object.__setattr__(forged, "kind", kind)
        frame = wire.encode_bytes(forged)
        assert frame == reference.encode_bytes(forged)
        with pytest.raises(WireError) as compiled:
            wire.decode_bytes(frame)
        assert str(compiled.value) == (
            f"invalid SubscriptionRequest: unknown subscription kind {kind!r}"
        )
        assert assert_same_decoding(frame) == ("refused", str(compiled.value))
    assert wire.decode_bytes(wire.encode_bytes(valid)).kind == SUB_VISION


def test_any_buffer_at_all_decodes_alike():
    @settings(max_examples=300, deadline=None)
    @given(
        tag=st.sampled_from(sorted(wire.TAG_NAMES)) | st.integers(0, 255),
        body=st.binary(max_size=120),
    )
    def run(tag, body):
        assert_same_decoding(bytes([tag]) + body)

    run()
    assert_same_decoding(b"")


def test_a_wrongly_typed_field_is_refused_alike():
    """Hand-built messages reach the encoder too; a nested value of the
    wrong type, or a float that is not one, fails with the same message —
    a bad float ahead of a bad nested value included."""
    state = build_message(StateUpdate)
    snapshot = state.snapshot
    for changes in (
        {"yaw": "north"},
        {"velocity": (0.0, 0.0, 0.0)},
        {"velocity": None, "position": Vec3("x", 0.0, 0.0)},
    ):
        message = dataclasses.replace(
            state, snapshot=dataclasses.replace(snapshot, **changes)
        )
        with pytest.raises(WireError) as compiled:
            wire.encode_bytes(message)
        with pytest.raises(WireError) as closure:
            reference.encode_bytes(message)
        assert str(compiled.value) == str(closure.value)


def test_importing_the_module_compiles_nothing():
    probe = (
        "import repro.core.wire as wire\n"
        "assert not wire._ENCODERS and not wire._DECODERS\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)
