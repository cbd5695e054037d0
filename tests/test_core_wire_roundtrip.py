"""Serialization round-trip for every message in the ``GameMessage`` union.

The union members are enumerated via :func:`typing.get_args`, and instances
are built generically from each dataclass's resolved type hints — so a
message type added to ``core/messages.py`` is covered here automatically.
``TestRegistry`` is where the message registry's invariants are stated,
on the imported tables: the union, the codec registry and the tag table
agree, every member is an immutable value, and the ack set sits inside
the union without ``AckMessage``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing

import pytest

from repro.core import messages as msgs
from repro.core.wire import (
    MESSAGE_TAGS,
    MESSAGE_TYPES,
    WireError,
    decode_bytes,
    encode_bytes,
    encode_message,
    encode_signable,
)
from repro.crypto.signatures import Signature
from repro.game.avatar import AvatarSnapshot
from repro.game.vector import Vec3

MESSAGE_CLASSES = typing.get_args(msgs.GameMessage)

# Some fields are semantically constrained; the generic builder can't guess.
FIELD_OVERRIDES = {
    ("SubscriptionRequest", "kind"): msgs.SUB_VISION,
}

_SCALARS = {
    int: 7,
    float: 1.25,
    str: "rail",
    bool: True,
    bytes: b"\x01\x02sig",
}


def sample_value(hint: object, owner: str, name: str, depth: int = 0) -> object:
    """A deterministic, non-default sample instance of ``hint``."""
    override = FIELD_OVERRIDES.get((owner, name))
    if override is not None:
        return override
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        # Optional[X] and unions: prefer a concrete (non-None) member so the
        # round-trip actually exercises the payload codec.
        concrete = [a for a in args if a is not type(None)]
        return sample_value(concrete[0], owner, name, depth)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return (sample_value(args[0], owner, name, depth + 1),)
        return tuple(sample_value(a, owner, name, depth + 1) for a in args)
    if origin is frozenset:
        return frozenset({sample_value(args[0], owner, name, depth + 1)})
    if hint in _SCALARS:
        return _SCALARS[hint]  # type: ignore[index]
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(
            **{
                f.name: sample_value(hints[f.name], hint.__name__, f.name, depth + 1)
                for f in dataclasses.fields(hint)
            }
        )
    raise AssertionError(f"no sample strategy for {owner}.{name}: {hint!r}")


def build_message(cls: type) -> object:
    hints = typing.get_type_hints(cls)
    return cls(
        **{
            f.name: sample_value(hints[f.name], cls.__name__, f.name)
            for f in dataclasses.fields(cls)
        }
    )


class TestRoundTrip:
    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
    def test_every_union_member_round_trips(self, cls):
        # ... and its dict form (what tape diffs print) is JSON-safe, tagged,
        # and the same before and after a trip through the binary codec.
        message = build_message(cls)
        envelope = encode_message(message)
        assert envelope["type"] == cls.__name__
        assert json.loads(json.dumps(envelope)) == envelope
        assert encode_message(decode_bytes(encode_bytes(message))) == envelope

    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
    def test_bytes_round_trip_and_stability(self, cls):
        message = build_message(cls)
        wire = encode_bytes(message)
        assert decode_bytes(wire) == message
        # Canonical form: same message always yields the same bytes.
        assert encode_bytes(decode_bytes(wire)) == wire

    def test_none_optional_fields_survive(self):
        message = msgs.KillClaim(
            sender_id=1,
            victim_id=2,
            frame=3,
            sequence=4,
            weapon="rail",
            claimed_distance=9.5,
            signature=None,
        )
        assert decode_bytes(encode_bytes(message)) == message

    def test_empty_collections_survive(self):
        message = msgs.HandoffMessage(
            sender_id=1,
            player_id=2,
            epoch=0,
            sequence=1,
            interest_subscribers=frozenset(),
            vision_subscribers=frozenset(),
            summaries=(),
            signature=None,
        )
        decoded = decode_bytes(encode_bytes(message))
        assert decoded == message
        assert isinstance(decoded.interest_subscribers, frozenset)
        assert isinstance(decoded.summaries, tuple)

    def test_none_nested_snapshot_survives(self):
        summary = msgs.HandoffSummary(
            player_id=3,
            epoch=1,
            proxy_id=9,
            last_snapshot=None,
            update_count=0,
            suspicion_flags=0,
        )
        message = msgs.HandoffMessage(
            sender_id=1,
            player_id=3,
            epoch=1,
            sequence=2,
            interest_subscribers=frozenset({4}),
            vision_subscribers=frozenset({5, 6}),
            summaries=(summary,),
        )
        assert decode_bytes(encode_bytes(message)) == message


@pytest.mark.lint
class TestRegistry:
    def test_registry_covers_union_exactly(self):
        assert set(MESSAGE_TYPES.values()) == set(MESSAGE_CLASSES)
        assert set(MESSAGE_TYPES) == {c.__name__ for c in MESSAGE_CLASSES}

    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
    def test_every_member_is_an_immutable_value(self, cls):
        # A message is signed once and forwarded by identity: a field
        # patched after signing would outlive its signature, and a stray
        # attribute would ride along unsigned.
        assert cls.__dataclass_params__.frozen, f"{cls.__name__} needs frozen=True"
        assert "__slots__" in vars(cls), f"{cls.__name__} needs slots=True"

    def test_ackable_types_sit_inside_the_union(self):
        # An ackable ack would be acked in turn, forever.
        assert set(msgs.ACKABLE_TYPES) <= set(MESSAGE_CLASSES)
        assert msgs.AckMessage in MESSAGE_CLASSES
        assert msgs.AckMessage not in msgs.ACKABLE_TYPES

    def test_tag_table_matches_registry(self):
        assert set(MESSAGE_TAGS) == set(MESSAGE_TYPES)
        tags = list(MESSAGE_TAGS.values())
        assert len(tags) == len(set(tags)), "tags must be unique"
        assert all(0 <= tag <= 255 for tag in tags), "tags must fit one byte"

    def test_envelope_starts_with_type_tag_byte(self):
        for cls in MESSAGE_CLASSES:
            wire = encode_bytes(build_message(cls))
            assert wire[0] == MESSAGE_TAGS[cls.__name__]

    def test_json_envelope_retained_with_type_tag(self):
        # The dict form survives (one way) for human-readable tape diffs.
        message = build_message(msgs.PositionUpdate)
        envelope = encode_message(message)
        assert envelope["type"] == "PositionUpdate"
        assert envelope["sender_id"] == message.sender_id
        assert envelope["signature"]["data"] == message.signature.data.hex()

    def test_signable_bytes_is_frame_minus_signature(self):
        message = build_message(msgs.StateUpdate)
        signable = encode_signable(message)
        assert signable[0] == MESSAGE_TAGS["StateUpdate"]
        # The signed form appends only the signature's encoding.
        assert encode_bytes(message).startswith(signable)
        unsigned = dataclasses.replace(message, signature=None)
        assert encode_signable(unsigned) == signable


class TestErrors:
    def test_unregistered_message_encode(self):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Rogue:
            sender_id: int

        with pytest.raises(WireError):
            encode_message(Rogue(sender_id=1))

    def test_malformed_bytes(self):
        with pytest.raises(WireError):
            decode_bytes(b"{not json")


class TestMalformedBinary:
    """Hostile binary input must always surface as WireError — never a
    struct.error, IndexError, or UnicodeDecodeError leaking from the
    decoder internals (mirrors the JSON codec's rejection tests)."""

    def test_empty_frame(self):
        with pytest.raises(WireError):
            decode_bytes(b"")

    def test_unknown_tag(self):
        used = set(MESSAGE_TAGS.values())
        for tag in (0, *(t for t in range(256) if t not in used)):
            with pytest.raises(WireError):
                decode_bytes(bytes([tag]))

    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
    def test_every_truncation_is_rejected(self, cls):
        wire = encode_bytes(build_message(cls))
        for cut in range(len(wire)):
            with pytest.raises(WireError):
                decode_bytes(wire[:cut])

    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
    def test_trailing_bytes_are_rejected(self, cls):
        wire = encode_bytes(build_message(cls))
        for junk in (b"\x00", b"\xff", b"extra"):
            with pytest.raises(WireError):
                decode_bytes(wire + junk)

    def test_non_bytes_input(self):
        with pytest.raises(WireError):
            decode_bytes("not bytes")  # type: ignore[arg-type]

    def test_non_minimal_varint_is_rejected(self):
        # AckMessage: tag, then sender_id as a varint.  0x80 0x00 is a
        # two-byte encoding of zero — valid LEB128, not canonical.
        tag = bytes([MESSAGE_TAGS["AckMessage"]])
        with pytest.raises(WireError, match="non-minimal"):
            decode_bytes(tag + b"\x80\x00" + b"\x00" * 8)

    def test_oversized_varint_is_rejected(self):
        tag = bytes([MESSAGE_TAGS["AckMessage"]])
        with pytest.raises(WireError):
            decode_bytes(tag + b"\xff" * 10 + b"\x01")

    def test_bad_presence_byte_is_rejected(self):
        # Flip the signature presence byte (always last-field prefix on a
        # signed message) to an out-of-range value.
        message = build_message(msgs.AckMessage)
        wire = bytearray(encode_bytes(message))
        prefix = len(encode_signable(message))
        assert wire[prefix] == 1  # presence byte of the signature
        wire[prefix] = 2
        with pytest.raises(WireError, match="presence byte"):
            decode_bytes(bytes(wire))

    def test_bad_bool_byte_is_rejected(self):
        message = build_message(msgs.StateUpdate)
        wire = encode_bytes(message)
        # AvatarSnapshot.alive is the only bool; True encodes as 0x01.
        # Rather than compute its offset, fuzz every 0x01 position and
        # require that *no* corruption ever escapes WireError.
        for index, value in enumerate(wire):
            if value != 1:
                continue
            mutated = bytearray(wire)
            mutated[index] = 2
            try:
                decoded = decode_bytes(bytes(mutated))
            except WireError:
                continue
            assert decoded != message  # if it decodes, it must differ

    def test_unsorted_set_is_rejected(self):
        message = msgs.HandoffMessage(
            sender_id=1, player_id=2, epoch=3, sequence=4,
            interest_subscribers=frozenset({1, 2}),
            vision_subscribers=frozenset(),
        )
        wire = encode_bytes(message)
        # Elements 1 and 2 zigzag-encode as 0x02 and 0x04; swapping the
        # adjacent pair breaks the strictly-ascending canonical order.
        swapped = wire.replace(b"\x02\x02\x04", b"\x02\x04\x02", 1)
        assert swapped != wire, "expected the encoded set in the frame"
        with pytest.raises(WireError, match="ascending"):
            decode_bytes(swapped)

    def test_non_canonical_table_string_is_rejected(self):
        base = build_message(msgs.KillClaim)
        railgun = encode_bytes(dataclasses.replace(base, weapon="railgun"))
        shotgun = encode_bytes(dataclasses.replace(base, weapon="shotgun"))
        # Both weapons are table-coded, so the two frames differ in
        # exactly one byte: the weapon's table code.
        assert len(railgun) == len(shotgun)
        diffs = [i for i, (a, b) in enumerate(zip(railgun, shotgun)) if a != b]
        assert len(diffs) == 1
        index = diffs[0]
        # Re-encode "railgun" inline (0x00 escape + length + UTF-8)
        # instead of its table code; decode must refuse the alias.
        aliased = railgun[:index] + b"\x00\x07railgun" + railgun[index + 1:]
        with pytest.raises(WireError, match="non-canonical"):
            decode_bytes(aliased)

    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
    def test_single_byte_corruption_never_leaks(self, cls):
        """Exhaustive single-byte corruption: decode either fails with
        WireError or yields a (different or equal) valid message —
        nothing else."""
        wire = encode_bytes(build_message(cls))
        for index in range(len(wire)):
            mutated = bytearray(wire)
            mutated[index] ^= 0xFF
            try:
                decode_bytes(bytes(mutated))
            except WireError:
                pass


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

#: wire ints are 64-bit; the encoder rejects anything wider
wire_int = st.integers(-(2**63), 2**63 - 1)

STRATEGY_OVERRIDES = {
    ("SubscriptionRequest", "kind"): st.sampled_from(
        [msgs.SUB_VISION, msgs.SUB_INTEREST]
    ),
}


def _hint_strategy(
    hint: object, owner: str, name: str, floats: "st.SearchStrategy" = finite
) -> "st.SearchStrategy":
    override = STRATEGY_OVERRIDES.get((owner, name))
    if override is not None:
        return override
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        concrete = [a for a in args if a is not type(None)]
        inner = st.one_of(*(_hint_strategy(a, owner, name, floats) for a in concrete))
        return st.none() | inner if type(None) in args else inner
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(
                _hint_strategy(args[0], owner, name, floats), max_size=3
            ).map(tuple)
        return st.tuples(*(_hint_strategy(a, owner, name, floats) for a in args))
    if origin is frozenset:
        return st.frozensets(_hint_strategy(args[0], owner, name, floats), max_size=6)
    if hint is int:
        return wire_int
    if hint is float:
        return floats
    if hint is str:
        # Mix table strings and arbitrary unicode so both encodings run.
        return st.text(max_size=12) | st.sampled_from(
            ["", "railgun", "position", "hmac-sha256"]
        )
    if hint is bool:
        return st.booleans()
    if hint is bytes:
        return st.binary(max_size=20)
    if dataclasses.is_dataclass(hint):
        return _class_strategy(hint, floats)
    raise AssertionError(f"no strategy for {owner}.{name}: {hint!r}")


def _class_strategy(
    cls: type, floats: "st.SearchStrategy" = finite
) -> "st.SearchStrategy":
    hints = typing.get_type_hints(cls)
    return st.builds(
        cls,
        **{
            f.name: _hint_strategy(hints[f.name], cls.__name__, f.name, floats)
            for f in dataclasses.fields(cls)
        },
    )


def _floats_in(value: object) -> list[float]:
    """Every float a message carries, nested dataclasses and collections
    included."""
    if isinstance(value, float):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple, frozenset)):
        return [x for item in value for x in _floats_in(item)]
    return []


#: Floats as a hostile sender may sign them: non-finite ones drawn often.
any_float = st.one_of(
    finite, st.floats(), st.sampled_from((math.nan, math.inf, -math.inf))
)


class TestProperties:
    @pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
    def test_generated_messages_round_trip_canonically(self, cls):
        """Hypothesis round-trip for every MESSAGE_TYPES entry: decode is
        the exact inverse of encode, and re-encoding reproduces the
        canonical bytes."""

        @settings(max_examples=40, deadline=None)
        @given(message=_class_strategy(cls))
        def run(message):
            wire = encode_bytes(message)
            decoded = decode_bytes(wire)
            assert decoded == message
            assert encode_bytes(decoded) == wire
            assert encode_signable(decoded) == encode_signable(message)

        run()

    @pytest.mark.parametrize(
        "cls",
        [c for c in MESSAGE_CLASSES if _floats_in(build_message(c))],
        ids=lambda c: c.__name__,
    )
    def test_a_non_finite_float_is_refused(self, cls):
        """Any registered message with a NaN or infinite float anywhere in
        it encodes, but ``decode_bytes`` raises WireError: a receiver
        drops it as malformed.  With every float finite it round-trips."""

        @settings(max_examples=60, deadline=None)
        @given(message=_class_strategy(cls, any_float))
        def run(message):
            wire = encode_bytes(message)
            if all(math.isfinite(x) for x in _floats_in(message)):
                assert decode_bytes(wire) == message
            else:
                with pytest.raises(WireError, match="non-finite"):
                    decode_bytes(wire)

        run()

    @settings(max_examples=50, deadline=None)
    @given(
        x=finite, y=finite, z=finite, yaw=finite,
        distance=finite, frame=st.integers(0, 2**31),
    )
    def test_float_fields_round_trip_exactly(self, x, y, z, yaw, distance, frame):
        spawn = msgs.ProjectileSpawn(
            sender_id=1,
            frame=frame,
            sequence=frame,
            weapon="rocket",
            origin=Vec3(x, y, z),
            velocity=Vec3(z, x, y),
            signature=Signature(scheme="hmac", signer_id=1, data=b"\x00\xff"),
        )
        assert decode_bytes(encode_bytes(spawn)) == spawn

    @settings(max_examples=50, deadline=None)
    @given(
        health=st.integers(0, 200),
        ammo=st.integers(0, 999),
        yaw=finite,
        alive=st.booleans(),
        weapon=st.text(max_size=12),
    )
    def test_snapshot_payload_round_trips(self, health, ammo, yaw, alive, weapon):
        snapshot = AvatarSnapshot(
            player_id=2, frame=10,
            position=Vec3(0.5, -1.5, 2.0), velocity=Vec3(0.0, 0.0, 0.0),
            yaw=yaw, health=health, armor=0, weapon=weapon, ammo=ammo,
            alive=alive,
        )
        message = msgs.StateUpdate(
            sender_id=2, frame=10, sequence=3, snapshot=snapshot,
            delta_fields=("position", "yaw"),
        )
        assert decode_bytes(encode_bytes(message)) == message

    @settings(max_examples=25, deadline=None)
    @given(members=st.frozensets(st.integers(0, 1000), max_size=16))
    def test_subscriber_sets_round_trip(self, members):
        message = msgs.HandoffMessage(
            sender_id=1, player_id=2, epoch=3, sequence=4,
            interest_subscribers=members, vision_subscribers=frozenset(),
        )
        assert decode_bytes(encode_bytes(message)) == message
