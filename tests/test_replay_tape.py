"""The .tape subsystem: format round trips, integrity, and verify mode."""

from __future__ import annotations

import gzip
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.node import WatchmenNode
from repro.game.trace import GameTrace
from repro.replay import (
    TAPE_FORMAT,
    GOLDEN_PRESETS,
    CheatSpec,
    Tape,
    TapedMessage,
    TapeFormatError,
    TapeFrame,
    TapeIntegrityError,
    TapeScenario,
    compare_tapes,
    read_tape,
    record_session,
    verify_tape,
    write_tape,
)

def header_row(path):
    """The tape's first row as written (docs/REPLAY.md: gzip'd JSON lines,
    header first) — readable without loading or verifying the rest."""
    with gzip.open(path, "rt", encoding="utf-8") as lines:
        return json.loads(lines.readline())


#: Small enough to record in well under a second, big enough to carry
#: every message type plus kills.
SMALL = TapeScenario(players=6, frames=100, seed=5)


@pytest.fixture(scope="module")
def small_tape():
    return record_session(SMALL)


@pytest.fixture()
def small_tape_path(small_tape, tmp_path):
    return write_tape(small_tape, tmp_path / "small.tape")


# ---- synthetic round-trip properties (no simulation) -----------------------

_payloads = st.binary(min_size=1, max_size=64)

_messages = st.builds(
    TapedMessage,
    src=st.integers(0, 7),
    dst=st.integers(0, 7),
    size_bytes=st.integers(1, 4096),
    accepted=st.booleans(),
    payload=_payloads,
)

_scenarios = st.builds(
    TapeScenario,
    players=st.integers(2, 12),
    frames=st.integers(1, 500),
    seed=st.integers(0, 2**31),
    latency=st.sampled_from(["king", "peerwise", "lan"]),
    loss_rate=st.floats(0.0, 0.2, allow_nan=False),
)


@st.composite
def _synthetic_tapes(draw):
    scenario = draw(_scenarios)
    num_frames = draw(st.integers(0, 6))
    frames = [
        TapeFrame(
            frame=index,
            messages=draw(st.lists(_messages, max_size=5)),
        )
        for index in range(num_frames)
    ]
    trace = GameTrace(
        map_name=scenario.map_name,
        num_players=scenario.players,
        seed=scenario.seed,
    )
    return Tape(scenario=scenario, trace=trace, frames=frames)


class TestRoundTrip:
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(tape=_synthetic_tapes())
    def test_write_read_is_identity(self, tape, tmp_path_factory):
        path = tmp_path_factory.mktemp("tapes") / "t.tape"
        write_tape(tape, path)
        loaded = read_tape(path)
        assert loaded.scenario == tape.scenario
        assert loaded.sha256 == tape.sha256
        assert [f.frame for f in loaded.frames] == [f.frame for f in tape.frames]
        for original, restored in zip(tape.frames, loaded.frames):
            assert restored.messages == original.messages
        assert compare_tapes(tape, loaded).clean

    @settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow])
    @given(tape=_synthetic_tapes())
    def test_rewrite_is_byte_identical(self, tape, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("tapes")
        first = write_tape(tape, tmp / "a.tape").read_bytes()
        second = write_tape(read_tape(tmp / "a.tape"), tmp / "b.tape").read_bytes()
        assert first == second

    def test_scenario_json_round_trip(self):
        for scenario in GOLDEN_PRESETS.values():
            assert TapeScenario.from_json(scenario.to_json()) == scenario

    def test_cheat_spec_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown cheat kind"):
            CheatSpec(0, "wallhack-9000")


# ---- real recordings -------------------------------------------------------

class TestRecordedTape:
    def test_recording_is_deterministic(self, small_tape):
        again = record_session(SMALL)
        assert again.sha256 == small_tape.sha256
        assert again.num_messages == small_tape.num_messages

    def test_recording_does_not_perturb_the_run(self):
        untapped = SMALL.make_session(SMALL.make_trace()).run()
        tapped = record_session(SMALL)
        rerun = SMALL.make_session(tapped.trace).run()
        assert rerun.messages_sent == untapped.messages_sent
        assert rerun.messages_lost == untapped.messages_lost
        assert rerun.age_histogram == untapped.age_histogram

    def test_round_trip_preserves_stream(self, small_tape, small_tape_path):
        loaded = read_tape(small_tape_path)
        assert loaded.sha256 == small_tape.sha256
        assert loaded.num_frames == small_tape.num_frames
        assert compare_tapes(small_tape, loaded).clean

    def test_header_is_cheap_to_read(self, small_tape_path):
        header = header_row(small_tape_path)
        assert header["format"] == TAPE_FORMAT
        assert header["scenario"]["players"] == SMALL.players

    def test_verify_clean(self, small_tape):
        result = verify_tape(small_tape)
        assert result.clean
        assert result.frames == small_tape.num_frames
        assert result.divergence is None


# ---- rejection paths -------------------------------------------------------

def _rows(path):
    return gzip.decompress(path.read_bytes()).splitlines()


def _write_rows(path, rows):
    path.write_bytes(gzip.compress(b"\n".join(rows) + b"\n", 9, mtime=0))


class TestRejection:
    def test_version_mismatch(self, small_tape_path):
        rows = _rows(small_tape_path)
        header = json.loads(rows[0])
        header["version"] = 99
        rows[0] = json.dumps(header).encode()
        _write_rows(small_tape_path, rows)
        with pytest.raises(TapeFormatError, match="unsupported tape version"):
            read_tape(small_tape_path)

    def test_format_tag_mismatch(self, small_tape_path):
        rows = _rows(small_tape_path)
        header = json.loads(rows[0])
        header["format"] = "someone-elses.tape"
        rows[0] = json.dumps(header).encode()
        _write_rows(small_tape_path, rows)
        with pytest.raises(TapeFormatError, match="unknown tape format"):
            read_tape(small_tape_path)

    def test_config_hash_mismatch(self, small_tape_path):
        rows = _rows(small_tape_path)
        header = json.loads(rows[0])
        header["scenario"]["seed"] += 1  # config no longer matches its hash
        rows[0] = json.dumps(header).encode()
        _write_rows(small_tape_path, rows)
        with pytest.raises(TapeIntegrityError, match="config_hash mismatch"):
            read_tape(small_tape_path)

    def test_payload_tamper_reports_first_bad_frame(self, small_tape_path):
        rows = _rows(small_tape_path)
        frame_indices = [
            i for i, row in enumerate(rows)
            if json.loads(row).get("kind") == "frame"
            and json.loads(row)["messages"]
        ]
        victim = frame_indices[len(frame_indices) // 2]
        row = json.loads(rows[victim])
        # Flip a byte inside the base64-armoured binary payload.
        import base64

        payload = bytearray(base64.b64decode(row["messages"][0][4]))
        payload[0] ^= 0xFF
        row["messages"][0][4] = base64.b64encode(bytes(payload)).decode("ascii")
        rows[victim] = json.dumps(row).encode()
        _write_rows(small_tape_path, rows)
        with pytest.raises(TapeIntegrityError) as excinfo:
            read_tape(small_tape_path)
        assert excinfo.value.frame == json.loads(rows[victim])["frame"]

    def test_truncation_is_rejected(self, small_tape_path):
        rows = _rows(small_tape_path)
        _write_rows(small_tape_path, rows[:-1])  # drop the footer
        with pytest.raises(TapeIntegrityError, match="truncated"):
            read_tape(small_tape_path)

    def test_garbage_file_is_rejected(self, tmp_path):
        path = tmp_path / "garbage.tape"
        path.write_bytes(b"not a gzip stream at all")
        with pytest.raises(TapeIntegrityError, match="not a readable tape"):
            read_tape(path)


# ---- divergence reporting --------------------------------------------------

class TestDivergence:
    def test_first_divergent_frame_via_monkeypatch(self, small_tape, monkeypatch):
        """A protocol change must be pinned to its first divergent frame."""
        kill_frames = sorted(
            frame.frame
            for frame in small_tape.frames
            for message in frame.messages
            if message.type_name() == "KillClaim"
        )
        assert kill_frames, "small tape must contain kill claims"
        original = WatchmenNode.claim_kill

        def skewed(self, frame, victim_id, weapon, distance):
            return original(self, frame, victim_id, weapon, distance + 1.0)

        monkeypatch.setattr(WatchmenNode, "claim_kill", skewed)
        result = verify_tape(small_tape)
        assert not result.clean
        assert result.divergence is not None
        assert result.divergence.frame == kill_frames[0]

    def test_message_diff_is_structured(self, small_tape):
        mutated = read_tape_copy(small_tape)
        victim = next(
            f for f in mutated.frames if len(f.messages) >= 2
        )
        message = victim.messages[1]
        victim.messages[1] = TapedMessage(
            src=message.src,
            dst=message.dst,
            size_bytes=message.size_bytes + 7,
            accepted=message.accepted,
            payload=message.payload,
        )
        mutated.fingerprint()
        result = compare_tapes(small_tape, mutated)
        assert not result.clean
        assert result.divergence.kind == "message"
        assert result.divergence.frame == victim.frame
        assert result.divergence.index == 1
        assert result.divergence.expected["size_bytes"] + 7 == (
            result.divergence.actual["size_bytes"]
        )

    def test_frame_count_mismatch(self, small_tape):
        shorter = read_tape_copy(small_tape)
        shorter.frames = shorter.frames[:-5]
        shorter.fingerprint()
        result = compare_tapes(small_tape, shorter)
        assert not result.clean
        assert result.divergence.kind == "frames"


def read_tape_copy(tape: Tape) -> Tape:
    """A deep, independent copy via the serialisation path."""
    return Tape(
        scenario=tape.scenario,
        trace=tape.trace,
        frames=[
            TapeFrame(frame=f.frame, messages=list(f.messages))
            for f in tape.frames
        ],
        faults=tape.faults,
        sha256=tape.sha256,
    )
