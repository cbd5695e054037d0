"""The .tape subsystem: format round trips, integrity, and verify mode."""

from __future__ import annotations

import gc
import gzip
import json
import random
import tracemalloc
import zlib
from pathlib import Path

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
    TapeRecorder,
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


# ---- streaming: one frame held beyond what is returned ---------------------

def _write_peak(tape, path):
    """Bytes ``write_tape`` allocates above what it was handed, at its peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_tape(tape, path)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _live_tape_frames():
    return sum(isinstance(o, TapeFrame) for o in gc.get_objects())


class TestStreaming:
    def test_write_peak_is_flat_in_match_length(self, small_tape, tmp_path):
        longer = record_session(TapeScenario(players=6, frames=200, seed=5))
        assert longer.num_messages > 1.8 * small_tape.num_messages
        short_peak = _write_peak(small_tape, tmp_path / "n.tape")
        long_peak = _write_peak(longer, tmp_path / "2n.tape")
        # holding every row until the end would double it
        assert long_peak <= 1.25 * short_peak

    def test_read_shares_one_payload_per_distinct_payload_per_frame(
        self, small_tape_path
    ):
        loaded = read_tape(small_tape_path)
        objects = 0
        for tape_frame in loaded.frames:
            shared: dict[bytes, bytes] = {}
            for message in tape_frame.messages:
                assert shared.setdefault(message.payload, message.payload) is (
                    message.payload
                )
            objects += len(shared)
        assert objects < loaded.num_messages / 2  # fan-outs do share

    def test_a_clean_verify_builds_no_second_tape(self, small_tape, monkeypatch):
        """Verify drops each fresh frame once held against the tape's: it
        builds no ``Tape``, never finalizes its recorder, and at every frame
        boundary no fresh ``TapeFrame`` is alive."""
        built = []
        init = Tape.__init__
        monkeypatch.setattr(
            Tape, "__init__",
            lambda self, *args, **kwargs: built.append(1) or init(self, *args, **kwargs),
        )
        monkeypatch.setattr(
            TapeRecorder, "finalize",
            lambda self: pytest.fail("verify finalized a recording"),
        )
        hand_over = TapeRecorder.completed_frames
        calls = []
        alive = []

        def counted(self):
            calls.append(1)
            if len(calls) % 25 == 0:
                alive.append(_live_tape_frames())
            return hand_over(self)

        monkeypatch.setattr(TapeRecorder, "completed_frames", counted)
        before = _live_tape_frames()
        assert verify_tape(small_tape).clean
        assert not built
        assert len(alive) >= 3 and max(alive) <= before


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


class TestCorruptContainer:
    """A damaged gzip container fails closed with ``TapeIntegrityError``,
    even where the bytes it garbles would also fail to parse."""

    NORMAL = Path(__file__).parent / "tapes" / "normal.tape"

    def test_bit_flips_in_the_deflate_data_and_truncations(self, tmp_path):
        data = self.NORMAL.read_bytes()
        rng = random.Random(29)
        cases = []
        for _ in range(300):
            flipped = bytearray(data)
            flipped[rng.randrange(10, len(data) - 8)] ^= 1 << rng.randrange(8)
            cases.append(bytes(flipped))
        cases += [data[:cut] for cut in (0, 5, 10, len(data) // 2, len(data) - 1)]
        path = tmp_path / "corrupt.tape"
        for case in cases:
            path.write_bytes(case)
            with pytest.raises(TapeIntegrityError):
                read_tape(path)

    def test_bytes_after_the_gzip_stream_are_rejected(self, tmp_path):
        path = tmp_path / "extended.tape"
        path.write_bytes(self.NORMAL.read_bytes() + b"\0")
        with pytest.raises(TapeIntegrityError, match="after the gzip stream"):
            read_tape(path)

    def test_a_parse_error_waits_for_the_container_check(self, tmp_path):
        rows = gzip.decompress(self.NORMAL.read_bytes()).splitlines()
        rows[1] = b'{"no":"kind"}'  # a format error on its own ...
        body = b"\n".join(rows) + b"\n"
        path = tmp_path / "bad.tape"
        path.write_bytes(zlib.compress(body, 9, wbits=31))
        with pytest.raises(TapeFormatError, match="no 'kind' tag"):
            read_tape(path)
        damaged = bytearray(path.read_bytes())
        damaged[-5] ^= 0x01  # ... and the stored length now disagrees
        path.write_bytes(bytes(damaged))
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

    @pytest.mark.parametrize("mutation", ["frames", "count", "message", "digest"])
    def test_streaming_verify_reports_what_a_full_comparison_does(
        self, small_tape, mutation
    ):
        """Verify holds one fresh frame at a time; its verdict is the one a
        complete re-recording compared after the run would give."""
        tape = read_tape_copy(small_tape)
        victim = next(f for f in tape.frames if f.frame > 30 and len(f.messages) >= 2)
        if mutation == "frames":
            tape.frames = tape.frames[:-5]
        elif mutation == "count":
            del victim.messages[0]
        elif mutation == "message":
            message = victim.messages[1]
            victim.messages[1] = TapedMessage(
                message.src, message.dst, message.size_bytes + 7,
                message.accepted, message.payload,
            )
        if mutation == "digest":
            victim.digest = "0" * 64
        else:
            tape.fingerprint()
        result = verify_tape(tape)
        assert not result.clean
        assert result == compare_tapes(tape, small_tape)

    def test_streaming_verify_of_a_changed_protocol(self, small_tape, monkeypatch):
        original = WatchmenNode.claim_kill

        def skewed(self, frame, victim_id, weapon, distance):
            return original(self, frame, victim_id, weapon, distance + 1.0)

        monkeypatch.setattr(WatchmenNode, "claim_kill", skewed)
        result = verify_tape(small_tape)
        assert result.divergence.kind == "message"
        assert result == compare_tapes(small_tape, record_session(SMALL))

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
    """An independent copy of the frames and their digests."""
    return Tape(
        scenario=tape.scenario,
        trace=tape.trace,
        frames=[
            TapeFrame(frame=f.frame, messages=list(f.messages), digest=f.digest)
            for f in tape.frames
        ],
        faults=tape.faults,
        sha256=tape.sha256,
    )
