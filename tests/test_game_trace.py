"""Tests for trace recording and persistence."""

import pytest

from repro.game.trace import GameTrace, ShotEvent


class TestRecording:
    def test_record_frame_validates_player_count(self, small_trace):
        trace = GameTrace(map_name="x", num_players=3)
        with pytest.raises(ValueError):
            trace.record_frame(dict(small_trace.frames[0]))  # 8 players

    def test_player_ids_sorted(self, small_trace):
        ids = small_trace.player_ids()
        assert ids == sorted(ids)

    def test_empty_trace_has_no_players(self):
        trace = GameTrace(map_name="x", num_players=3)
        assert trace.player_ids() == []


class TestPersistence:
    def test_jsonl_roundtrip(self, small_trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        small_trace.save_jsonl(path)
        loaded = GameTrace.load_jsonl(path)
        assert loaded.map_name == small_trace.map_name
        assert loaded.num_players == small_trace.num_players
        assert loaded.num_frames == small_trace.num_frames
        assert loaded.seed == small_trace.seed
        for frame in (0, 80, 159):
            for pid in small_trace.player_ids():
                assert loaded.snapshot(frame, pid) == small_trace.snapshot(
                    frame, pid
                )
        assert loaded.shots == small_trace.shots
        assert loaded.kills == small_trace.kills
        assert len(loaded.events) == len(small_trace.events)

    def test_load_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "frame", "frame": 0, "avatars": []}\n')
        with pytest.raises(ValueError, match="header"):
            GameTrace.load_jsonl(path)

    def test_load_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            GameTrace.load_jsonl(path)

    def test_load_unknown_row_type_rejected(self, tmp_path, small_trace):
        path = tmp_path / "weird.jsonl"
        small_trace.save_jsonl(path)
        with path.open("a") as handle:
            handle.write('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="mystery"):
            GameTrace.load_jsonl(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"type": "header", "version": 99, "map": "m", "players": 2,'
            ' "frame_seconds": 0.05, "seed": 0}\n'
        )
        with pytest.raises(ValueError, match="version"):
            GameTrace.load_jsonl(path)
