"""``repro tape`` CLI: exit-code contract (0 clean / 1 divergent / 2 usage)."""

from __future__ import annotations

import gzip
import json
import zlib
from dataclasses import replace

import pytest

from repro.cli import main
from repro.replay.tape import read_tape, write_tape

#: Tiny enough for sub-second records inside the test run.
RECORD_ARGS = ["--players", "4", "--frames", "60", "--seed", "3"]


@pytest.fixture(scope="module")
def tape_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.tape"
    assert main(["tape", "record", *RECORD_ARGS, "--out", str(path)]) == 0
    return path


def _corrupt_payload(path, out):
    body = gzip.decompress(path.read_bytes())
    marker = b'"messages":[['
    index = body.find(marker) + len(marker)
    flip = b"9" if body[index:index + 1] != b"9" else b"8"
    out.write_bytes(
        gzip.compress(body[:index] + flip + body[index + 1:], 9, mtime=0)
    )
    return out


class TestRecord:
    def test_record_is_deterministic(self, tape_path, tmp_path):
        again = tmp_path / "again.tape"
        assert main(["tape", "record", *RECORD_ARGS, "--out", str(again)]) == 0
        assert again.read_bytes() == tape_path.read_bytes()

    def test_unknown_chaos_scenario_is_usage_error(self, tmp_path, capsys):
        code = main([
            "tape", "record", *RECORD_ARGS,
            "--chaos", "meteor_strike", "--out", str(tmp_path / "x.tape"),
        ])
        assert code == 2
        assert "unknown chaos scenario" in capsys.readouterr().err

    def test_unknown_preset_is_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["tape", "record", "--preset", "nope",
                  "--out", str(tmp_path / "x.tape")])
        assert excinfo.value.code == 2


class TestVerify:
    def test_clean_tape_exits_zero(self, tape_path, capsys):
        assert main(["tape", "verify", str(tape_path)]) == 0
        assert "re-simulated byte-identically" in capsys.readouterr().out

    def test_corrupted_tape_exits_one(self, tape_path, tmp_path, capsys):
        bad = _corrupt_payload(tape_path, tmp_path / "bad.tape")
        assert main(["tape", "verify", str(bad)]) == 1
        assert "digest mismatch" in capsys.readouterr().err

    def test_divergence_report_is_written(self, tape_path, tmp_path):
        bad = _corrupt_payload(tape_path, tmp_path / "bad.tape")
        report = tmp_path / "divergence.json"
        code = main([
            "tape", "verify", str(tape_path), str(bad),
            "--diff-out", str(report),
        ])
        assert code == 1
        assert report.is_file()
        text = report.read_text()
        assert '"clean": false' in text and '"clean": true' in text

    def test_a_broken_deflate_stream_fails_and_the_rest_still_verify(
        self, tape_path, tmp_path, capsys
    ):
        data = tape_path.read_bytes()
        for position in range(10, len(data) - 8):  # first flip zlib rejects
            broken = bytearray(data)
            broken[position] ^= 0x80
            try:
                zlib.decompress(bytes(broken), wbits=31)
            except zlib.error:
                break
        bad = tmp_path / "broken.tape"
        bad.write_bytes(bytes(broken))
        report = tmp_path / "divergence.json"
        code = main([
            "tape", "verify", str(bad), str(tape_path),
            "--diff-out", str(report),
        ])
        assert code == 1
        assert "not a readable tape" in capsys.readouterr().err
        results = json.loads(report.read_text())["results"]
        assert [r["clean"] for r in results] == [False, True]

    def test_missing_tape_exits_two(self, tmp_path):
        assert main(["tape", "verify", str(tmp_path / "missing.tape")]) == 2


class TestInspectAndDiff:
    def test_inspect_prints_header(self, tape_path, capsys):
        assert main(["tape", "inspect", str(tape_path)]) == 0
        out = capsys.readouterr().out
        assert "repro.tape.v1" in out
        assert "4 players" in out
        assert "(profile hardened)" in out

    def test_inspect_refuses_flags_that_name_no_rung(self, tape_path, tmp_path, capsys):
        tape = read_tape(tape_path)
        tape.scenario = replace(tape.scenario, hardening=False)
        mixed = write_tape(tape, tmp_path / "mixed.tape")
        assert main(["tape", "inspect", str(mixed)]) == 2
        assert "must agree" in capsys.readouterr().err

    def test_diff_identical_exits_zero(self, tape_path, tmp_path):
        other = tmp_path / "copy.tape"
        other.write_bytes(tape_path.read_bytes())
        assert main(["tape", "diff", str(tape_path), str(other)]) == 0

    def test_diff_corrupted_is_integrity_failure(self, tape_path, tmp_path, capsys):
        bad = _corrupt_payload(tape_path, tmp_path / "bad.tape")
        assert main(["tape", "diff", str(tape_path), str(bad)]) == 1
        assert "digest mismatch" in capsys.readouterr().err
