"""The committed golden corpus must stay readable, intact, and replayable.

The fast checks (integrity + header/preset agreement) run in tier-1; the
full re-simulation of every tape is the CI replay gate's job (see
ci.yml's ``replay-gate``) and runs here under the ``slow`` marker so
``make fast`` stays quick while nightly still exercises it via pytest.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.replay import (
    GOLDEN_PRESETS,
    config_hash,
    read_tape,
    verify_tape,
)
from repro.replay.tape import _canonical

from tests.test_replay_tape import header_row

TAPES_DIR = Path(__file__).parent / "tapes"
PRESETS = sorted(GOLDEN_PRESETS)


def test_corpus_is_complete():
    committed = {path.stem for path in TAPES_DIR.glob("*.tape")}
    assert committed == set(GOLDEN_PRESETS), (
        "tests/tapes/ and GOLDEN_PRESETS must stay in sync (make tapes)"
    )


@pytest.mark.parametrize("preset", PRESETS)
def test_tape_integrity(preset):
    tape = read_tape(TAPES_DIR / f"{preset}.tape")
    assert tape.num_frames == GOLDEN_PRESETS[preset].frames
    assert tape.num_messages > 0
    assert tape.scenario == GOLDEN_PRESETS[preset]


@pytest.mark.parametrize("preset", PRESETS)
def test_header_matches_preset(preset):
    header = header_row(TAPES_DIR / f"{preset}.tape")
    tape = read_tape(TAPES_DIR / f"{preset}.tape")
    assert header["config_hash"] == config_hash(
        GOLDEN_PRESETS[preset], tape.faults
    ), "committed tape was recorded under a different configuration"


@pytest.mark.parametrize("preset", PRESETS)
def test_digest_envelope_is_the_canonical_json_one(preset):
    """``digest_bytes`` formats its four ints itself; over every message of
    the corpus that is byte for byte the canonical JSON envelope."""
    tape = read_tape(TAPES_DIR / f"{preset}.tape")
    for tape_frame in tape.frames:
        for message in tape_frame.messages:
            envelope = [message.src, message.dst, message.size_bytes, int(message.accepted)]
            assert message.digest_bytes() == _canonical(envelope) + b"|" + message.payload


def test_chaos_tape_embeds_fault_schedule():
    tape = read_tape(TAPES_DIR / "chaos.tape")
    assert tape.faults is not None and tape.faults.proxy_crashes
    assert read_tape(TAPES_DIR / "normal.tape").faults is None


def test_cheater_tape_declares_cheats():
    tape = read_tape(TAPES_DIR / "cheater.tape")
    assert {spec.kind for spec in tape.scenario.cheats} == {
        "speed-hack", "fake-kill", "guidance-lie", "teleport",
    }


@pytest.mark.slow
@pytest.mark.parametrize("preset", PRESETS)
def test_corpus_replays_byte_identically(preset):
    result = verify_tape(read_tape(TAPES_DIR / f"{preset}.tape"))
    assert result.clean, (
        None if result.divergence is None else result.divergence.describe()
    )
