"""Deterministic match record/replay: the ``.tape`` subsystem.

Records a full Watchmen session — scenario config, every RNG lane's
seed, the materialised fault schedule, per-frame player inputs, and the
complete wire-encoded message stream — into a versioned, fingerprinted
``.tape`` file.  Verify mode re-simulates from the recorded inputs and
reports the first divergent frame.  See ``docs/REPLAY.md`` for the format
spec and the CI replay gate built on top.
"""

from repro.replay.player import (
    Divergence,
    VerifyResult,
    compare_tapes,
    diff_tapes,
    verify_tape,
)
from repro.replay.recorder import TapeRecorder, record_session
from repro.replay.scenario import (
    CHEAT_FACTORIES,
    GOLDEN_PRESETS,
    CheatSpec,
    TapeScenario,
    make_cheat,
)
from repro.replay.tape import (
    TAPE_FORMAT,
    TAPE_VERSION,
    Tape,
    TapedMessage,
    TapeError,
    TapeFormatError,
    TapeFrame,
    TapeIntegrityError,
    config_hash,
    read_tape,
    write_tape,
)

__all__ = [
    "TAPE_FORMAT",
    "TAPE_VERSION",
    "Tape",
    "TapedMessage",
    "TapeFrame",
    "TapeError",
    "TapeFormatError",
    "TapeIntegrityError",
    "config_hash",
    "read_tape",
    "write_tape",
    "TapeRecorder",
    "record_session",
    "TapeScenario",
    "CheatSpec",
    "CHEAT_FACTORIES",
    "GOLDEN_PRESETS",
    "make_cheat",
    "Divergence",
    "VerifyResult",
    "verify_tape",
    "compare_tapes",
    "diff_tapes",
]
