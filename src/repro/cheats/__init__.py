"""Cheat-injection framework covering every Table I cheat."""

from repro.cheats.base import CheatBehaviour, CheatLog
from repro.cheats.collusion import Coalition, sample_coalitions
from repro.cheats.flow import (
    BlindOpponentCheat,
    EscapingCheat,
    FastRateCheat,
    NetworkFloodCheat,
    SuppressCorrectCheat,
    TimeCheat,
)
from repro.cheats.info import (
    MaphackProbe,
    ProbeResult,
    SniffingProbe,
)
from repro.cheats.state import (
    AimbotCheat,
    BogusSubscriptionCheat,
    ConsistencyCheat,
    FakeKillCheat,
    GuidanceLieCheat,
    ReplayCheat,
    SpeedHack,
    SpoofCheat,
    TeleportCheat,
)

__all__ = [
    "AimbotCheat",
    "BlindOpponentCheat",
    "BogusSubscriptionCheat",
    "CheatBehaviour",
    "CheatLog",
    "Coalition",
    "ConsistencyCheat",
    "EscapingCheat",
    "FakeKillCheat",
    "FastRateCheat",
    "GuidanceLieCheat",
    "MaphackProbe",
    "NetworkFloodCheat",
    "ProbeResult",
    "ReplayCheat",
    "SniffingProbe",
    "SpeedHack",
    "SpoofCheat",
    "SuppressCorrectCheat",
    "TeleportCheat",
    "TimeCheat",
    "sample_coalitions",
]
