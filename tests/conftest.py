"""Shared fixtures: small deterministic traces, maps and session runs.

Expensive artifacts (traces, full protocol runs) are session-scoped so the
suite stays fast while many test modules share them.
"""

from __future__ import annotations

import pytest

from repro.core import ReputationBoard, WatchmenConfig, WatchmenSession
from repro.game import GameTrace, generate_trace, make_longest_yard

from tests.arena import make_arena


@pytest.fixture(scope="session")
def longest_yard():
    return make_longest_yard()


@pytest.fixture(scope="session")
def arena():
    return make_arena()


@pytest.fixture(scope="session")
def small_trace(longest_yard) -> GameTrace:
    """8 players, 160 frames — enough for several proxy epochs."""
    return generate_trace(
        num_players=8, num_frames=160, seed=42, game_map=longest_yard
    )


@pytest.fixture(scope="session")
def medium_trace(longest_yard) -> GameTrace:
    """12 players, 240 frames — used by the heavier integration tests."""
    return generate_trace(
        num_players=12, num_frames=240, seed=7, game_map=longest_yard
    )


@pytest.fixture(scope="session")
def honest_session_report(small_trace, longest_yard):
    """One full honest Watchmen run shared across tests."""
    session = WatchmenSession(small_trace, game_map=longest_yard)
    report = session.run()
    return session, report


@pytest.fixture()
def watchmen_config() -> WatchmenConfig:
    return WatchmenConfig()


@pytest.fixture()
def reputation_board() -> ReputationBoard:
    return ReputationBoard()
