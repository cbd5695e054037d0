"""Quake-III-class game substrate: world, physics, bots, traces.

This package replaces the paper's enhanced Quake III as the source of game
traces.  The public surface:

- :class:`~repro.game.gamemap.GameMap` and
  :func:`~repro.game.gamemap.make_longest_yard` — the q3dm17-like world;
- :class:`~repro.game.simulator.DeathmatchSimulator` /
  :func:`~repro.game.simulator.generate_trace` — trace generation;
- :class:`~repro.game.trace.GameTrace` — the recorded game;
- :func:`~repro.game.interest.compute_sets` — IS/VS/Others classification;
- :mod:`~repro.game.deadreckoning` — the guidance prediction verifiers
  hold positions against.
"""

from repro.game.avatar import AvatarSnapshot, AvatarState
from repro.game.gamemap import (
    Box,
    GameMap,
    ItemKind,
    ItemSpec,
    make_corridors,
    make_longest_yard,
)
from repro.game.interest import (
    InteractionRecency,
    InterestConfig,
    InterestSets,
    LosCache,
    ObserverFrame,
    compute_all_sets,
    compute_sets,
)
from repro.game.physics import MoveIntent, Physics, PhysicsConfig
from repro.game.simulator import DeathmatchSimulator, SimulationConfig, generate_trace
from repro.game.trace import GameTrace, KillEvent, ShotEvent
from repro.game.vector import Vec3

__all__ = [
    "AvatarSnapshot",
    "AvatarState",
    "Box",
    "DeathmatchSimulator",
    "GameMap",
    "GameTrace",
    "InteractionRecency",
    "InterestConfig",
    "InterestSets",
    "ItemKind",
    "ItemSpec",
    "KillEvent",
    "LosCache",
    "MoveIntent",
    "ObserverFrame",
    "Physics",
    "PhysicsConfig",
    "ShotEvent",
    "SimulationConfig",
    "Vec3",
    "compute_all_sets",
    "compute_sets",
    "generate_trace",
    "make_corridors",
    "make_longest_yard",
]
