"""Game traces: the bridge between the simulator and every experiment.

The paper adds "a tracing module ... that records in a trace file all
important game information, e.g., different sets, players position, aim,
weapons, ammo, health, and speed, as well as items location, item pickups,
shootings, and killing of players", and builds a replay engine on top.
This module is that format: a :class:`GameTrace` holds per-frame avatar
snapshots plus the event stream, persists to JSONL, and exposes replay
cursors so experiments are exactly repeatable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.config import FRAME_SECONDS
from repro.game.avatar import AvatarSnapshot
from repro.game.vector import Vec3

__all__ = ["ShotEvent", "KillEvent", "TraceEvent", "GameTrace"]

TRACE_FORMAT_VERSION = 1


@dataclass(frozen=True, slots=True)
class ShotEvent:
    """A shot fired (hit or miss)."""

    frame: int
    shooter_id: int
    target_id: int
    weapon: str
    hit: bool
    damage: int
    distance: float
    visible: bool


@dataclass(frozen=True, slots=True)
class KillEvent:
    """A kill: the interaction Watchmen's kill-claim verification targets."""

    frame: int
    killer_id: int
    victim_id: int
    weapon: str
    distance: float


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Generic trace event wrapper (pickups and future event kinds)."""

    frame: int
    kind: str
    payload: dict


@dataclass
class GameTrace:
    """A recorded game: per-frame snapshots of every avatar plus events."""

    map_name: str
    num_players: int
    frame_seconds: float = FRAME_SECONDS
    seed: int = 0
    frames: list[dict[int, AvatarSnapshot]] = field(default_factory=list)
    shots: list[ShotEvent] = field(default_factory=list)
    kills: list[KillEvent] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)

    # ---- recording ----------------------------------------------------------

    def record_frame(self, snapshots: dict[int, AvatarSnapshot]) -> None:
        if len(snapshots) != self.num_players:
            raise ValueError(
                f"expected {self.num_players} snapshots, got {len(snapshots)}"
            )
        self.frames.append(dict(snapshots))

    @property
    def num_frames(self) -> int:
        return len(self.frames)

    def player_ids(self) -> list[int]:
        if not self.frames:
            return []
        return sorted(self.frames[0])

    def snapshot(self, frame: int, player_id: int) -> AvatarSnapshot:
        return self.frames[frame][player_id]

    # ---- persistence ---------------------------------------------------------

    def to_json_rows(self) -> Iterator[dict]:
        """The trace as JSON-safe row dicts (header first).

        This is the single serialized shape: ``save_jsonl`` writes one row
        per line, and the tape format (:mod:`repro.replay`) embeds the same
        rows so a ``.tape`` is self-contained.
        """
        yield {
            "type": "header",
            "version": TRACE_FORMAT_VERSION,
            "map": self.map_name,
            "players": self.num_players,
            "frame_seconds": self.frame_seconds,
            "seed": self.seed,
        }
        for frame_index, snapshots in enumerate(self.frames):
            yield {
                "type": "frame",
                "frame": frame_index,
                "avatars": [_snapshot_to_json(s) for s in snapshots.values()],
            }
        for shot in self.shots:
            yield {"type": "shot", **asdict(shot)}
        for kill in self.kills:
            yield {"type": "kill", **asdict(kill)}
        for event in self.events:
            yield {"type": "event", "frame": event.frame, "kind": event.kind,
                   "payload": event.payload}

    @staticmethod
    def from_json_rows(rows: "Iterable[dict]") -> "GameTrace":
        """Inverse of :meth:`to_json_rows`; raises ValueError on bad rows."""
        trace: GameTrace | None = None
        frame_rows: list[tuple[int, dict[int, AvatarSnapshot]]] = []
        for row in rows:
            row = dict(row)
            kind = row.pop("type")
            if kind == "header":
                if row["version"] != TRACE_FORMAT_VERSION:
                    raise ValueError(
                        f"unsupported trace version {row['version']}"
                    )
                trace = GameTrace(
                    map_name=row["map"],
                    num_players=row["players"],
                    frame_seconds=row["frame_seconds"],
                    seed=row["seed"],
                )
            elif trace is None:
                raise ValueError("trace rows missing header")
            elif kind == "frame":
                snapshots = {
                    s["player_id"]: _snapshot_from_json(s)
                    for s in row["avatars"]
                }
                frame_rows.append((row["frame"], snapshots))
            elif kind == "shot":
                trace.shots.append(ShotEvent(**row))
            elif kind == "kill":
                trace.kills.append(KillEvent(**row))
            elif kind == "event":
                trace.events.append(
                    TraceEvent(row["frame"], row["kind"], row["payload"])
                )
            else:
                raise ValueError(f"unknown trace row type {kind!r}")
        if trace is None:
            raise ValueError("no trace rows")
        frame_rows.sort(key=lambda pair: pair[0])
        trace.frames = [snapshots for _, snapshots in frame_rows]
        return trace

    def save_jsonl(self, path: str | Path) -> None:
        """Write the trace as one JSON object per line (header first)."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for row in self.to_json_rows():
                handle.write(json.dumps(row) + "\n")

    @staticmethod
    def load_jsonl(path: str | Path) -> "GameTrace":
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            try:
                return GameTrace.from_json_rows(
                    json.loads(line) for line in handle if line.strip()
                )
            except ValueError as error:
                if "no trace rows" in str(error):
                    raise ValueError("empty trace file") from None
                if "missing header" in str(error):
                    raise ValueError("trace file missing header line") from None
                raise


def _snapshot_to_json(snap: AvatarSnapshot) -> dict:
    return {
        "player_id": snap.player_id,
        "frame": snap.frame,
        "position": snap.position.to_tuple(),
        "velocity": snap.velocity.to_tuple(),
        "yaw": snap.yaw,
        "health": snap.health,
        "armor": snap.armor,
        "weapon": snap.weapon,
        "ammo": snap.ammo,
        "alive": snap.alive,
    }


def _snapshot_from_json(row: dict) -> AvatarSnapshot:
    return AvatarSnapshot(
        player_id=row["player_id"],
        frame=row["frame"],
        position=Vec3.from_tuple(tuple(row["position"])),
        velocity=Vec3.from_tuple(tuple(row["velocity"])),
        yaw=row["yaw"],
        health=row["health"],
        armor=row["armor"],
        weapon=row["weapon"],
        ammo=row["ammo"],
        alive=row["alive"],
    )
