"""The declarative fault vocabulary: what goes wrong, and when.

Every fault is a frozen dataclass keyed by simulation frames, so a
schedule is pure data — serialisable, comparable, and independent of the
session it is later injected into.  Frames (not wall-clock seconds) keep
faults aligned with protocol epochs: "kill the proxy mid-epoch" is
``CrashProxyFault(player_id=3, frame=60)`` regardless of frame rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.byzantine import (
    AckWithholdFault,
    ByzantineFault,
    EquivocationFault,
    FloodFault,
    SelectiveForwardFault,
    TamperFault,
)

__all__ = [
    "CrashFault",
    "CrashProxyFault",
    "PartitionFault",
    "LatencySpikeFault",
    "DuplicateFault",
    "FaultSchedule",
]


@dataclass(frozen=True, slots=True)
class CrashFault:
    """Crash-stop: the node falls silent at ``frame`` and never returns."""

    node_id: int
    frame: int

    def __post_init__(self) -> None:
        if self.frame < 0:
            raise ValueError("crash frame must be non-negative")


@dataclass(frozen=True, slots=True)
class CrashProxyFault:
    """Crash whoever is ``player_id``'s proxy at ``frame``.

    The concrete victim depends on the verifiable proxy schedule, so it is
    resolved by :meth:`repro.faults.injector.FaultInjector.resolve` once
    the session's schedule exists — the declaration stays portable across
    seeds and rosters.
    """

    player_id: int
    frame: int

    def __post_init__(self) -> None:
        if self.frame < 0:
            raise ValueError("crash frame must be non-negative")


@dataclass(frozen=True, slots=True)
class PartitionFault:
    """Cut all links between two node groups, then heal.

    Packets crossing the cut during [start_frame, end_frame) are dropped
    with cause ``partition``; traffic inside each group is unaffected.
    """

    group_a: frozenset[int]
    group_b: frozenset[int]
    start_frame: int
    end_frame: int

    def __post_init__(self) -> None:
        if self.start_frame < 0 or self.end_frame <= self.start_frame:
            raise ValueError("partition window must be non-empty and non-negative")
        if self.group_a & self.group_b:
            raise ValueError("partition groups must be disjoint")
        if not self.group_a or not self.group_b:
            raise ValueError("partition groups must be non-empty")

    def severs(self, src: int, dst: int) -> bool:
        return (src in self.group_a and dst in self.group_b) or (
            src in self.group_b and dst in self.group_a
        )


@dataclass(frozen=True, slots=True)
class LatencySpikeFault:
    """Extra one-way delay on a link (both directions when symmetric)."""

    src: int
    dst: int
    start_frame: int
    end_frame: int
    extra_ms: float
    symmetric: bool = True

    def __post_init__(self) -> None:
        if self.start_frame < 0 or self.end_frame <= self.start_frame:
            raise ValueError("spike window must be non-empty and non-negative")
        if self.extra_ms < 0:
            raise ValueError("extra_ms must be non-negative")

    def affects(self, src: int, dst: int) -> bool:
        if (src, dst) == (self.src, self.dst):
            return True
        return self.symmetric and (dst, src) == (self.src, self.dst)


@dataclass(frozen=True, slots=True)
class DuplicateFault:
    """Duplicate each in-flight packet with probability ``rate``.

    The copy arrives ``offset_ms`` after the original — exercising the
    receivers' sequence-based screening under benign duplication.
    """

    rate: float
    start_frame: int
    end_frame: int
    offset_ms: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("duplicate rate must be in [0, 1]")
        if self.start_frame < 0 or self.end_frame <= self.start_frame:
            raise ValueError("duplication window must be non-empty and non-negative")
        if self.offset_ms < 0:
            raise ValueError("offset_ms must be non-negative")


@dataclass(frozen=True)
class FaultSchedule:
    """Everything that will go wrong in one run, as pure data.

    ``seed`` feeds the injector's private RNG lane (used only for
    probabilistic faults like duplication), kept separate from the
    network's RNG so adding faults never perturbs fault-free draws.
    """

    crashes: tuple[CrashFault, ...] = ()
    proxy_crashes: tuple[CrashProxyFault, ...] = ()
    partitions: tuple[PartitionFault, ...] = ()
    latency_spikes: tuple[LatencySpikeFault, ...] = ()
    duplications: tuple[DuplicateFault, ...] = ()
    #: adversarial entries (repro.faults.byzantine): designated nodes act
    #: maliciously for a frame window instead of merely failing
    byzantine: tuple[ByzantineFault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        crashed = [c.node_id for c in self.crashes]
        if len(crashed) != len(set(crashed)):
            raise ValueError("a node may crash at most once")

    def byzantine_for(self, node_id: int) -> tuple[ByzantineFault, ...]:
        """The adversarial entries assigned to one node."""
        return tuple(f for f in self.byzantine if f.node_id == node_id)

    def byzantine_node_ids(self) -> frozenset[int]:
        return frozenset(f.node_id for f in self.byzantine)

    # ---- persistence ------------------------------------------------------
    #
    # A schedule is pure data, so it serializes losslessly; the tape
    # format (:mod:`repro.replay`) embeds the materialised schedule so a
    # recorded chaos run replays with the identical fault plan even if
    # the scenario-building logic later changes.

    def to_json(self) -> dict:
        """JSON-safe dict; inverse of :meth:`from_json`."""
        return {
            "seed": self.seed,
            "crashes": [
                {"node_id": c.node_id, "frame": c.frame} for c in self.crashes
            ],
            "proxy_crashes": [
                {"player_id": c.player_id, "frame": c.frame}
                for c in self.proxy_crashes
            ],
            "partitions": [
                {
                    "group_a": sorted(p.group_a),
                    "group_b": sorted(p.group_b),
                    "start_frame": p.start_frame,
                    "end_frame": p.end_frame,
                }
                for p in self.partitions
            ],
            "latency_spikes": [
                {
                    "src": s.src,
                    "dst": s.dst,
                    "start_frame": s.start_frame,
                    "end_frame": s.end_frame,
                    "extra_ms": s.extra_ms,
                    "symmetric": s.symmetric,
                }
                for s in self.latency_spikes
            ],
            "duplications": [
                {
                    "rate": d.rate,
                    "start_frame": d.start_frame,
                    "end_frame": d.end_frame,
                    "offset_ms": d.offset_ms,
                }
                for d in self.duplications
            ],
            "byzantine": [_byzantine_to_json(b) for b in self.byzantine],
        }

    @staticmethod
    def from_json(data: dict) -> "FaultSchedule":
        """Rebuild a schedule from :meth:`to_json` output."""
        return FaultSchedule(
            crashes=tuple(CrashFault(**row) for row in data.get("crashes", ())),
            proxy_crashes=tuple(
                CrashProxyFault(**row) for row in data.get("proxy_crashes", ())
            ),
            partitions=tuple(
                PartitionFault(
                    group_a=frozenset(row["group_a"]),
                    group_b=frozenset(row["group_b"]),
                    start_frame=row["start_frame"],
                    end_frame=row["end_frame"],
                )
                for row in data.get("partitions", ())
            ),
            latency_spikes=tuple(
                LatencySpikeFault(**row) for row in data.get("latency_spikes", ())
            ),
            duplications=tuple(
                DuplicateFault(**row) for row in data.get("duplications", ())
            ),
            byzantine=tuple(
                _byzantine_from_json(row) for row in data.get("byzantine", ())
            ),
            seed=data.get("seed", 0),
        )


# ---- byzantine (de)serialization -----------------------------------------
#
# One row per entry with a ``kind`` discriminator; victim sets serialize
# sorted so identical schedules produce identical bytes.

_BYZANTINE_KINDS: dict[str, type] = {
    "equivocation": EquivocationFault,
    "tamper": TamperFault,
    "selective_forward": SelectiveForwardFault,
    "flood": FloodFault,
    "ack_withhold": AckWithholdFault,
}


def _byzantine_to_json(fault: ByzantineFault) -> dict:
    kind = next(k for k, t in _BYZANTINE_KINDS.items() if type(fault) is t)
    row: dict = {"kind": kind}
    for name in fault.__dataclass_fields__:
        value = getattr(fault, name)
        row[name] = sorted(value) if isinstance(value, frozenset) else value
    return row


def _byzantine_from_json(row: dict) -> ByzantineFault:
    fields = dict(row)
    cls = _BYZANTINE_KINDS[fields.pop("kind")]
    if "victims" in fields:
        fields["victims"] = frozenset(fields["victims"])
    return cls(**fields)
