"""Unauthorized-access probes: sniffing and maphack.

These cheats are *prevented* rather than detected: Watchmen minimises what
reaches a player's machine, so there is nothing useful to sniff.  The
probes below quantify exactly that — they are measurement instruments over
a dissemination model, not behaviours:

- :class:`SniffingProbe` — what fraction of the game state is present in
  the cheater's inbound traffic at all (a packet sniffer's ceiling);
- :class:`MaphackProbe` — of the players *not* legitimately visible, how
  many could a wallhack renderer draw with fresh coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import DisseminationModel
from repro.core.disclosure import InfoLevel

__all__ = ["SniffingProbe", "MaphackProbe", "ProbeResult"]


@dataclass(frozen=True, slots=True)
class ProbeResult:
    """Outcome of one probe over one frame."""

    cheater_id: int
    exposed: int  # players the probe could exploit
    total: int  # honest players considered

    @property
    def fraction(self) -> float:
        return self.exposed / self.total if self.total else 0.0


class SniffingProbe:
    """Counts players about whom *any* state beyond position arrives."""

    def measure(
        self, model: DisseminationModel, cheater_id: int, players: list[int]
    ) -> ProbeResult:
        exposed = 0
        total = 0
        for subject in players:
            if subject == cheater_id:
                continue
            total += 1
            level = model.info_level(cheater_id, subject)
            if level in (
                InfoLevel.COMPLETE,
                InfoLevel.FREQUENT,
                InfoLevel.DEAD_RECKONING,
            ):
                exposed += 1
        return ProbeResult(cheater_id=cheater_id, exposed=exposed, total=total)


class MaphackProbe:
    """Counts invisible players the cheater still has fresh coordinates for.

    ``visible`` must be the set the cheater could legitimately render
    (his occlusion-culled vision).  A maphack exploits precise positions
    of players outside that set — i.e. FREQUENT/DR/COMPLETE info about
    invisible players.  Infrequent (1 Hz, position-only) data is what the
    architecture deliberately leaves: too stale to aim with.
    """

    def measure(
        self,
        model: DisseminationModel,
        cheater_id: int,
        players: list[int],
        visible: frozenset[int],
    ) -> ProbeResult:
        exposed = 0
        total = 0
        for subject in players:
            if subject == cheater_id or subject in visible:
                continue
            total += 1
            level = model.info_level(cheater_id, subject)
            if level in (
                InfoLevel.COMPLETE,
                InfoLevel.FREQUENT,
                InfoLevel.DEAD_RECKONING,
            ):
                exposed += 1
        return ProbeResult(cheater_id=cheater_id, exposed=exposed, total=total)
