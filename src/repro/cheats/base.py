"""Cheat-injection framework: behaviours that wrap a protocol node.

Every Table I cheat is a :class:`CheatBehaviour` — a
:class:`~repro.core.node.HonestBehaviour` that overrides some of the hooks
the node calls at its trust boundary:

- ``mutate_snapshot`` — lie about one's own avatar state (speed hacks,
  teleports, escaping-into-thin-air);
- ``filter_outgoing`` — drop, delay, duplicate or rewrite messages on
  their way out (flow cheats, consistency cheats);
- ``extra_messages`` — fabricate traffic (fake kill claims, bogus
  subscriptions, replays, spoofed messages, floods).

Each behaviour keeps exact ground truth of when it actually cheated
(``cheat_frames``), which the detection experiment (Figure 6) joins
against the verifiers' ratings to compute success and false-positive
rates.
"""

from __future__ import annotations

from random import Random
from dataclasses import dataclass, field

from repro.core.node import HonestBehaviour

__all__ = ["CheatBehaviour", "CheatLog"]


@dataclass
class CheatLog:
    """Ground truth about a cheater's actual misdeeds."""

    cheat_frames: set[int] = field(default_factory=set)
    cheat_actions: int = 0
    honest_actions: int = 0

    def record_cheat(self, frame: int) -> None:
        self.cheat_frames.add(frame)
        self.cheat_actions += 1

    def record_honest(self) -> None:
        self.honest_actions += 1


class CheatBehaviour(HonestBehaviour):
    """Base cheat: honest by default, cheating on a seeded coin flip.

    ``cheat_rate`` is the probability of cheating per opportunity — the
    Figure 6 experiment runs "a cheater sends up to 10 % invalid cheat
    messages", i.e. cheat_rate=0.10.
    """

    name = "honest"

    def __init__(self, cheat_rate: float = 0.10, seed: int = 0) -> None:
        if not 0.0 <= cheat_rate <= 1.0:
            raise ValueError("cheat_rate must be in [0, 1]")
        self.cheat_rate = cheat_rate
        self.rng = Random(seed)
        self.log = CheatLog()

    # -- helpers ---------------------------------------------------------------

    def _roll(self) -> bool:
        """One cheat-opportunity coin flip (and bookkeeping)."""
        cheat = self.rng.random() < self.cheat_rate
        if not cheat:
            self.log.record_honest()
        return cheat
