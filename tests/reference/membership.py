"""``MembershipView.heard_from`` as it stood before a heartbeat skipped the
suspicion tables when nothing was pending: it pops all three on every
call.  Verbatim but for ``self``, which stays the first parameter, so the
body reads as the method did.  ``tests/test_core_membership.py`` holds the
two to the same view state after every step of random interleavings.
"""

from __future__ import annotations

from repro.core.membership import MembershipView

__all__ = ["heard_from_reference"]


def heard_from_reference(self: MembershipView, player_id: int, frame: int) -> None:
    """Any consumed update about a player refreshes his heartbeat."""
    if player_id in self._last_heard:
        self._last_heard[player_id] = max(
            self._last_heard[player_id], frame
        )
        if player_id not in self.removed and player_id not in self.convicted:
            self._proposals.pop(player_id, None)
            self._own_proposals.discard(player_id)
            self._scheduled_removals.pop(player_id, None)
