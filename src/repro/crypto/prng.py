"""Verifiable pseudo-random generators for the proxy schedule.

"Each player maintains a pseudo-random number generator for each player,
including himself, initialized with the player's id and a common seed.
This means each player can determine both its own proxy and the other
players' proxies, in any given frame, without the need for communication."

The generator must therefore be (a) identical across implementations given
(common_seed, player_id), and (b) non-malleable — no player should be able
to steer his own draws.  We use SHA-256 in counter mode, which gives both:
draw *i* for player *p* is ``SHA256(seed || p || i)``, so anyone can verify
any draw of any player independently.
"""

from __future__ import annotations

import hashlib
import struct

__all__ = ["VerifiablePrng", "draw_uint"]


def draw_uint(common_seed: bytes, player_id: int, counter: int) -> int:  # repro-taint: sanitizer
    """The canonical draw: a 64-bit uint from SHA256(seed‖player‖counter).

    This is a pure function — any node can recompute any other node's draw,
    which is what makes proxy assignments *verifiable*.
    """
    if player_id < 0 or counter < 0:
        raise ValueError("player_id and counter must be non-negative")
    digest = hashlib.sha256(
        common_seed + struct.pack(">QQ", player_id, counter)
    ).digest()
    return int.from_bytes(digest[:8], "big")


class VerifiablePrng:
    """Bounded draws over :func:`draw_uint` for one player id."""

    def __init__(self, common_seed: bytes, player_id: int) -> None:
        if not common_seed:
            raise ValueError("common_seed must be non-empty")
        self.common_seed = common_seed
        self.player_id = player_id

    def below_at(self, counter: int, bound: int) -> int:
        """Unbiased bounded draw, deterministic given (counter, bound).

        Rejection sampling that walks counters deterministically (a
        rejected counter consumes one draw), so verifiers converge on the
        same value.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        offset = 0
        while True:
            value = draw_uint(self.common_seed, self.player_id, counter + offset)
            if value < limit:
                return value % bound
            offset += 1
