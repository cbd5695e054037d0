"""The tests' one door onto the wire.

Nodes and the transport speak ``bytes``; tests think in message objects.
Everything that crosses between the two goes through here, so a test
hands a node a *frame* the way a peer would, and reads back what a node
sent as the message that frame decodes to.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.messages import GameMessage
from repro.core.wire import decode_bytes, encode_bytes

__all__ = ["as_frame", "as_message", "deliver", "LoopbackWire"]


def as_frame(message: GameMessage) -> bytes:
    """The canonical frame of a hand-built (signed or unsigned) message."""
    return encode_bytes(message)


def as_message(frame: bytes) -> GameMessage:
    return decode_bytes(frame)


def deliver(node, src: int, message: GameMessage) -> None:
    """Hand ``node`` the frame of ``message`` as if hop ``src`` sent it."""
    node.on_message(src, as_frame(message))


class LoopbackWire:
    """An instant, lossless, synchronous transport for node harnesses.

    ``send_many`` is what a :class:`~repro.core.node.WatchmenNode` is
    built with; ``nodes`` is filled by the harness; ``sent`` lists every
    datagram as ``(src, dst, decoded message)`` and ``frames`` the raw
    buffers, index for index.  ``lose`` picks messages that vanish in
    flight (accepted, never recorded or delivered).
    """

    def __init__(self, lose: Callable[[GameMessage], bool] | None = None) -> None:
        self.nodes: dict = {}
        self.sent: list[tuple[int, int, GameMessage]] = []
        self.frames: list[bytes] = []
        self.lose = lose

    def send_many(self, src: int, dsts: Sequence[int], frame: bytes) -> None:
        message = as_message(frame)
        if self.lose is not None and self.lose(message):
            return
        for dst in dsts:
            self.sent.append((src, dst, message))
            self.frames.append(frame)
            node = self.nodes.get(dst)
            if node is not None:
                node.on_message(src, frame)
