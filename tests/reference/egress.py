"""The per-destination egress ``WatchmenNode`` had before fan-out became one
operation: ``_transmit`` / ``_transmit_unfiltered`` as they stood, verbatim
but for ``self`` → ``node`` and the transport callable, which is handed one
destination at a time, and for the loopback branch, gone from the node
too: a destination that is the node itself is an ordinary one.
``tests/test_core_wire_frames.py`` holds the list-valued egress to this
loop, datagram for datagram.
"""

from __future__ import annotations

from repro.core.messages import GameMessage
from repro.core.node import WatchmenNode


def transmit_reference(
    node: WatchmenNode, message: GameMessage, destination: int
) -> None:
    """Sign and send through the behaviour hooks and the transport."""
    for out_message, out_destination in node.behaviour.filter_outgoing(
        node.current_frame, message, destination
    ):
        transmit_unfiltered_reference(node, out_message, out_destination)


def transmit_unfiltered_reference(
    node: WatchmenNode,
    message: GameMessage,
    destination: int,
    buffer: bytes | None = None,
) -> None:
    """Sign and send without re-applying the behaviour's filter."""
    if buffer is None:
        buffer = node._signed(message)
    node._acks.track(message, buffer, destination, node.current_frame)
    node._send_many(node.player_id, (destination,), buffer)
