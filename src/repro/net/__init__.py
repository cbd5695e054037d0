"""Wide-area network substrate: event engine, latency models, transport.

Public surface:

- :class:`~repro.net.events.EventQueue` — deterministic discrete events;
- :func:`~repro.net.latency.king_like` / :func:`~repro.net.latency.peerwise_like`
  — synthetic stand-ins for the King and PeerWise latency datasets;
- :class:`~repro.net.transport.DatagramNetwork` — UDP-like unreliable
  delivery with loss, jitter and bandwidth metering;
- :class:`~repro.net.bandwidth.BandwidthMeter` — kbps accounting.
"""

from repro.net.bandwidth import BandwidthMeter, NodeUsage
from repro.net.events import EventQueue, SimulationError
from repro.net.latency import LatencyMatrix, king_like, peerwise_like, uniform_lan
from repro.net.transport import DatagramNetwork, NetworkConfig

__all__ = [
    "BandwidthMeter",
    "DatagramNetwork",
    "EventQueue",
    "LatencyMatrix",
    "NetworkConfig",
    "NodeUsage",
    "SimulationError",
    "king_like",
    "peerwise_like",
    "uniform_lan",
]
