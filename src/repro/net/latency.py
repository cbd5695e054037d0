"""Wide-area latency models standing in for the King and PeerWise datasets.

The paper simulates latency "using latencies available from the King [25]
and PeerWise [26] datasets, filtered using a Geo-IP location dataset that
limits the locations of IP addresses to the United States (with mean
latencies of 62 and 68 ms respectively)".  We do not have those datasets,
so this module synthesises per-pair one-way delay matrices with the same
calibrated statistics:

- :func:`king_like` — *geographic* model: hosts are scattered over a
  US-scale plane; pairwise delay = propagation (distance at ~2/3 c, with a
  routing-inflation factor) + per-host access delay.  Produces the
  triangle-inequality-respecting core plus heavy access-delay tails that
  King exhibits.
- :func:`peerwise_like` — *lognormal* model: pairwise delays drawn from a
  lognormal fitted to the target mean/σ, which matches PeerWise's reported
  spread (PeerWise pairs peers to exploit triangle-inequality violations,
  so its matrix is noisier).

Both return a :class:`LatencyMatrix` of **one-way** delays in seconds whose
mean matches the dataset's documented mean RTT/2 for US-filtered hosts.
"""

from __future__ import annotations

import math
from random import Random
from dataclasses import dataclass

__all__ = ["LatencyMatrix", "king_like", "peerwise_like", "uniform_lan"]

SPEED_OF_LIGHT_FIBER_KM_S = 200_000.0  # ~2/3 c
ROUTE_INFLATION = 1.8  # paths are not great circles
KING_MEAN_ONE_WAY_MS = 31.0  # King mean RTT ≈ 62 ms, US-filtered
PEERWISE_MEAN_ONE_WAY_MS = 34.0  # PeerWise mean RTT ≈ 68 ms, US-filtered
PEERWISE_SIGMA = 0.55  # lognormal shape: PeerWise's reported spread


@dataclass(frozen=True)
class LatencyMatrix:
    """Symmetric matrix of one-way delays between ``size`` hosts (seconds)."""

    name: str
    delays: tuple[tuple[float, ...], ...]

    @property
    def size(self) -> int:
        return len(self.delays)

    def one_way(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return self.delays[src][dst]



def _symmetric(matrix: list[list[float]], name: str) -> LatencyMatrix:
    size = len(matrix)
    for i in range(size):
        matrix[i][i] = 0.0
        for j in range(i + 1, size):
            value = max(0.0005, (matrix[i][j] + matrix[j][i]) / 2.0)
            matrix[i][j] = matrix[j][i] = value
    return LatencyMatrix(name=name, delays=tuple(tuple(row) for row in matrix))


def _rescale_to_mean(matrix: list[list[float]], target_mean: float) -> None:
    size = len(matrix)
    total, count = 0.0, 0
    for i in range(size):
        for j in range(size):
            if i != j:
                total += matrix[i][j]
                count += 1
    current = total / count if count else 0.0
    if current <= 0:
        return
    scale = target_mean / current
    for i in range(size):
        for j in range(size):
            matrix[i][j] *= scale


def king_like(size: int, seed: int = 0) -> LatencyMatrix:
    """Geographic US-scale latency matrix (King mean RTT ≈ 62 ms ⇒ 31 ms/way)."""
    if size < 1:
        raise ValueError("size must be positive")
    rng = Random(seed)
    # Hosts clustered around a handful of metro areas on a 4000x2500 km plane.
    metros = [(rng.uniform(0, 4000.0), rng.uniform(0, 2500.0)) for _ in range(8)]
    hosts = []
    access = []
    for _ in range(size):
        mx, my = rng.choice(metros)
        hosts.append((mx + rng.gauss(0, 120.0), my + rng.gauss(0, 120.0)))
        # Access-network delay: a few ms, with a heavy DSL-ish tail.
        access.append(0.002 + rng.expovariate(1.0 / 0.006))
    matrix = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            dx = hosts[i][0] - hosts[j][0]
            dy = hosts[i][1] - hosts[j][1]
            km = math.hypot(dx, dy) * ROUTE_INFLATION
            propagation = km / SPEED_OF_LIGHT_FIBER_KM_S
            matrix[i][j] = propagation + access[i] + access[j]
    _rescale_to_mean(matrix, KING_MEAN_ONE_WAY_MS / 1000.0)
    return _symmetric(matrix, f"king-like(n={size},seed={seed})")


def peerwise_like(size: int, seed: int = 0) -> LatencyMatrix:
    """Lognormal latency matrix (PeerWise mean RTT ≈ 68 ms ⇒ 34 ms/way)."""
    if size < 1:
        raise ValueError("size must be positive")
    rng = Random(seed)
    mean = PEERWISE_MEAN_ONE_WAY_MS / 1000.0
    sigma = PEERWISE_SIGMA
    # Lognormal with E[X] = mean: mu = ln(mean) - sigma^2/2.
    mu = math.log(mean) - sigma * sigma / 2.0
    matrix = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            matrix[i][j] = matrix[j][i] = rng.lognormvariate(mu, sigma)
    _rescale_to_mean(matrix, mean)
    return _symmetric(matrix, f"peerwise-like(n={size},seed={seed})")


def uniform_lan(size: int, one_way_ms: float = 0.5) -> LatencyMatrix:
    """A flat LAN matrix (the paper's LAN experiments)."""
    if size < 1:
        raise ValueError("size must be positive")
    delay = one_way_ms / 1000.0
    matrix = [
        [0.0 if i == j else delay for j in range(size)] for i in range(size)
    ]
    return _symmetric(matrix, f"lan(n={size})")
