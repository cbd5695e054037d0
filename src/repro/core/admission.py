"""Session admission: the feasibility test and heterogeneous proxy pools.

Section VI ("Upload capacity & Fairness"): "the selection process can be
refined, if necessary, to take into account resource heterogeneity ...
using the same verifiable random generator players with low resources are
removed from the proxy pool and more powerful [nodes] can become proxies
for more than one player ... Similar to most current systems a
feasibility test can be run at the beginning of [the] gaming session to
determine if players meet the minimum requirements."

:func:`estimate_publisher_kbps` / :func:`estimate_proxy_kbps` derive the
protocol's load from the wire-size model; :func:`feasibility_test` turns
advertised upload capacities into an admission decision: who may play at
all, who serves in the proxy pool, and with what weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import (
    FRAME_SECONDS,
    FRAMES_PER_SECOND,
    FREQUENT_INTERVAL_FRAMES,
    GUIDANCE_BITS,
    HEADER_BITS,
    POSITION_UPDATE_BITS,
    STATE_UPDATE_BITS,
    SUBSCRIPTION_BITS,
    WatchmenConfig,
)

__all__ = [
    "AdmissionDecision",
    "estimate_publisher_kbps",
    "estimate_proxy_kbps",
    "feasibility_test",
]

#: Safety margin the lobby demands over the estimated loads.
HEADROOM = 1.25
#: A proxy serves at most this many tenures at once, however fast its
#: uplink — "this will increase proxies' access to information and should
#: be avoided unless necessary" (§VI).
MAX_POOL_WEIGHT = 4


def estimate_publisher_kbps(config: WatchmenConfig) -> float:
    """Upload a player needs just to publish his own avatar."""
    per_second = 1.0 / FRAME_SECONDS
    overhead = HEADER_BITS + config.signature_bits
    state = (STATE_UPDATE_BITS + overhead) * per_second / FREQUENT_INTERVAL_FRAMES
    guidance = (GUIDANCE_BITS + overhead) * per_second / FRAMES_PER_SECOND
    position = (POSITION_UPDATE_BITS + overhead) * per_second / FRAMES_PER_SECOND
    subscriptions = (
        (SUBSCRIPTION_BITS + overhead)
        * per_second
        / max(1, config.subscription_retention_frames)
        * config.interest.interest_size
    )
    return (state + guidance + position + subscriptions) / 1000.0


def estimate_proxy_kbps(config: WatchmenConfig, num_players: int) -> float:
    """Upload one proxy tenure costs (forwarding for a single client)."""
    per_second = 1.0 / FRAME_SECONDS
    overhead = HEADER_BITS + config.signature_bits
    # Frequent updates to up to IS-size subscribers, every frame.
    frequent = (
        (STATE_UPDATE_BITS + overhead) * per_second * config.interest.interest_size
    )
    # Guidance to a comparable number of VS subscribers, 1 Hz.
    guidance = (
        (GUIDANCE_BITS + overhead)
        * per_second
        / FRAMES_PER_SECOND
        * config.interest.interest_size
    )
    # Position-only updates to everyone else, 1 Hz.
    others = max(0, num_players - 2 * config.interest.interest_size - 1)
    position = (
        (POSITION_UPDATE_BITS + overhead) * per_second / FRAMES_PER_SECOND * others
    )
    return (frequent + guidance + position) / 1000.0


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of the feasibility test."""

    admitted: list[int]
    rejected: list[int]
    proxy_pool: list[int]
    pool_weights: dict[int, int] = field(default_factory=dict)
    publisher_kbps: float = 0.0
    proxy_kbps: float = 0.0


def feasibility_test(capacities: dict[int, float]) -> AdmissionDecision:
    """Admit players and build the heterogeneous proxy pool.

    - capacity < publisher load × headroom → **rejected** (cannot even
      publish; the lobby turns the player away);
    - capacity < publisher + one proxy tenure → admitted but **removed
      from the proxy pool** (forwarded-for, never forwarding);
    - otherwise pooled with weight ∝ how many tenures fit (capped at
      ``MAX_POOL_WEIGHT``).
    """
    if not capacities:
        raise ValueError("no players to admit")
    config = WatchmenConfig()
    num_players = len(capacities)
    publisher = estimate_publisher_kbps(config) * HEADROOM
    proxy = estimate_proxy_kbps(config, num_players) * HEADROOM

    admitted: list[int] = []
    rejected: list[int] = []
    pool: list[int] = []
    weights: dict[int, int] = {}
    for player, capacity in sorted(capacities.items()):
        if capacity < publisher:
            rejected.append(player)
            continue
        admitted.append(player)
        spare = capacity - publisher
        tenures = int(spare // proxy) if proxy > 0 else MAX_POOL_WEIGHT
        if tenures >= 1:
            pool.append(player)
            weights[player] = min(MAX_POOL_WEIGHT, tenures)
    if len(admitted) >= 2 and not pool:
        # Degenerate but playable: everyone forwards a little.
        pool = list(admitted)
        weights = {p: 1 for p in pool}
    return AdmissionDecision(
        admitted=admitted,
        rejected=rejected,
        proxy_pool=pool,
        pool_weights=weights,
        publisher_kbps=publisher / HEADROOM,
        proxy_kbps=proxy / HEADROOM,
    )
