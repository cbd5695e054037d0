"""Random, verifiable, dynamic proxy assignment.

Section IV: proxies are **random** (nobody controls who they serve or who
serves them), **verifiable** ("all players in the game can verify each
other's proxy and automatically send to the correct proxy") and **dynamic**
(renewed every proxy period).

The schedule is a pure function of (common seed, roster, epoch): player
``p``'s proxy in epoch ``e`` is chosen by p's verifiable PRNG draw at
counter ``e`` over the eligible pool minus ``p`` himself.  Every node
computes the same schedule with zero communication; :meth:`verify_proxy`
is the check any node can run on any claimed assignment.

The pool can exclude low-resource nodes and weight powerful ones
(Section VI "Upload capacity & Fairness"), still deterministically.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.config import PROXY_PERIOD_FRAMES
from repro.crypto.prng import VerifiablePrng
from repro.obs.registry import get_registry

__all__ = ["ProxySchedule"]


class ProxySchedule:
    """Deterministic proxy schedule over a (possibly changing) roster."""

    def __init__(
        self,
        roster: list[int],
        common_seed: bytes = b"watchmen-session",
        proxy_period_frames: int = PROXY_PERIOD_FRAMES,
        proxy_pool: list[int] | None = None,
        pool_weights: dict[int, int] | None = None,
        infrastructure: list[int] | None = None,
    ) -> None:
        if len(roster) < 2:
            raise ValueError("need at least two players for proxying")
        if len(set(roster)) != len(roster):
            raise ValueError("duplicate player ids in roster")
        if proxy_period_frames <= 0:
            raise ValueError("proxy_period_frames must be positive")
        self.roster = sorted(roster)
        self.common_seed = common_seed
        self.proxy_period_frames = proxy_period_frames
        # Infrastructure nodes (hybrid game servers, Section VI) can serve
        # as proxies without being players themselves.
        self.infrastructure = sorted(infrastructure or [])
        if set(self.infrastructure) & set(self.roster):
            raise ValueError("infrastructure ids collide with player ids")
        pool = sorted(proxy_pool) if proxy_pool is not None else list(self.roster)
        unknown = set(pool) - set(self.roster) - set(self.infrastructure)
        if unknown:
            raise ValueError(f"proxy pool contains non-roster ids {sorted(unknown)}")
        if not pool:
            raise ValueError("proxy pool must not be empty")
        # Weighted pool: a node with weight w appears w times (more likely
        # to be drawn, serving multiple players) — the heterogeneity hook.
        weights = pool_weights or {}
        self.pool: list[int] = []
        for node in pool:
            self.pool.extend([node] * max(1, int(weights.get(node, 1))))
        self._prngs: dict[int, VerifiablePrng] = {}
        self._roster_set = set(self.roster)
        # The schedule is a pure function of (seed, roster, epoch), so each
        # (player, epoch) ring — the scheduled proxy, then the failover
        # candidates in order — is memoised; the counters split real PRNG
        # draws from cache hits.
        self._rings: dict[tuple[int, int], tuple[int, ...]] = {}
        obs = get_registry()
        self._ctr_lookups = obs.counter("proxy.schedule.lookups")
        self._ctr_draws = obs.counter("proxy.schedule.draws")

    # ---- schedule queries -------------------------------------------------

    def epoch_of_frame(self, frame: int) -> int:
        if frame < 0:
            raise ValueError("frame must be non-negative")
        return frame // self.proxy_period_frames

    def proxy_of(self, player_id: int, epoch: int) -> int:
        """The proxy serving ``player_id`` during ``epoch`` (verifiable)."""
        self._ctr_lookups.inc()
        ring = self._rings.get((player_id, epoch))
        if ring is None:
            ring = self._draw_ring(player_id, epoch)
        return ring[0]

    def _draw_ring(self, player_id: int, epoch: int) -> tuple[int, ...]:
        """The one PRNG draw of ``(player_id, epoch)``, memoised.

        The *distinct* nodes reached by walking forward (cyclically) from
        the drawn index over the eligible pool, in that order.
        """
        if player_id not in self._roster_set:
            raise KeyError(f"unknown player {player_id}")
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        eligible = [node for node in self.pool if node != player_id]
        if not eligible:
            raise ValueError("no eligible proxy for player")
        prng = self._prngs.get(player_id)
        if prng is None:
            prng = VerifiablePrng(self.common_seed, player_id)
            self._prngs[player_id] = prng
        self._ctr_draws.inc()
        index = prng.below_at(epoch, len(eligible))
        ring = tuple(dict.fromkeys(eligible[index:] + eligible[:index]))
        self._rings[(player_id, epoch)] = ring
        return ring

    def candidate_of(self, player_id: int, epoch: int, attempt: int) -> int:
        """The ``attempt``-th failover candidate for a player's epoch.

        Attempt 0 is the scheduled proxy itself; attempt k is the k-th
        entry of the same ring (wrapping around it).  Like the primary
        assignment this is a pure function of (seed, roster, epoch,
        attempt), so when a node fails over after its proxy crashes,
        every other node can verify the replacement route with zero
        communication — the failover stays inside the verifiable
        schedule instead of becoming a free-for-all.
        """
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        if attempt == 0:
            return self.proxy_of(player_id, epoch)
        ring = self._rings.get((player_id, epoch)) or self._draw_ring(player_id, epoch)
        return ring[attempt % len(ring)]

    def first_hops(self, player_id: int, epoch: int, depth: int) -> Iterator[int]:
        """The scheduled proxy, then the first ``depth`` failover candidates.

        The bounded set of nodes a player may legitimately route through
        in ``epoch`` — the one statement of the failover walk.  Depth 0
        is the paper's protocol: the scheduled proxy alone.
        """
        for attempt in range(depth + 1):
            yield self.candidate_of(player_id, epoch, attempt)

    def clients_of(self, proxy_id: int, epoch: int) -> list[int]:
        """All players served by ``proxy_id`` during ``epoch``."""
        return [
            player
            for player in self.roster
            if self.proxy_of(player, epoch) == proxy_id
        ]

    # ---- verification --------------------------------------------------------

    # repro-taint: sanitizer
    def verify_proxy(self, player_id: int, epoch: int, claimed_proxy: int) -> bool:
        """Any node's check that a claimed assignment matches the schedule."""
        try:
            return self.proxy_of(player_id, epoch) == claimed_proxy
        except (KeyError, ValueError):
            return False

    def verify_route(  # repro-taint: sanitizer
        self, player_id: int, epoch: int, claimed_proxy: int, max_attempts: int
    ) -> bool:
        """Check a claimed (possibly failed-over) proxy against the schedule.

        True when ``claimed_proxy`` is the scheduled proxy or one of the
        first ``max_attempts`` failover candidates — the bounded set any
        honest node may legitimately route through after crashes.
        """
        try:
            return claimed_proxy in self.first_hops(player_id, epoch, max_attempts)
        except (KeyError, ValueError):
            return False

    # ---- churn ----------------------------------------------------------------

    def without_players(self, departed: set[int]) -> "ProxySchedule":
        """A new schedule after departed players are removed (next round).

        "These nodes are removed in the next round, through an agreement
        protocol, from the proxy pool."  Roster edits take effect at epoch
        boundaries; callers swap schedules then.
        """
        remaining = [p for p in self.roster if p not in departed]
        remaining_pool = sorted({p for p in self.pool if p not in departed})
        derived = ProxySchedule(
            roster=remaining,
            common_seed=self.common_seed,
            proxy_period_frames=self.proxy_period_frames,
            proxy_pool=remaining_pool or None,
            pool_weights={p: self.pool.count(p) for p in remaining_pool},
            infrastructure=self.infrastructure or None,
        )
        # one set of books per session, whichever registry is current now
        derived._ctr_lookups = self._ctr_lookups
        derived._ctr_draws = self._ctr_draws
        return derived

    # ---- collusion statistics (Figure 5 / in-text 94 %) -----------------------

    def honest_proxy_probability(self, num_colluders: int) -> float:
        """P[a cheater's proxy is honest] with ``num_colluders`` colluders.

        With uniform assignment over n−1 candidates and k−1 *other*
        colluders eligible, the paper quotes 1 − 3/47 ≈ 94 % for k=4 … they
        phrase it as "colludes with 3 other cheaters ... 1 − 3/47".
        """
        n = len(set(self.roster))
        if not 0 <= num_colluders <= n:
            raise ValueError("num_colluders out of range")
        others = max(0, num_colluders - 1)
        return 1.0 - others / (n - 1)
