"""NAT reachability model: UPnP port mapping with STUN hole-punch fallback.

Section VI: "For NAT support, Internet Gateway Device Protocol (using the
MiniUPnP library) is used to add translation rules at the router.  If the
protocol is not supported by the router (or disabled), NAT traversal
through hole punching is employed using the STUN(T) library."

We model each node's NAT as one of four types.  A pair can exchange
datagrams when either side is openly reachable (public / UPnP-mapped) or
hole punching succeeds for the pair (deterministically seeded; symmetric
NAT on both sides defeats punching, matching STUNT's behaviour).
"""

from __future__ import annotations

from random import Random
from dataclasses import dataclass

__all__ = ["NatType", "NatProfile", "Reachability", "sample_profiles"]


class NatType:
    """NAT classes ordered from easiest to hardest to traverse."""

    PUBLIC = "public"
    UPNP = "upnp"  # router honours IGD port-mapping requests
    CONE = "cone"  # full/restricted cone: hole punching works
    SYMMETRIC = "symmetric"  # punching fails against another symmetric NAT

    ALL = (PUBLIC, UPNP, CONE, SYMMETRIC)


@dataclass(frozen=True, slots=True)
class NatProfile:
    """One node's NAT situation."""

    node_id: int
    nat_type: str

    def __post_init__(self) -> None:
        if self.nat_type not in NatType.ALL:
            raise ValueError(f"unknown NAT type {self.nat_type!r}")

    @property
    def openly_reachable(self) -> bool:
        return self.nat_type in (NatType.PUBLIC, NatType.UPNP)


def sample_profiles(
    size: int,
    seed: int = 0,
    weights: dict[str, float] | None = None,
) -> list[NatProfile]:
    """Draw NAT types for ``size`` nodes (defaults mirror home-broadband mixes)."""
    weights = weights or {
        NatType.PUBLIC: 0.10,
        NatType.UPNP: 0.55,
        NatType.CONE: 0.25,
        NatType.SYMMETRIC: 0.10,
    }
    rng = Random(seed)
    kinds = list(weights)
    probabilities = [weights[k] for k in kinds]
    return [
        NatProfile(node_id=i, nat_type=rng.choices(kinds, probabilities, k=1)[0])
        for i in range(size)
    ]


class Reachability:
    """Pairwise reachability derived from NAT profiles.

    Hole punching between two cone NATs succeeds with high probability,
    against one symmetric NAT with reduced probability, and between two
    symmetric NATs never.  Outcomes are decided once per unordered pair
    (the punched hole persists), seeded for reproducibility.
    """

    def __init__(
        self,
        profiles: list[NatProfile],
        seed: int = 0,
        punch_success: float = 0.95,
        punch_success_symmetric: float = 0.60,
    ) -> None:
        self.profiles = {p.node_id: p for p in profiles}
        self.rng = Random(seed)
        self.punch_success = punch_success
        self.punch_success_symmetric = punch_success_symmetric
        self._pair_cache: dict[tuple[int, int], bool] = {}
        self.punch_attempts = 0
        self.punch_failures = 0

    def can_reach(self, a: int, b: int) -> bool:
        """Can nodes ``a`` and ``b`` exchange datagrams?"""
        if a == b:
            return True
        pa, pb = self.profiles.get(a), self.profiles.get(b)
        if pa is None or pb is None:
            return False
        if pa.openly_reachable or pb.openly_reachable:
            return True
        key = (a, b) if a <= b else (b, a)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        result = self._try_punch(pa, pb)
        self._pair_cache[key] = result
        return result

    def _try_punch(self, pa: NatProfile, pb: NatProfile) -> bool:
        self.punch_attempts += 1
        both_symmetric = (
            pa.nat_type == NatType.SYMMETRIC and pb.nat_type == NatType.SYMMETRIC
        )
        if both_symmetric:
            self.punch_failures += 1
            return False
        one_symmetric = NatType.SYMMETRIC in (pa.nat_type, pb.nat_type)
        chance = self.punch_success_symmetric if one_symmetric else self.punch_success
        success = self.rng.random() < chance
        if not success:
            self.punch_failures += 1
        return success

    def connectivity_ratio(self) -> float:
        """Fraction of all unordered pairs that can communicate."""
        ids = sorted(self.profiles)
        if len(ids) < 2:
            return 1.0
        reachable, total = 0, 0
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                total += 1
                if self.can_reach(a, b):
                    reachable += 1
        return reachable / total
