#!/usr/bin/env python3
"""What a byte-identical change leaves as it was, per perfbench workload.

    python scripts/verdict_digest.py --seed 7
    make verdict-digest SEED=7

For each workload it builds ``perfbench.workloads.by_name(w).scenario(seed)``
(read only: nothing under ``perfbench/`` is called but that) the way a
perfbench child does — ``make_map``, ``make_trace``, ``make_faults``,
``make_session`` — builds and runs the session once under an enabled
registry, and prints one line per value:

* ``verdicts``: rows in ``report.ratings``;
* ``verdict_sha256``: :func:`verdict_stream_sha256` over every field of
  every row, node by node in filing order;
* ``bans``: ``report.banned``, sorted;
* ``reputation_sha256``: sha256 over ``ratings_seen`` and every player's
  ``reputation_of``, by ``repr`` (float bits included);
* ``los_queries``: ``GameMap.los_queries``;
* ``frames_decoded``: the ``wire.frames.decoded`` counter;
* ``macs``: ``HmacSigner._mac`` calls, one per signed frame and one per
  checked delivery.

Only the session is run, so for ``taped24_cheats`` the tape and its replay
gate, which perfbench also times, are not counted.  Run it on two trees and
``diff`` the output: every line is a function of the code and the seed.
Exits 0; nothing is compared here.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import Any, Iterable

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper48", "crowd96", "hardened32_crash", "taped24_cheats")


def verdict_stream_sha256(ratings: Iterable[Any]) -> str:
    """sha256 over every field of every verdict, in order, by ``repr``."""
    digest = hashlib.sha256()
    for r in ratings:
        digest.update(repr((
            r.verifier_id, r.subject_id, r.frame, r.check,
            r.rating, r.confidence, r.deviation, r.detail,
        )).encode())
    return digest.hexdigest()


def digest(scenario: Any, registry: Any) -> dict[str, Any]:
    """Run ``scenario``'s session once under ``registry`` (an enabled
    ``MetricsRegistry``); the values the module docstring lists."""
    from repro.crypto.signatures import HmacSigner
    from repro.obs import use_registry

    macs = [0]
    mac = HmacSigner._mac

    def counted(self: HmacSigner, player_id: int, message: bytes) -> bytes:
        macs[0] += 1
        return mac(self, player_id, message)

    game_map = scenario.make_map()
    trace = scenario.make_trace(game_map)
    faults = scenario.make_faults(trace.player_ids())
    HmacSigner._mac = counted  # type: ignore[method-assign]
    try:
        with use_registry(registry):
            session = scenario.make_session(trace, faults=faults, game_map=game_map)
            report = session.run()
    finally:
        HmacSigner._mac = mac  # type: ignore[method-assign]
    board = session.reputation
    reputations = [(player, board.reputation_of(player)) for player in trace.player_ids()]
    return {
        "verdicts": len(report.ratings),
        "verdict_sha256": verdict_stream_sha256(report.ratings),
        "bans": sorted(report.banned),
        "reputation_sha256": hashlib.sha256(
            repr((board.ratings_seen, reputations)).encode()
        ).hexdigest(),
        "los_queries": game_map.los_queries,
        "frames_decoded": registry.snapshot()["counters"].get("wire.frames.decoded", 0),
        "macs": macs[0],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import by_name
    from repro.obs import MetricsRegistry

    for name in WORKLOADS:
        print(f"{name} seed {args.seed}")
        scenario = by_name(name).scenario(args.seed)
        for key, value in digest(scenario, MetricsRegistry(enabled=True)).items():
            print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
