"""Hybrid architecture: a trusted game server joins the proxy pool.

Section VI: "if game servers exist they can be easily incorporated by
providing the game lobby, extra bandwidth, and becoming the proxy for
some or all players."  This example runs the same match three ways —
pure P2P, server-proxies-everyone, and a weighted mix — and shows what
the server buys: players shed their forwarding load and the proxy
information channel moves to trusted hardware.

Run:  python examples/hybrid_server.py
"""

from repro.core import WatchmenSession
from repro.game import generate_trace, make_longest_yard
from repro.net.latency import king_like


def describe(name: str, report, server_ids) -> None:
    print(f"\n--- {name} ---")
    print(f"  player upload  : mean {report.mean_upload_kbps:.0f} kbps, "
          f"max {report.max_upload_kbps:.0f} kbps")
    for server, kbps in report.server_upload_kbps.items():
        print(f"  server {server} upload : {kbps:.0f} kbps")
    print(f"  stale updates  : {report.stale_fraction():.2%} (≥150 ms)")
    del server_ids


def main() -> None:
    game_map = make_longest_yard()
    trace = generate_trace(
        num_players=12, num_frames=300, seed=4, game_map=game_map
    )
    size = len(trace.player_ids())

    print("Same 12-player match under three deployments...")

    pure = WatchmenSession(
        trace, game_map=game_map, latency=king_like(size, seed=4)
    )
    describe("pure P2P", pure.run(), [])

    hybrid = WatchmenSession(
        trace,
        game_map=game_map,
        latency=king_like(size + 1, seed=4),
        servers=1,
    )
    report = hybrid.run()
    describe("server proxies everyone", report, hybrid.server_ids)
    player_proxies = {
        hybrid.schedule.proxy_of(p, e)
        for p in trace.player_ids()
        for e in range(6)
    }
    print(f"  every proxy assignment: {sorted(player_proxies)} "
          f"(the server — no player ever holds proxy-grade info)")

    weighted = WatchmenSession(
        trace,
        game_map=game_map,
        latency=king_like(size + 1, seed=4),
        servers=1,
        server_only_proxies=False,
        server_weight=6,
    )
    describe("weighted mix (server weight 6)", weighted.run(),
             weighted.server_ids)
    server = weighted.server_ids[0]
    served = sum(
        1
        for p in trace.player_ids()
        for e in range(6)
        if weighted.schedule.proxy_of(p, e) == server
    )
    print(f"  server handled {served} of {6 * size} proxy tenures; "
          f"players covered the rest")

    print(
        "\nTake-away: the hybrid mode trades hosting bandwidth for removing "
        "the player-proxy exposure channel — and it degrades gracefully "
        "back to pure P2P when the server leaves."
    )


if __name__ == "__main__":
    main()
