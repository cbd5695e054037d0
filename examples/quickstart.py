"""Quickstart: simulate a deathmatch, run Watchmen over a simulated WAN.

Generates a 16-player game trace, replays it through the full Watchmen
protocol (random verifiable proxies, IS/VS/Others subscriptions, signed
messages, mutual verification) over a King-like latency matrix with 1 %
loss, and prints the responsiveness and bandwidth the session achieved.

Run:  python examples/quickstart.py
"""

from repro.core import WatchmenSession
from repro.game import generate_trace, make_longest_yard


def main() -> None:
    print("Generating a 16-player deathmatch on the longest-yard map...")
    game_map = make_longest_yard()
    trace = generate_trace(
        num_players=16, num_frames=400, seed=7, game_map=game_map
    )
    print(
        f"  {trace.num_frames} frames ({trace.num_frames * 0.05:.0f}s of play), "
        f"{len(trace.shots)} shots, {len(trace.kills)} kills"
    )

    print("Replaying through Watchmen over a simulated wide-area network...")
    session = WatchmenSession(trace, game_map=game_map)
    report = session.run()

    print(f"\n  messages sent      : {report.messages_sent}")
    print(f"  messages lost      : {report.messages_lost} "
          f"({report.messages_lost / report.messages_sent:.1%})")
    print(f"  mean upload        : {report.mean_upload_kbps:.0f} kbps/node")
    print(f"  max upload         : {report.max_upload_kbps:.0f} kbps/node")

    print("\n  age of received updates (frames → share):")
    for age, probability in sorted(report.age_pdf().items()):
        bar = "#" * int(probability * 50)
        print(f"    {age:>2}: {probability:6.1%} {bar}")
    print(f"  stale (≥3 frames = ≥150 ms): {report.stale_fraction():.2%}")

    suspicious = sum(r.rating >= 6.0 for r in report.ratings)
    print(f"\n  verifications run  : {len(report.ratings)}")
    print(f"  high ratings       : {suspicious} "
          f"({suspicious / max(1, len(report.ratings)):.2%} — honest play)")
    print(f"  banned players     : {sorted(report.banned) or 'none'}")


if __name__ == "__main__":
    main()
