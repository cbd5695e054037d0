"""Record & replay: the paper's trace-driven evaluation workflow.

The authors instrumented Quake III with "a tracing module ... that records
in a trace file all important game information", then built "a replay
engine that can replay game traces and generate the same network
traffic repeatedly and under different networking and proxy
architectures".  This example exercises the whole loop:

1. simulate a match and save the trace as JSONL;
2. reload the file and verify it is bit-identical;
3. replay the same trace under two different network conditions and
   compare the architectures' behaviour on identical inputs.

Run:  python examples/record_replay.py
"""

import tempfile
from pathlib import Path

from repro.core import WatchmenSession
from repro.game import GameTrace, generate_trace, make_longest_yard
from repro.net.latency import king_like, uniform_lan


def main() -> None:
    game_map = make_longest_yard()

    print("1. Recording a 10-player match...")
    trace = generate_trace(
        num_players=10, num_frames=300, seed=99, game_map=game_map
    )
    path = Path(tempfile.gettempdir()) / "watchmen-demo-trace.jsonl"
    trace.save_jsonl(path)
    print(f"   saved {path} ({path.stat().st_size / 1024:.0f} KiB, "
          f"{trace.num_frames} frames, {len(trace.kills)} kills)")

    print("2. Reloading and verifying the recording...")
    loaded = GameTrace.load_jsonl(path)
    identical = all(
        loaded.snapshot(f, p) == trace.snapshot(f, p)
        for f in range(0, trace.num_frames, 37)
        for p in trace.player_ids()
    )
    print(f"   snapshots identical: {identical}; "
          f"shots {len(loaded.shots)} == {len(trace.shots)}")

    print("3. Replaying the same inputs under different networks...")
    for name, latency in (
        ("LAN", uniform_lan(10, one_way_ms=0.5)),
        ("wide-area (king-like)", king_like(10, seed=99)),
    ):
        report = WatchmenSession(
            loaded, game_map=game_map, latency=latency
        ).run()
        pdf = report.age_pdf()
        fresh = pdf.get(0, 0.0) + pdf.get(1, 0.0)
        print(
            f"   {name:<22} fresh (≤1 frame): {fresh:6.1%}   "
            f"stale (≥3): {report.stale_fraction():5.2%}   "
            f"upload {report.mean_upload_kbps:4.0f} kbps"
        )

    print("\nSame game, same messages — only the network changed. "
          "That is what makes the experiments repeatable.")
    path.unlink(missing_ok=True)


if __name__ == "__main__":
    main()
