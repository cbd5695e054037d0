"""A deathmatch with cheaters: injection, detection, and punishment.

Three players cheat — a speed hack, a fake-kill spammer, and an aimbot —
while nine play honestly.  The example shows the full Watchmen pipeline:
verifiers emit ratings, the reputation board accumulates evidence, and
only the cheaters end up banned.

Run:  python examples/deathmatch_with_cheaters.py
"""

from collections import Counter

from repro.analysis.detection import wire_cheat
from repro.cheats import AimbotCheat, FakeKillCheat, SpeedHack
from repro.core import ReputationBoard, WatchmenConfig, WatchmenSession
from repro.game import generate_trace, make_longest_yard

SPEED_HACKER, KILL_FAKER, AIMBOTTER = 0, 1, 2


def build_cheats(trace, game_map, config):
    players = trace.player_ids()
    speed = SpeedHack(factor=2.5, cheat_rate=0.25, seed=1)
    faker = FakeKillCheat(
        [p for p in players if p != KILL_FAKER], cheat_rate=0.05, seed=2
    )
    aimbot = AimbotCheat(cheat_rate=0.3, seed=3)

    def most_behind_enemy(frame):
        import math

        frame = min(frame, trace.num_frames - 1)
        snapshots = trace.frames[frame]
        me = snapshots[AIMBOTTER]
        candidates = [
            s for pid, s in snapshots.items() if pid != AIMBOTTER and s.alive
        ]
        if not candidates:
            return None

        def delta(s):
            yaw = (s.position - me.position).yaw()
            return abs((yaw - me.yaw + math.pi) % (2 * math.pi) - math.pi)

        return max(candidates, key=delta)

    aimbot.target_source = most_behind_enemy
    for cheater_id, cheat in (
        (SPEED_HACKER, speed),
        (KILL_FAKER, faker),
        (AIMBOTTER, aimbot),
    ):
        wire_cheat(cheat, cheater_id, trace, game_map, config)
    return {SPEED_HACKER: speed, KILL_FAKER: faker, AIMBOTTER: aimbot}


def main() -> None:
    game_map = make_longest_yard()
    trace = generate_trace(
        num_players=12, num_frames=400, seed=11, game_map=game_map
    )
    config = WatchmenConfig()
    cheats = build_cheats(trace, game_map, config)
    board = ReputationBoard(ban_threshold=0.99, min_reports=50)

    print("Running a 12-player match with 3 cheaters (ids 0, 1, 2)...")
    session = WatchmenSession(
        trace,
        game_map=game_map,
        config=config,
        behaviours=dict(cheats),
        reputation=board,
    )
    report = session.run()

    print("\nGround truth (what the cheats actually did):")
    for cheater_id, cheat in cheats.items():
        print(
            f"  player {cheater_id} ({cheat.name}): "
            f"{len(cheat.log.cheat_frames)} cheat actions"
        )

    print("\nHigh-confidence detections per subject and check:")
    flagged = Counter(
        (r.subject_id, r.check)
        for r in report.ratings
        if r.rating >= 6.0 and r.verifier_id != r.subject_id
    )
    for (subject, check), count in sorted(flagged.items()):
        marker = "CHEATER" if subject in cheats else "honest"
        print(f"  player {subject:>2} [{marker}]  {check:<10} {count:>4} flags")

    print("\nReputation (1.0 = spotless):")
    for player in trace.player_ids():
        reputation = board.reputation_of(player)
        marker = "CHEATER" if player in cheats else "honest "
        print(f"  player {player:>2} [{marker}]  {reputation:0.3f}")

    print(f"\nBanned: {sorted(report.banned)}")
    honest_banned = report.banned - set(cheats)
    caught = report.banned & set(cheats)
    print(f"  cheaters caught : {sorted(caught)} of {sorted(cheats)}")
    print(f"  honest banned   : {sorted(honest_banned) or 'none'}")


if __name__ == "__main__":
    main()
