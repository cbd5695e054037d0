"""Interest-management fast path vs the retained naive reference.

The frame loop classifies IS/VS/Others for every player every 50 ms, so
``compute_all_sets`` is the hottest code in the repo.  This bench pits it
against :func:`repro.game.interest.compute_sets_reference` — the verbatim
naive implementation kept as the exactness gate — on deterministic synthetic
rosters placed on the longest-yard map, and publishes both sides in one
``repro.bench.v1`` artifact:

- ``pairs/sec`` for the naive and fast paths (body text);
- ``ratio_fast_over_naive.nN`` — the machine-independent cost ratio the
  bench-diff CI gate watches (``<= 1/3`` means the >=3x speedup holds);
- ``los_box_tests_fast.nN`` — deterministic count of slab tests the grid
  actually ran ("LOS tests avoided" is derived against the naive count);
- ``observer_frames_per_classification`` — ``ObserverFrame`` constructions
  per plan / verified subscription over a small full session (a count, so
  machine-independent): the hoisting is one frame per classification, and
  a caller that goes back to per-candidate helpers pushes it to ~n;
- ``wall_seconds`` — end-to-end bench cost.

Equality of the two paths is asserted here too (cheap insurance on top of
the property tests in tests/test_game_interest_fast.py).
"""

import math
import time
from random import Random

from repro.game.avatar import AvatarSnapshot
from repro.game.interest import (
    InteractionRecency,
    InterestConfig,
    compute_all_sets,
    compute_sets_reference,
)
from repro.game.vector import Vec3
from repro.obs import MetricsRegistry, use_registry
from repro.replay import TapeScenario

from conftest import SMOKE, publish

PLAYER_COUNTS = [16, 32] if SMOKE else [16, 32, 64]
SEED = 2013
#: Keep timing each path until it has run at least this long (noise floor).
MIN_MEASURE_SECONDS = 0.05 if SMOKE else 0.25
SPEEDUP_FLOOR = 3.0  # acceptance: >=3x on pairs/sec at 32+ players
#: The full session the hoisting ratio is counted over (paper profile).
SESSION_PLAYERS = 12
SESSION_FRAMES = 40
#: Acceptance: one ObserverFrame per plan / verified subscription.
OBSERVER_FRAMES_CEILING = 1.0


def _make_roster(
    game_map, num_players: int, seed: int
) -> tuple[dict[int, AvatarSnapshot], InteractionRecency]:
    """Deterministic synthetic frame: players jittered around respawns."""
    rng = Random(seed)
    spawns = game_map.respawn_points
    snapshots: dict[int, AvatarSnapshot] = {}
    for pid in range(num_players):
        base = spawns[pid % len(spawns)]
        position = Vec3(
            base.x + rng.uniform(-600.0, 600.0),
            base.y + rng.uniform(-600.0, 600.0),
            base.z + rng.uniform(0.0, 80.0),
        )
        snapshots[pid] = AvatarSnapshot(
            player_id=pid,
            frame=0,
            position=position,
            velocity=Vec3(),
            yaw=rng.uniform(-math.pi, math.pi),
            health=100,
            armor=0,
            weapon="machinegun",
            ammo=10,
            alive=rng.random() > 0.05,
        )
    recency = InteractionRecency()
    for _ in range(num_players):
        a, b = rng.randrange(num_players), rng.randrange(num_players)
        if a != b:
            recency.record(a, b, 0)
    return snapshots, recency


def _measure(op, base_reps: int) -> tuple[float, int]:
    """Run ``op(rep)`` batches of ``base_reps`` until MIN_MEASURE_SECONDS."""
    total = 0.0
    reps = 0
    while total < MIN_MEASURE_SECONDS:
        start = time.perf_counter()
        for _ in range(base_reps):
            op(reps)
            reps += 1
        total += time.perf_counter() - start
    return total, reps


def _observer_frames_per_classification(yard) -> float:
    """Planner and proxy-side verifier, counted over one real session."""
    scenario = TapeScenario(
        players=SESSION_PLAYERS, frames=SESSION_FRAMES, seed=SEED,
        failover=False, reliable=False, hardening=False,
    )
    registry = MetricsRegistry(enabled=True)
    with use_registry(registry):
        scenario.make_session(scenario.make_trace(yard), None, yard).run()
    counters = registry.snapshot()["counters"]
    return counters["interest.observer_frames"] / counters["interest.classifications"]


def test_interest_fast_path_speedup(yard, results_dir):
    config = InterestConfig()
    frames_per_classification = _observer_frames_per_classification(yard)
    wall_start = time.perf_counter()
    lines = []
    metrics = {}
    speedups = {}

    for n in PLAYER_COUNTS:
        snapshots, recency = _make_roster(yard, n, SEED)

        # Exactness gate: identical InterestSets before any timing.
        fast_sets = compute_all_sets(snapshots, yard, 0, config, recency)
        for pid in snapshots:
            reference = compute_sets_reference(
                snapshots[pid], snapshots, yard, 0, config, recency
            )
            assert fast_sets[pid] == reference, f"fast path diverged for {pid}"

        def run_naive(rep, snaps=snapshots, rec=recency):
            for pid in snaps:
                compute_sets_reference(snaps[pid], snaps, yard, rep, config, rec)

        def run_fast(rep, snaps=snapshots, rec=recency):
            compute_all_sets(snaps, yard, rep, config, rec)

        yard.los_queries = yard.los_boxes_tested = 0
        naive_seconds, naive_reps = _measure(run_naive, max(1, 64 // n))
        naive_boxes_per_rep = yard.los_boxes_tested / naive_reps

        yard.los_queries = yard.los_boxes_tested = 0
        fast_seconds, fast_reps = _measure(run_fast, max(1, 256 // n))
        fast_boxes_per_rep = yard.los_boxes_tested / fast_reps

        pairs = n * (n - 1)
        naive_pps = pairs * naive_reps / naive_seconds
        fast_pps = pairs * fast_reps / fast_seconds
        speedup = fast_pps / naive_pps
        speedups[n] = speedup
        avoided = 1.0 - fast_boxes_per_rep / max(1.0, naive_boxes_per_rep)
        lines.append(
            f"n={n:3d}: naive {naive_pps:10,.0f} pairs/s | fast "
            f"{fast_pps:10,.0f} pairs/s | speedup {speedup:4.2f}x | "
            f"LOS box tests {naive_boxes_per_rep:,.0f} -> "
            f"{fast_boxes_per_rep:,.0f} per frame ({avoided:.1%} avoided)"
        )
        # Gated costs: the timing ratio is machine-independent; the box-test
        # count is fully deterministic (same roster, same grid).
        metrics[f"ratio_fast_over_naive.n{n}"] = 1.0 / speedup
        metrics[f"los_box_tests_fast.n{n}"] = fast_boxes_per_rep

    wall = time.perf_counter() - wall_start
    metrics["wall_seconds"] = wall
    metrics["observer_frames_per_classification"] = frames_per_classification
    lines.append(
        f"ObserverFrames per plan / verified subscription, "
        f"{SESSION_PLAYERS}p x {SESSION_FRAMES}f session: "
        f"{frames_per_classification:.3f} (gate: <= {OBSERVER_FRAMES_CEILING})"
    )
    body = "\n".join(lines) + (
        "\n(fast = spatial grid + per-frame symmetric LOS cache + hoisted "
        "observer state + top-k selection; naive = retained reference)\n"
    )
    publish(
        results_dir,
        "interest_fast_path",
        "Interest-management fast path vs naive reference",
        body,
        params={
            "seed": SEED,
            "players": PLAYER_COUNTS,
            "min_measure_seconds": MIN_MEASURE_SECONDS,
            "session": [SESSION_PLAYERS, SESSION_FRAMES],
            "smoke": SMOKE,
        },
        metrics=metrics,
        wall_seconds=wall,
    )

    assert frames_per_classification <= OBSERVER_FRAMES_CEILING, (
        f"{frames_per_classification:.2f} ObserverFrames per classification: "
        "the planner and the subscription verifier build one per call"
    )
    for n, speedup in speedups.items():
        if n >= 32:
            assert speedup >= SPEEDUP_FLOOR, (
                f"fast path only {speedup:.2f}x at n={n}; acceptance "
                f"requires >={SPEEDUP_FLOOR}x on pairs/sec"
            )
