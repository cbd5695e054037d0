"""Exactness gate for the interest-management fast path.

The optimised pipeline (bounds-rejecting LOS scan, per-frame symmetric LOS cache,
hoisted :class:`ObserverFrame` state, ``heapq.nlargest`` top-k) must be
**bit-identical** to ``compute_sets_reference``, the retained naive
implementation in ``tests/reference/game.py``.  These tests enforce that contract:

- a hypothesis property compares ``compute_all_sets`` against the reference
  across random maps, positions, yaws and player counts;
- the standalone ``in_vision_cone`` / ``attention_score`` helpers are
  checked against the reference scalar math;
- a golden determinism test runs the full simulator with the fast paths
  disabled (naive GameMap methods monkeypatched in) and asserts the
  serialized trace is byte-identical to the fast run.
"""

import math
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.chaos import default_scenarios, run_chaos

from repro.game.avatar import AvatarSnapshot
from repro.game.gamemap import Box, GameMap, make_corridors, make_longest_yard
from repro.game.interest import (
    InteractionRecency,
    InterestConfig,
    LosCache,
    ObserverFrame,
    attention_score,
    compute_all_sets,
    compute_sets,
    in_vision_cone,
)
from repro.game.simulator import generate_trace
from repro.game.vector import Vec3

from tests.reference.game import (
    _attention_score_reference,
    _in_vision_cone_reference,
    compute_sets_reference,
    floor_height_naive,
    floor_height_xy_naive,
    line_of_sight_naive,
)


def _snapshot(pid: int, pos: Vec3, yaw: float, alive: bool = True) -> AvatarSnapshot:
    return AvatarSnapshot(
        player_id=pid, frame=0, position=pos, velocity=Vec3(), yaw=yaw,
        health=100, armor=0, weapon="machinegun", ammo=10, alive=alive,
    )


def _random_world(seed: int, num_players: int, num_boxes: int):
    rng = Random(seed)
    solids = []
    for index in range(num_boxes):
        x, y = rng.uniform(-1800, 1800), rng.uniform(-1800, 1800)
        z = rng.uniform(-100, 300)
        hx, hy, hz = rng.uniform(20, 500), rng.uniform(20, 500), rng.uniform(20, 250)
        solids.append(
            Box(Vec3(x - hx, y - hy, z - hz), Vec3(x + hx, y + hy, z + hz),
                name=f"b{index}")
        )
    game_map = GameMap(
        name="prop",
        bounds_min=Vec3(-3000, -3000, -1000),
        bounds_max=Vec3(3000, 3000, 1000),
        solids=solids,
        respawn_points=[Vec3(0.0, 0.0, 0.0)],
    )
    snapshots = {}
    for pid in range(num_players):
        snapshots[pid] = _snapshot(
            pid,
            Vec3(rng.uniform(-2500, 2500), rng.uniform(-2500, 2500),
                 rng.uniform(-200, 500)),
            rng.uniform(-math.pi, math.pi),
            alive=rng.random() > 0.1,
        )
    recency = InteractionRecency()
    for _ in range(num_players * 2):
        a, b = rng.randrange(num_players), rng.randrange(num_players)
        if a != b:
            recency.record(a, b, rng.randrange(0, 50))
    return game_map, snapshots, recency


class TestBatchedEqualsReference:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=14),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_compute_all_sets_matches_reference(self, seed, players, boxes):
        game_map, snapshots, recency = _random_world(seed, players, boxes)
        config = InterestConfig()
        frame = seed % 97
        fast = compute_all_sets(snapshots, game_map, frame, config, recency)
        assert set(fast) == set(snapshots)
        for pid in snapshots:
            reference = compute_sets_reference(
                snapshots[pid], snapshots, game_map, frame, config, recency
            )
            assert fast[pid] == reference

    def test_compute_sets_matches_reference_with_shared_cache(self):
        game_map, snapshots, recency = _random_world(424242, 10, 8)
        config = InterestConfig()
        los = LosCache(game_map)
        los.begin_frame(3)
        for pid in snapshots:
            via_cache = compute_sets(
                snapshots[pid], snapshots, game_map, 3, config, recency, los=los
            )
            reference = compute_sets_reference(
                snapshots[pid], snapshots, game_map, 3, config, recency
            )
            assert via_cache == reference

    def test_observers_subset_matches_full_roster(self):
        game_map, snapshots, recency = _random_world(7, 12, 6)
        subset = [pid for pid in snapshots if pid % 2 == 0]
        partial = compute_all_sets(
            snapshots, game_map, 0, recency=recency, observers=subset
        )
        full = compute_all_sets(snapshots, game_map, 0, recency=recency)
        assert list(partial) == subset
        for pid in subset:
            assert partial[pid] == full[pid]

    def test_corridor_map_heavy_occlusion_matches_reference(self):
        game_map = make_corridors()
        rng = Random(5)
        snapshots = {
            pid: _snapshot(
                pid,
                Vec3(rng.uniform(-1500, 1500), rng.uniform(-400, 400), 0.0),
                rng.uniform(-math.pi, math.pi),
            )
            for pid in range(16)
        }
        fast = compute_all_sets(snapshots, game_map, 0)
        for pid in snapshots:
            assert fast[pid] == compute_sets_reference(
                snapshots[pid], snapshots, game_map, 0
            )


class TestObserverFrameScalarMath:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_cone_and_attention_match_reference(self, seed):
        rng = Random(seed)
        config = InterestConfig()
        observer = _snapshot(
            0,
            Vec3(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000),
                 rng.uniform(-100, 400)),
            rng.uniform(-math.pi, math.pi),
        )
        target = _snapshot(
            1,
            Vec3(rng.uniform(-2000, 2000), rng.uniform(-2000, 2000),
                 rng.uniform(-100, 400)),
            rng.uniform(-math.pi, math.pi),
        )
        recency = InteractionRecency()
        recency.record(0, 1, 2)
        oframe = ObserverFrame(observer, config)
        for slack in (True, False):
            assert oframe.in_vision_cone(target, slack) == _in_vision_cone_reference(
                observer, target, config, slack
            )
            assert in_vision_cone(
                observer, target, config, slack
            ) == _in_vision_cone_reference(observer, target, config, slack)
        assert oframe.attention_score(target, 10, recency) == (
            _attention_score_reference(observer, target, 10, config, recency)
        )
        assert attention_score(observer, target, 10, config, recency) == (
            _attention_score_reference(observer, target, 10, config, recency)
        )

    def test_degenerate_zero_distance_pair(self):
        config = InterestConfig()
        pos = Vec3(10.0, 20.0, 30.0)
        a, b = _snapshot(0, pos, 0.5), _snapshot(1, pos, -0.5)
        assert in_vision_cone(a, b, config) == _in_vision_cone_reference(a, b, config)
        assert attention_score(a, b, 0, config) == _attention_score_reference(
            a, b, 0, config
        )

    def test_observer_frame_reuse_across_targets(self):
        config = InterestConfig()
        observer = _snapshot(0, Vec3(0, 0, 0), 0.3)
        oframe = ObserverFrame(observer, config)
        rng = Random(2)
        for pid in range(1, 30):
            target = _snapshot(
                pid,
                Vec3(rng.uniform(-2600, 2600), rng.uniform(-2600, 2600), 0.0),
                0.0,
            )
            assert in_vision_cone(
                observer, target, config, observer_frame=oframe
            ) == _in_vision_cone_reference(observer, target, config)


class TestLosCache:
    def test_symmetric_queries_hit(self):
        game_map = make_longest_yard()
        cache = LosCache(game_map)
        cache.begin_frame(0)
        a, b = Vec3(-900.0, -900.0, 100.0), Vec3(900.0, 900.0, 100.0)
        first = cache.line_of_sight(a, b)
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.line_of_sight(b, a) == first  # symmetric hit
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.line_of_sight(a, b) == first
        assert cache.hits == 2

    def test_false_results_are_cached_too(self):
        game_map = make_longest_yard()
        # Straight through the east pillar (x in [220, 300], z in [0, 160]).
        a = Vec3(150.0, 0.0, 80.0)
        b = Vec3(370.0, 0.0, 80.0)
        assert not game_map.line_of_sight(a, b)
        cache = LosCache(game_map)
        cache.begin_frame(0)
        assert cache.line_of_sight(a, b) is False
        assert cache.line_of_sight(b, a) is False
        assert cache.hits == 1  # a cached False must count as a hit

    def test_begin_frame_clears_between_frames_only(self):
        game_map = make_longest_yard()
        cache = LosCache(game_map)
        cache.begin_frame(1)
        a, b = Vec3(-500.0, 0.0, 90.0), Vec3(500.0, 0.0, 90.0)
        cache.line_of_sight(a, b)
        cache.begin_frame(1)  # same frame: memo kept
        cache.line_of_sight(a, b)
        assert cache.hits == 1
        cache.begin_frame(2)  # new frame: memo dropped
        cache.line_of_sight(a, b)
        assert cache.misses == 2


class TestTopKSelection:
    def test_nlargest_matches_full_sort_on_ties(self):
        # Equidistant targets straight ahead -> identical attention scores;
        # the fast top-k must pick the same members as the reference sort.
        config = InterestConfig()
        observer = _snapshot(0, Vec3(0.0, 0.0, 0.0), 0.0)
        snapshots = {0: observer}
        for pid in range(1, 12):
            angle = 2.0 * math.pi * pid / 11.0
            snapshots[pid] = _snapshot(
                pid, Vec3(300.0 * math.cos(angle), 300.0 * math.sin(angle), 0.0), 0.0
            )
        game_map = GameMap(
            name="open",
            bounds_min=Vec3(-1000, -1000, -100),
            bounds_max=Vec3(1000, 1000, 100),
            solids=[],
            respawn_points=[Vec3(0.0, 0.0, 0.0)],
        )
        fast = compute_all_sets(snapshots, game_map, 0, config)
        for pid in snapshots:
            assert fast[pid] == compute_sets_reference(
                snapshots[pid], snapshots, game_map, 0, config
            )


def patch_naive_geometry(monkeypatch) -> Counter:
    """Put the naive twins in place of every ``GameMap`` geometry query at
    class level; the returned counter tallies the calls each one takes."""
    calls: Counter = Counter()
    for name, naive in (
        ("line_of_sight", line_of_sight_naive),
        ("floor_height", floor_height_naive),
        ("floor_height_xy", floor_height_xy_naive),
    ):
        def counted(*args, _name=name, _naive=naive):
            calls[_name] += 1
            return _naive(*args)

        monkeypatch.setattr(GameMap, name, counted)
    return calls


class TestSimulatorByteIdentity:
    def test_trace_bytes_identical_with_fast_paths_disabled(self, tmp_path, monkeypatch):
        """Golden determinism gate: naive-vs-fast whole-simulator runs.

        With GameMap's fast methods replaced by the naive references at the
        class level (the LosCache delegates to the patched method, so every
        layer follows), the simulator must produce a byte-identical trace.
        The batched physics kernel asks ``floor_height_xy``, so that is
        patched and counted too.
        """
        fast = generate_trace(num_players=8, num_frames=80, seed=42,
                              npc_fraction=0.25)
        fast_path = tmp_path / "fast.jsonl"
        fast.save_jsonl(fast_path)

        calls = patch_naive_geometry(monkeypatch)
        naive = generate_trace(num_players=8, num_frames=80, seed=42,
                               npc_fraction=0.25)
        naive_path = tmp_path / "naive.jsonl"
        naive.save_jsonl(naive_path)

        assert fast_path.read_bytes() == naive_path.read_bytes()
        assert calls["line_of_sight"] and calls["floor_height_xy"]

    @pytest.mark.perf
    def test_chaos_harness_results_identical_with_fast_paths_disabled(
        self, monkeypatch
    ):
        """Chaos-harness reuse: the full protocol pipeline (sessions, proxies,
        failover, verification) produces identical recovery metrics whether
        the geometry fast paths are active or not."""
        scenarios = (default_scenarios()[0],)
        fast = run_chaos(players=6, frames=120, seed=3, scenarios=scenarios)
        calls = patch_naive_geometry(monkeypatch)
        naive = run_chaos(players=6, frames=120, seed=3, scenarios=scenarios)
        assert fast == naive
        assert calls["line_of_sight"] and calls["floor_height_xy"]
