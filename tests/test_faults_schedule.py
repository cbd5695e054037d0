"""The declarative fault vocabulary and its frame-driven injector."""

from __future__ import annotations

import pytest

from repro.faults import (
    CrashFault,
    CrashProxyFault,
    DuplicateFault,
    FaultInjector,
    FaultSchedule,
    LatencySpikeFault,
    PartitionFault,
)


class TestScheduleValidation:
    def test_empty_schedule(self):
        rows = FaultSchedule().to_json()
        assert rows.pop("seed") == 0
        assert rows and not any(rows.values())  # every fault list, all empty

    def test_any_fault_makes_it_non_empty(self):
        schedule = FaultSchedule(crashes=(CrashFault(node_id=1, frame=10),))
        assert schedule != FaultSchedule()
        assert schedule.to_json()["crashes"] == [{"node_id": 1, "frame": 10}]

    def test_double_crash_of_one_node_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule(
                crashes=(
                    CrashFault(node_id=1, frame=10),
                    CrashFault(node_id=1, frame=20),
                )
            )

    def test_negative_crash_frame_rejected(self):
        with pytest.raises(ValueError):
            CrashFault(node_id=1, frame=-1)

    def test_partition_groups_must_be_disjoint(self):
        with pytest.raises(ValueError):
            PartitionFault(
                group_a=frozenset({1, 2}),
                group_b=frozenset({2, 3}),
                start_frame=0,
                end_frame=10,
            )

    def test_partition_window_must_be_non_empty(self):
        with pytest.raises(ValueError):
            PartitionFault(
                group_a=frozenset({1}),
                group_b=frozenset({2}),
                start_frame=10,
                end_frame=10,
            )

    def test_duplicate_rate_bounds(self):
        with pytest.raises(ValueError):
            DuplicateFault(rate=1.5, start_frame=0, end_frame=10)

    def test_schedule_is_pure_data(self):
        a = FaultSchedule(crashes=(CrashFault(node_id=1, frame=10),), seed=3)
        b = FaultSchedule(crashes=(CrashFault(node_id=1, frame=10),), seed=3)
        assert a == b


class TestPartitionSemantics:
    def test_severs_both_directions(self):
        fault = PartitionFault(
            group_a=frozenset({1}),
            group_b=frozenset({2}),
            start_frame=0,
            end_frame=10,
        )
        assert fault.severs(1, 2)
        assert fault.severs(2, 1)

    def test_intra_group_traffic_unaffected(self):
        fault = PartitionFault(
            group_a=frozenset({1, 3}),
            group_b=frozenset({2}),
            start_frame=0,
            end_frame=10,
        )
        assert not fault.severs(1, 3)
        assert not fault.severs(2, 2)


class TestLatencySpike:
    def test_symmetric_affects_both_directions(self):
        spike = LatencySpikeFault(
            src=1, dst=2, start_frame=0, end_frame=10, extra_ms=50.0
        )
        assert spike.affects(1, 2)
        assert spike.affects(2, 1)

    def test_asymmetric_affects_one_direction(self):
        spike = LatencySpikeFault(
            src=1, dst=2, start_frame=0, end_frame=10, extra_ms=50.0,
            symmetric=False,
        )
        assert spike.affects(1, 2)
        assert not spike.affects(2, 1)


class TestInjector:
    def test_crashes_fire_once_at_their_frame(self):
        schedule = FaultSchedule(
            crashes=(
                CrashFault(node_id=3, frame=10),
                CrashFault(node_id=5, frame=10),
            )
        )
        injector = FaultInjector(schedule)
        assert injector.begin_frame(9) == []
        assert injector.begin_frame(10) == [3, 5]
        assert injector.begin_frame(10) == []  # already down
        assert injector.crashed == {3: 10, 5: 10}

    def test_partition_drop_cause_respects_window(self):
        schedule = FaultSchedule(
            partitions=(
                PartitionFault(
                    group_a=frozenset({1}),
                    group_b=frozenset({2}),
                    start_frame=10,
                    end_frame=20,
                ),
            )
        )
        injector = FaultInjector(schedule)
        injector.begin_frame(9)
        assert injector.drop_cause(1, 2) is None
        injector.begin_frame(10)
        assert injector.drop_cause(1, 2) == "partition"
        assert injector.drop_cause(1, 1) is None
        injector.begin_frame(20)  # healed: window is half-open
        assert injector.drop_cause(1, 2) is None

    def test_latency_spikes_sum_per_link(self):
        schedule = FaultSchedule(
            latency_spikes=(
                LatencySpikeFault(
                    src=1, dst=2, start_frame=0, end_frame=10, extra_ms=50.0
                ),
                LatencySpikeFault(
                    src=1, dst=2, start_frame=0, end_frame=10, extra_ms=25.0
                ),
            )
        )
        injector = FaultInjector(schedule)
        injector.begin_frame(5)
        assert injector.extra_delay_seconds(1, 2) == pytest.approx(0.075)
        assert injector.extra_delay_seconds(1, 3) == 0.0

    def test_duplication_draws_rng_only_inside_window(self):
        schedule = FaultSchedule(
            duplications=(
                DuplicateFault(rate=1.0, start_frame=10, end_frame=20),
            ),
            seed=99,
        )
        injector = FaultInjector(schedule)
        injector.begin_frame(5)
        state_before = injector.rng.getstate()
        assert injector.duplicate_offset_seconds() is None
        assert injector.rng.getstate() == state_before  # zero draws outside
        injector.begin_frame(10)
        assert injector.duplicate_offset_seconds() == pytest.approx(0.010)

    def test_proxy_crash_resolution_uses_the_verifiable_schedule(self):
        from repro.core.config import WatchmenConfig
        from repro.core.proxy import ProxySchedule

        config = WatchmenConfig()
        roster = list(range(6))
        proxy_schedule = ProxySchedule(roster=roster)
        fault = CrashProxyFault(player_id=2, frame=50)
        injector = FaultInjector(FaultSchedule(proxy_crashes=(fault,)))
        injector.resolve(proxy_schedule, config)
        epoch = config.epoch_of_frame(50)
        victim = proxy_schedule.proxy_of(2, epoch)
        assert injector.begin_frame(50) == [victim]
