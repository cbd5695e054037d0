"""Chaos harness invariants: determinism and fault-free bit-identity."""

from __future__ import annotations

import pytest

from repro.core import WatchmenSession
from repro.core.config import PROXY_PERIOD_FRAMES, WatchmenConfig
from repro.faults import FaultSchedule
from repro.faults.chaos import (
    build_schedule,
    chaos_gate_failures,
    default_scenarios,
    fault_frame_for,
    run_chaos,
)
from repro.game import generate_trace


def _report_fingerprint(report) -> tuple:
    """The observable outcome of a run, condensed for equality checks."""
    return (
        report.messages_sent,
        report.messages_lost,
        report.dropped_by_cause,
        report.mean_upload_kbps,
        report.max_upload_kbps,
        sorted(report.banned),
        report.view_error_stats(),
        dict(report.crashed),
    )


class TestFaultFreeBitIdentity:
    def test_empty_schedule_equals_no_injector(self):
        """Attaching an injector with nothing to inject changes nothing.

        The injector draws from its own RNG lane and the network only
        consults it when present — so the whole fault machinery must be
        invisible until a fault actually fires.
        """
        trace = generate_trace(num_players=8, num_frames=120, seed=11)
        plain = WatchmenSession(trace).run()
        empty = WatchmenSession(trace, faults=FaultSchedule()).run()
        assert _report_fingerprint(plain) == _report_fingerprint(empty)

    def test_gates_default_off(self):
        config = WatchmenConfig()
        assert config.profile == "paper"


class TestScheduleBuilding:
    def test_fault_frame_is_mid_epoch(self):
        frame = fault_frame_for(400)
        assert frame % PROXY_PERIOD_FRAMES == PROXY_PERIOD_FRAMES // 2
        assert PROXY_PERIOD_FRAMES <= frame < 400

    def test_short_runs_rejected(self):
        with pytest.raises(ValueError):
            fault_frame_for(2 * PROXY_PERIOD_FRAMES)

    def test_build_is_deterministic(self):
        roster = list(range(12))
        for scenario in default_scenarios():
            a, frame_a = build_schedule(scenario, roster, 240, 7)
            b, frame_b = build_schedule(scenario, roster, 240, 7)
            assert a == b
            assert frame_a == frame_b

    def test_crash_fraction_picks_distinct_victims(self):
        scenario = next(
            s for s in default_scenarios() if s.name == "crash_10pct"
        )
        schedule, _ = build_schedule(scenario, list(range(20)), 240, 7)
        victims = [c.node_id for c in schedule.crashes]
        assert len(victims) == 2  # 10% of 20
        assert len(set(victims)) == len(victims)

    def test_matrix_covers_the_issue_scenarios(self):
        names = {s.name for s in default_scenarios()}
        assert {
            "crash_10pct",
            "proxy_kill_midepoch",
            "partition_2s_heal",
            "burst_loss_5pct",
            "proxy_kill_no_failover",
        } <= names


@pytest.mark.chaos
class TestChaosMatrix:
    @pytest.fixture(scope="class")
    def results(self):
        return run_chaos(players=8, frames=160, seed=7)

    def test_two_runs_are_identical(self, results):
        again = run_chaos(players=8, frames=160, seed=7)
        assert results == again

    def test_no_false_evictions_anywhere(self, results):
        for result in results:
            assert result["metrics"]["false_evictions"] == 0, result["scenario"]

    def test_failover_reproxies_within_one_period(self, results):
        by_name = {r["scenario"]: r["metrics"] for r in results}
        # 0 means no live player was ever stranded, the best outcome: a
        # crash victim need not have been anybody's proxy
        assert 0 <= by_name["crash_10pct"]["frames_to_reproxy"] <= PROXY_PERIOD_FRAMES
        # a serving proxy is killed by construction, so someone is stranded
        # until failover routes round it: the probe has something to read
        assert 0 < by_name["proxy_kill_midepoch"]["frames_to_reproxy"] <= PROXY_PERIOD_FRAMES

    def test_no_failover_contrast_black_holes(self, results):
        """Without failover a player whose proxy died stays stranded for
        the whole epoch that proxy serves him: a full period, longer than
        failover ever leaves him."""
        by_name = {r["scenario"]: r["metrics"] for r in results}
        hole = by_name["proxy_kill_no_failover"]["frames_to_reproxy"]
        assert hole >= PROXY_PERIOD_FRAMES
        assert hole > by_name["proxy_kill_midepoch"]["frames_to_reproxy"]

    def test_cli_gate_passes_on_a_clean_matrix(self, results):
        assert chaos_gate_failures(results) == []

    def test_spurious_failovers_are_counted(self, results):
        by_name = {r["scenario"]: r["metrics"] for r in results}
        # the paper rung never fails over; loss alone makes the partition
        # scenario's nodes fail over away from live proxies
        assert by_name["proxy_kill_no_failover"]["spurious_failovers"] == 0
        assert by_name["partition_2s_heal"]["spurious_failovers"] > 0

    def test_cli_gate_flags_violations(self):
        bad = [
            {
                "scenario": "synthetic",
                "params": {"profile": "hardened"},
                "metrics": {
                    "false_evictions": 1.0,
                    "frames_to_reproxy": PROXY_PERIOD_FRAMES + 1.0,
                },
            }
        ]
        failures = chaos_gate_failures(bad)
        assert len(failures) == 2
        assert any("falsely evicted" in f for f in failures)
        assert any("proxy period" in f for f in failures)


def _scenario(name):
    return tuple(s for s in default_scenarios() if s.name == name)


@pytest.mark.chaos
class TestReproxyMeasuresTheRoute:
    """``frames_to_reproxy`` reads how long a crash strands a publisher,
    not when some node last failed over for any reason (12 × 240, the
    CI matrix's size)."""

    def test_a_loss_induced_failover_is_spurious_not_a_stranding(self):
        # Seed 2: epoch 4 hands players 7 and 10 to crashed player 4 and
        # they route around it at once; node 3 later fails over away from
        # live proxy 8 on loss alone, which the old reading took for a
        # 100-frame re-proxy.
        (result,) = run_chaos(
            players=12, frames=240, seed=2, scenarios=_scenario("crash_10pct")
        )
        assert chaos_gate_failures([result]) == []
        assert result["metrics"]["spurious_failovers"] >= 1

    def test_the_gate_bites_on_a_stranded_player(self):
        # Seed 1 without failover strands a player for more than a period;
        # judged as a hardened row, the gate must refuse it.
        (result,) = run_chaos(
            players=12,
            frames=240,
            seed=1,
            scenarios=_scenario("proxy_kill_no_failover"),
        )
        assert result["metrics"]["frames_to_reproxy"] > PROXY_PERIOD_FRAMES
        hardened = {**result, "params": {**result["params"], "profile": "hardened"}}
        (failure,) = chaos_gate_failures([hardened])
        assert "frames_to_reproxy" in failure

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_failover_meets_the_gate_on_every_seed(self, seed):
        results = run_chaos(
            players=12,
            frames=240,
            seed=seed,
            scenarios=_scenario("crash_10pct") + _scenario("proxy_kill_midepoch"),
        )
        assert chaos_gate_failures(results) == []
