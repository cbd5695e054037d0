"""Chaos matrix (robustness): recovery SLOs under injected faults.

Replays the same deterministic trace through the protocol with one fault
class per scenario — crash-stop, proxy kill, partition + heal, bursty
loss, flaky links — and gates on the recovery metrics the chaos harness
distils (see ``docs/ROBUSTNESS.md``):

- no scenario may falsely evict a live player (hard SLO: zero);
- failover-enabled crash scenarios must re-proxy within one proxy period;
- the failover-disabled contrast scenario must show the black hole the
  failover layer exists to bound.

The run is pinned to the CI chaos job's parameters (12 players, 240
frames, seed 7) regardless of ``REPRO_BENCH_SMOKE``, so the published
rows always line up with the chaos rows in ``benchmarks/baseline.json``.
"""

import pytest

from repro.analysis.report import render_table
from repro.core.config import PROXY_PERIOD_FRAMES
from repro.faults.chaos import byzantine_scenarios, run_chaos

from conftest import publish

pytestmark = pytest.mark.chaos

#: Must match the CI chaos job and the chaos rows in baseline.json.
CHAOS_PARAMS = {"players": 12, "frames": 240, "seed": 7}

#: Extra seeds the Byzantine matrix sweeps: the honest-safety SLOs
#: (no honest quarantine, no false eviction) must hold on every seed,
#: not just the pinned one.
BYZ_SWEEP_SEEDS = (7, 11, 23)


def test_chaos_matrix(results_dir):
    results = run_chaos(**CHAOS_PARAMS)

    body = render_table(
        ["scenario", "evict", "reproxy", "stale.dur", "stale.peak",
         "stale.aft", "lost"],
        [
            [
                result["scenario"],
                f"{result['metrics']['false_evictions']:.0f}",
                f"{result['metrics']['frames_to_reproxy']:.0f}",
                f"{result['metrics']['stale_frac_during']:.3f}",
                f"{result['metrics']['stale_frac_peak']:.3f}",
                f"{result['metrics']['stale_frac_after']:.3f}",
                f"{result['metrics']['messages_lost']:.0f}",
            ]
            for result in results
        ],
    )
    body += (
        "\n(evict must be 0 everywhere; reproxy must stay within one proxy "
        f"period ({PROXY_PERIOD_FRAMES} frames) wherever failover is on)\n"
    )
    publish(
        results_dir,
        "chaos_matrix",
        "Chaos — recovery SLOs under injected faults",
        body,
        params=CHAOS_PARAMS,
    )
    for result in results:
        publish(
            results_dir,
            f"chaos_{result['scenario']}",
            f"Chaos — {result['summary']}",
            "(metrics in the JSON artifact; summary in chaos_matrix.txt)",
            params=result["params"],
            metrics=result["metrics"],
        )

    by_name = {result["scenario"]: result["metrics"] for result in results}
    for name, metrics in by_name.items():
        assert metrics["false_evictions"] == 0, name
    for name in ("crash_10pct", "proxy_kill_midepoch"):
        assert 0 < by_name[name]["frames_to_reproxy"] <= PROXY_PERIOD_FRAMES
    # The contrast scenario never re-routes: its traffic black-holes until
    # the next scheduled handoff instead of failing over within a period.
    assert (
        by_name["proxy_kill_no_failover"]["frames_to_reproxy"]
        > PROXY_PERIOD_FRAMES
    )


def test_chaos_byzantine_matrix(results_dir):
    def sweep():
        return {
            seed: run_chaos(
                players=CHAOS_PARAMS["players"],
                frames=CHAOS_PARAMS["frames"],
                seed=seed,
                scenarios=byzantine_scenarios(),
            )
            for seed in BYZ_SWEEP_SEEDS
        }

    by_seed = sweep()

    results = by_seed[CHAOS_PARAMS["seed"]]
    body = render_table(
        ["scenario", "detect", "equiv", "convict", "hon.quar", "evicted",
         "evict"],
        [
            [
                result["scenario"],
                f"{result['metrics']['byz_detection_frames']:.0f}",
                f"{result['metrics']['equivocations_detected']:.0f}",
                f"{result['metrics']['evidence_convictions']:.0f}",
                f"{result['metrics']['honest_quarantines']:.0f}",
                f"{result['metrics']['attacker_evicted']:.0f}",
                f"{result['metrics']['false_evictions']:.0f}",
            ]
            for result in results
        ],
    )
    body += (
        "\n(hon.quar and evict must be 0 on every seed; hardened rows must "
        "detect within the bound and the blind contrast must not detect)\n"
    )
    publish(
        results_dir,
        "chaos_byz_matrix",
        "Chaos — Byzantine attacks vs protocol hardening",
        body,
        params={**CHAOS_PARAMS, "sweep_seeds": list(BYZ_SWEEP_SEEDS)},
    )
    for result in results:
        publish(
            results_dir,
            f"chaos_{result['scenario']}",
            f"Chaos — {result['summary']}",
            "(metrics in the JSON artifact; summary in chaos_byz_matrix.txt)",
            params=result["params"],
            metrics=result["metrics"],
        )

    for seed, seed_results in by_seed.items():
        by_name = {r["scenario"]: r["metrics"] for r in seed_results}
        for name, metrics in by_name.items():
            # Honest safety on every seed: hardening never costs an honest
            # player his seat or his voice.
            assert metrics["false_evictions"] == 0, (seed, name)
            assert metrics["honest_quarantines"] == 0, (seed, name)
        # Hardened detection lands within the bound; the equivocator is
        # convicted and evicted from every honest membership view.
        assert by_name["byz_equivocation"]["equivocations_detected"] > 0, seed
        assert by_name["byz_equivocation"]["attacker_evicted"] == 1.0, seed
        assert (
            by_name["byz_equivocation"]["byz_detection_frames"]
            <= PROXY_PERIOD_FRAMES
        ), seed
        assert (
            by_name["byz_tamper_relay"]["byz_detection_frames"]
            <= PROXY_PERIOD_FRAMES
        ), seed
        assert (
            by_name["byz_flood"]["byz_detection_frames"] <= PROXY_PERIOD_FRAMES
        ), seed
        assert (
            by_name["byz_starve"]["byz_detection_frames"]
            <= 2 * PROXY_PERIOD_FRAMES
        ), seed
        # The blind contrast shows the attack landing: nothing detected,
        # nothing convicted, the attacker keeps his seat.
        blind = by_name["byz_equivocation_blind"]
        assert blind["equivocations_detected"] == 0, seed
        assert blind["attacker_evicted"] == 0.0, seed
