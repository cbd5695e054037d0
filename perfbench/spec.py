"""The benchmark's declared metrics and the ``BENCHMARK.json`` they make.

``BENCHMARK.json`` at the repo root is :func:`benchmark_json` written
out; the test suite fails when the two drift.  Which end-to-end metric
each per-layer metric should move, and on which workload, is written
down in ``perfbench/README.md`` (the contract's schema has no field for
it).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from perfbench.workloads import WORKLOADS

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "RUN_SECONDS",
    "benchmark_json",
    "write_benchmark_json",
]

#: seconds of timed phase one driver run accumulates before it stops
#: launching child processes (it always launches at least three)
RUN_SECONDS = 15

#: (name, unit, bound).  All are lower-is-better.  Bounds follow the
#: interquartile spread measured over ten seeds on the reference box (README,
#: "Spread"): three times the widest any workload showed, capped at the
#: contract's 0.25.  Simulated metrics are bit-equal for one seed; their
#: bounds are wide only because the driver compares different seeds.
END_TO_END: tuple[tuple[str, str, float], ...] = (
    ("wall_per_sim_s", "host_s/sim_s", 0.20),
    ("frame_ms_p50", "ms", 0.25),
    ("frame_ms_p95", "ms", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MiB", 0.15),
    ("upload_kbps_mean", "kbps", 0.25),
    ("upload_kbps_max", "kbps", 0.25),
    ("update_age_ms_mean", "ms", 0.25),
    ("failed_fraction", "ratio", 0.25),
)

#: (name, unit, better)
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("game.simulator.self_s", "s", "lower"),
    ("game.simulator.frames_per_s", "1/s", "higher"),
    ("game.interest.self_s", "s", "lower"),
    ("game.interest.calls", "count", "lower"),
    ("game.interest.pairs", "count", "lower"),
    ("game.interest.los_cache_hit_ratio", "ratio", "higher"),
    ("game.interest.los_boxes_per_query", "count", "lower"),
    ("core.subscriptions.self_s", "s", "lower"),
    ("core.subscriptions.plans", "count", "lower"),
    ("core.proxy.self_s", "s", "lower"),
    ("core.proxy.lookups_per_draw", "ratio", "lower"),
    ("core.wire.self_s", "s", "lower"),
    ("core.wire.encodes_per_send", "ratio", "lower"),
    ("core.wire.decodes_per_delivery", "ratio", "lower"),
    ("core.wire.bytes_per_msg", "B", "lower"),
    ("core.wire.encode_us_p50", "us", "lower"),
    ("core.wire.decode_us_p50", "us", "lower"),
    ("crypto.signatures.self_s", "s", "lower"),
    ("crypto.signatures.signs_per_send", "ratio", "lower"),
    ("crypto.signatures.verifies_per_delivery", "ratio", "lower"),
    ("crypto.signatures.verify_failures", "count", "lower"),
    ("net.transport.self_s", "s", "lower"),
    ("net.transport.datagrams_sent", "count", "lower"),
    ("net.transport.delivered", "count", "lower"),
    ("net.transport.drop_ratio", "ratio", "lower"),
    ("net.transport.bytes_sent", "B", "lower"),
    ("net.transport.events_processed", "count", "lower"),
    ("net.transport.queue_depth_max", "count", "lower"),
    ("core.node.on_frame_self_s", "s", "lower"),
    ("core.node.on_message_self_s", "s", "lower"),
    ("core.node.on_message_us_p50", "us", "lower"),
    ("core.node.on_message_us_p95", "us", "lower"),
    ("core.node.forwarded_per_delivery", "ratio", "lower"),
    ("core.node.replayed_messages", "count", "lower"),
    ("core.node.acks_per_send", "ratio", "lower"),
    ("core.node.ack_retries", "count", "lower"),
    ("core.node.failovers", "count", "lower"),
    ("core.node.quarantines", "count", "lower"),
    ("core.verification.self_s", "s", "lower"),
    ("core.verification.checks", "count", "lower"),
    ("core.verification.suspicious_ratio", "ratio", "lower"),
    ("core.verification.honest_suspicious_fraction", "ratio", "lower"),
    ("core.reputation.self_s", "s", "lower"),
    ("core.reputation.ratings", "count", "lower"),
    ("core.membership.self_s", "s", "lower"),
    ("core.membership.removal_proposals", "count", "lower"),
    ("core.membership.liveness_defenses", "count", "lower"),
    ("faults.self_s", "s", "lower"),
    ("replay.recorder.tap_self_s", "s", "lower"),
    ("replay.recorder.finalize_s", "s", "lower"),
    ("replay.recorder.messages", "count", "lower"),
    ("replay.tape.write_s", "s", "lower"),
    ("replay.tape.read_s", "s", "lower"),
    ("replay.tape.file_bytes_per_msg", "B", "lower"),
    ("replay.player.verify_s", "s", "lower"),
    ("core.protocol.setup_s", "s", "lower"),
    ("core.protocol.tick_self_s", "s", "lower"),
    ("process.cpu_per_sim_s", "host_s/sim_s", "lower"),
    ("process.gc_gen2_collections", "count", "lower"),
    ("process.gc_pause_ms_max", "ms", "lower"),
    ("process.trace_overhead_ratio", "ratio", "lower"),
    ("process.unattributed_fraction", "ratio", "lower"),
    ("process.machine_slowdown", "ratio", "lower"),
)

UNITS: dict[str, str] = {
    **{name: unit for name, unit, _ in END_TO_END},
    **{name: unit for name, unit, _ in PER_LAYER},
}


def benchmark_json() -> dict[str, Any]:
    """``BENCHMARK.json`` in the form the driver's contract requires."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [workload.to_json() for workload in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, unit, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
    return path
