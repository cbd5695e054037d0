"""Binary wire codec frame sizes, on real recorded traffic.

The paper budgets ~1024 bits for a signed update.  This bench records one
deterministic session, decodes every datagram, and publishes the
bandwidth story the scalability numbers rest on:

- ``signed_state_update_max_bytes`` — the largest signed ``StateUpdate``
  on the wire, which must stay within 2x the paper's 1024-bit figure;
- ``mean_bytes.<MessageType>`` — per-type mean binary frame size
  (deterministic for the pinned scenario, so the bench-diff gate pins
  the codec's framing byte-for-byte);
- ``encodes_per_send`` — frames produced by encoding (one per signing,
  plus any re-encode of a message the frame memo no longer holds) per
  datagram sent; the ROADMAP's bytes-on-the-wire gate is <= 1.0, and a
  relay that starts re-serialising what it forwards pushes it past that;
- ``decodes_per_delivery`` — validating decodes per delivered datagram
  (each distinct frame is decoded once per session, then looked up).

(The 5.1x shrink over the JSON envelope this codec replaced is recorded
in docs/PROTOCOL.md section 7.)

Everything here is byte counting over a seeded recording — no timing —
so the published metrics are machine-independent and the gate is exact.
"""

from collections import defaultdict

from repro.core.wire import decode_bytes
from repro.obs import MetricsRegistry, use_registry
from repro.replay import TapeScenario, record_session

from conftest import SMOKE, publish

PLAYERS = 8
FRAMES = 60
SEED = 2013
#: Acceptance: a signed update stays within 2x the paper's 1024 bits.
SIGNED_UPDATE_CEILING_BITS = 2 * 1024
#: Acceptance (ROADMAP, "Bytes on the wire"): at most one encode per send.
ENCODES_PER_SEND_CEILING = 1.0


def test_binary_codec_frame_sizes(results_dir):
    registry = MetricsRegistry(enabled=True)
    with use_registry(registry):
        tape = record_session(
            TapeScenario(players=PLAYERS, frames=FRAMES, seed=SEED)
        )
    counters = registry.snapshot()["counters"]
    encodes_per_send = (
        counters["node.frames_signed"] + counters["wire.frames.reencoded"]
    ) / counters["net.datagrams.sent"]
    decodes_per_delivery = (
        counters["wire.frames.decoded"] / counters["net.datagrams.delivered"]
    )

    binary_bytes: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    signed_update_max = 0
    for frame in tape.frames:
        for taped in frame.messages:
            message = decode_bytes(taped.payload)
            name = type(message).__name__
            binary_bytes[name] += len(taped.payload)
            counts[name] += 1
            if name == "StateUpdate" and message.signature is not None:
                signed_update_max = max(signed_update_max, len(taped.payload))

    lines = [
        f"{name:>20s}: n={counts[name]:5d}  "
        f"binary {binary_bytes[name] / counts[name]:7.1f} B"
        for name in sorted(counts)
    ]
    lines.append(f"{'total':>20s}: {sum(binary_bytes.values()):,} B binary")
    lines.append(
        f"largest signed StateUpdate: {signed_update_max} B "
        f"= {signed_update_max * 8} bits "
        f"(paper budget 1024, gate: <= {SIGNED_UPDATE_CEILING_BITS})"
    )
    lines.append(
        f"encodes per send {encodes_per_send:.3f} "
        f"(gate: <= {ENCODES_PER_SEND_CEILING}), "
        f"decodes per delivery {decodes_per_delivery:.3f}"
    )

    metrics: dict[str, float] = {
        "signed_state_update_max_bytes": float(signed_update_max),
        "encodes_per_send": encodes_per_send,
        "decodes_per_delivery": decodes_per_delivery,
    }
    for name in sorted(counts):
        metrics[f"mean_bytes.{name}"] = binary_bytes[name] / counts[name]

    publish(
        results_dir,
        "wire_codec",
        "Binary wire codec frame sizes (recorded session traffic)",
        "\n".join(lines),
        params={
            "players": PLAYERS,
            "frames": FRAMES,
            "seed": SEED,
            "smoke": SMOKE,
        },
        metrics=metrics,
    )

    assert encodes_per_send <= ENCODES_PER_SEND_CEILING, (
        f"{encodes_per_send:.3f} encodes per send: a message is framed once, "
        "where it is signed, and forwarded as the buffer it arrived in"
    )
    assert signed_update_max > 0, "session recorded no signed StateUpdate"
    assert signed_update_max * 8 <= SIGNED_UPDATE_CEILING_BITS, (
        f"signed StateUpdate is {signed_update_max * 8} bits on the wire; "
        f"must stay within 2x the paper's 1024-bit budget"
    )
