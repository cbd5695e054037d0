"""Distributed reputation: gossip convergence on real session evidence.

Feeds the cheat ratings from a live Watchmen session (one speed hacker)
into the gossip network — each player contributes only his *own* ratings —
and measures how many rounds it takes for every node to reach the same
verdict, without any central lobby.
"""

from repro.analysis.detection import wire_cheat
from repro.analysis.report import render_table
from repro.cheats import SpeedHack
from repro.core import WatchmenConfig, WatchmenSession
from repro.core.reputation import BetaReputation, InteractionTag
from repro.core.reputation_gossip import GossipReputationNetwork
from repro.net.latency import king_like

from conftest import SESSION_TRACE_PARAMS, publish

CHEATER = 0


def test_distributed_reputation_convergence(yard, session_trace, results_dir):
    players = session_trace.player_ids()

    def run():
        config = WatchmenConfig()
        cheat = SpeedHack(factor=2.5, cheat_rate=0.4, seed=3)
        wire_cheat(cheat, CHEATER, session_trace, yard, config)
        session = WatchmenSession(
            session_trace,
            game_map=yard,
            config=config,
            behaviours={CHEATER: cheat},
            latency=king_like(len(players), seed=3),
        )
        session.run()

        # Honest reputations settle ≥0.99; the cheater's sinks to ~0.84.
        # The ban threshold goes between, as the paper's "set based on the
        # success and false positive rates of the detection system".
        network = GossipReputationNetwork(
            players,
            seed=3,
            system_factory=lambda: BetaReputation(ban_threshold=0.95),
        )
        for player in players:
            # a node's log is its first-hand observations: what enters gossip
            for rating in session.nodes[player].metrics.ratings:
                network.node(player).observe(InteractionTag.from_rating(rating))
        rounds = network.run_until_quiet(fanout=2, digest_size=4096)
        return network, rounds

    network, rounds = run()

    agreement = network.ban_agreement()
    spread = network.reputation_spread(CHEATER)
    body = render_table(
        ["metric", "value"],
        [
            ["gossip rounds to quiescence", str(rounds)],
            ["tags exchanged", str(network.tags_exchanged)],
            ["nodes banning the cheater",
             f"{agreement.get(CHEATER, 0.0):.0%}"],
            ["honest players banned anywhere",
             str(len(set(agreement) - {CHEATER}))],
            ["reputation spread for the cheater", f"{spread:.3f}"],
        ],
    )
    body += (
        "\n(no central lobby: every player ends with the same verdict from "
        "first-hand observations alone, spread by gossip)\n"
    )
    publish(results_dir, "distributed_reputation",
            "Distributed reputation — gossip convergence", body,
            params=SESSION_TRACE_PARAMS)

    assert agreement.get(CHEATER, 0.0) >= 0.99
    assert set(agreement) == {CHEATER}
    assert spread < 0.05
