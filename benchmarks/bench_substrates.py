"""Microbenchmarks: simulator frame rate, event engine, interest filtering.

These bound the cost of the substrates underneath every experiment — a
regression here silently slows the whole harness.
"""

from repro.game import DeathmatchSimulator, SimulationConfig, compute_sets
from repro.game.trace import GameTrace
from repro.net.events import EventQueue
from repro.net.latency import king_like
from repro.net.transport import DatagramNetwork, NetworkConfig


def test_simulator_frame_rate(benchmark, yard):
    simulator = DeathmatchSimulator(
        SimulationConfig(num_players=24, num_frames=1, seed=1), game_map=yard
    )
    trace = GameTrace(map_name=yard.name, num_players=24)
    frame_counter = iter(range(10**9))

    benchmark(lambda: simulator._step_frame(next(frame_counter), trace))


def test_interest_classification(benchmark, yard, bench_trace):
    snapshots = bench_trace.frames[200]
    observer = snapshots[0]
    benchmark(lambda: compute_sets(observer, snapshots, yard, 200))


def test_event_queue_throughput(benchmark):
    def churn():
        queue = EventQueue()
        for i in range(1000):
            queue.schedule(i * 1e-4, lambda: None)
        queue.run()

    benchmark(churn)


def test_network_send_deliver(benchmark):
    queue = EventQueue()
    network = DatagramNetwork(
        queue, king_like(16, seed=1), NetworkConfig(seed=1)
    )
    for node in range(16):
        network.register(node, lambda datagram: None)
    datagram = bytes(120)

    def burst():
        for i in range(100):
            network.send(i % 16, (i + 1) % 16, datagram)
        queue.run()

    benchmark(burst)


def test_line_of_sight_query(benchmark, yard):
    from repro.game.vector import Vec3

    eye_a = Vec3(100.0, 50.0, 48.0)
    eye_b = Vec3(-900.0, 700.0, 112.0)
    benchmark(lambda: yard.line_of_sight(eye_a, eye_b))
