"""Spans around the public entry points of each layer, from outside.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces each function named in :data:`BOUNDARIES` with a wrapper that
times the call, wherever the program holds a reference to it (class
attributes for methods; every ``repro.*`` module namespace for functions
imported by name).  The wrappers keep one stack, so

* a span's **self time** is its duration minus its child spans', and the
  self times of all spans partition the time spent under instrumented
  entry points — whatever is left of the timed phase is *unattributed*;
* an **entry** is a call that crosses into a layer from outside it
  (``HmacSigner.verify`` calling ``sign`` is one entry, two calls).

Aggregates (calls, entries, total, self) are kept for every span name and
per frame for every layer; full span records (name, start, end, parent,
frame) are kept for every :data:`SPAN_SAMPLE_STRIDE`-th frame, plus every
outermost span.  Everything stays in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.stats import nearest_rank

__all__ = ["BOUNDARIES", "Boundary", "SPAN_SAMPLE_STRIDE", "Tracer"]

#: full span records are kept for frames divisible by this
SPAN_SAMPLE_STRIDE = 10


@dataclass(frozen=True)
class Boundary:
    """One layer's entry points: ``module`` plus function or Class.method
    names; ``Class.*`` means every public method the class defines."""

    layer: str
    module: str
    names: tuple[str, ...]


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("game.simulator", "repro.game.simulator", ("generate_trace",)),
    Boundary(
        "game.interest", "repro.game.interest",
        ("compute_sets", "compute_all_sets", "LosCache.line_of_sight"),
    ),
    Boundary("game.interest", "repro.game.gamemap", ("GameMap.line_of_sight",)),
    Boundary(
        "core.subscriptions", "repro.core.subscriptions",
        ("SubscriptionPlanner.plan", "SubscriberTable.*"),
    ),
    Boundary(
        "core.proxy", "repro.core.proxy",
        (
            "ProxySchedule.proxy_of", "ProxySchedule.candidate_of",
            "ProxySchedule.verify_route", "ProxySchedule.clients_of",
        ),
    ),
    Boundary(
        "core.wire", "repro.core.wire",
        ("encode_bytes", "encode_signable", "encoded_size", "decode_bytes"),
    ),
    Boundary(
        "crypto.signatures", "repro.crypto.signatures",
        ("HmacSigner.sign", "HmacSigner.verify"),
    ),
    Boundary("net.transport", "repro.net.transport", ("DatagramNetwork.send",)),
    Boundary("net.transport", "repro.net.events", ("EventQueue.run",)),
    Boundary(
        "core.node", "repro.core.node",
        (
            "WatchmenNode.on_frame", "WatchmenNode.on_message",
            "WatchmenNode.claim_kill", "WatchmenNode.announce_projectile",
        ),
    ),
    Boundary(
        "core.verification", "repro.core.verification",
        (
            "PositionVerifier.observe", "AimVerifier.observe",
            "GuidanceVerifier.observe_guidance",
            "GuidanceVerifier.observe_position",
            "ProjectileTracker.verify_spawn", "KillVerifier.verify",
            "SubscriptionVerifier.verify_vision_subscription",
            "SubscriptionVerifier.verify_interest_subscription",
            "RateVerifier.observe", "RateVerifier.check_silence",
        ),
    ),
    Boundary(
        "core.reputation", "repro.core.reputation",
        ("ReputationBoard.submit_rating",),
    ),
    Boundary("core.membership", "repro.core.membership", ("MembershipView.*",)),
    Boundary("faults", "repro.faults.injector", ("FaultInjector.*",)),
    Boundary("faults", "repro.faults.byzantine", ("ByzantineBehaviour.*",)),
    Boundary(
        "replay.recorder", "repro.replay.recorder",
        ("TapeRecorder._tap", "TapeRecorder.finalize"),
    ),
    Boundary("replay.tape", "repro.replay.tape", ("write_tape", "read_tape")),
    Boundary("replay.player", "repro.replay.player", ("verify_tape",)),
    Boundary(
        "core.protocol", "repro.core.protocol", ("WatchmenSession.__init__",)
    ),
)

#: the tick is bracketed by the session's public frame hooks, not wrapped
TICK_SPAN = "core.protocol.tick"



def _others_classified(args: tuple, kwargs: dict) -> int:
    """compute_sets(observer, everyone, ...): observer-target pairs."""
    everyone = kwargs["everyone"] if "everyone" in kwargs else args[1]
    return max(0, len(everyone) - 1)


#: span name -> units of work one call does, summed into ``Tracer.work``
WORK_UNITS: dict[str, Callable[[tuple, dict], int]] = {
    "game.interest.compute_sets": _others_classified,
}

#: span names whose every call duration is kept (for percentiles)
KEEP_DURATIONS = (
    "core.wire.encode_bytes",
    "core.wire.encode_signable",
    "core.wire.decode_bytes",
    "core.node.WatchmenNode.on_message",
)


class Tracer:
    """In-memory span recorder shared by every wrapper it installs."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.entries: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.work: list[int] = []
        self.durations: dict[str, array] = {}
        #: per open span: accumulated child time / span-name index
        self._child_ns: list[int] = []
        self._open: list[int] = []
        self.frame = -1
        self.sampling = False
        #: sampled spans in completion order:
        #: (name index, depth, frame, start ns, end ns)
        self.sampled: list[tuple[int, int, int, int, int]] = []
        #: per frame: layer -> self ns accumulated up to the frame's start
        self._frame_marks: list[tuple[int, dict[str, int]]] = []
        self._tick_index = self._register(TICK_SPAN, "core.protocol")
        self._tick_start = 0

    # ---- registration --------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        for column in (
            self.calls, self.entries, self.total_ns, self.self_ns, self.work
        ):
            column.append(0)
        return len(self.names) - 1

    def wrap(self, function: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """A timing wrapper around ``function`` recorded as span ``name``."""
        index = self._register(name, layer)
        clock = self.clock
        child_ns, open_spans = self._child_ns, self._open
        calls, entries = self.calls, self.entries
        total_ns, self_ns, layers = self.total_ns, self.self_ns, self.layers
        durations = None
        if name in KEEP_DURATIONS:
            durations = self.durations[name] = array("q")
        work, units = self.work, WORK_UNITS.get(name)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if units is not None:
                work[index] += units(args, kwargs)
            if not open_spans or layers[open_spans[-1]] != layer:
                entries[index] += 1
            open_spans.append(index)
            child_ns.append(0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                open_spans.pop()
                self_ns[index] += elapsed - child_ns.pop()
                total_ns[index] += elapsed
                calls[index] += 1
                if child_ns:
                    child_ns[-1] += elapsed
                if durations is not None:
                    durations.append(elapsed)
                if tracer.sampling or not open_spans:
                    tracer.sampled.append(
                        (index, len(open_spans), tracer.frame, start, end)
                    )

        return functools.wraps(function)(traced)

    def install(self) -> None:
        """Wrap every entry point in :data:`BOUNDARIES`, process-wide."""
        for boundary in BOUNDARIES:
            module = importlib.import_module(boundary.module)
            short = boundary.module.removeprefix("repro.")
            for name in boundary.names:
                if "." not in name:
                    original = getattr(module, name)
                    wrapper = self.wrap(original, f"{short}.{name}", boundary.layer)
                    _replace_everywhere(original, wrapper)
                    continue
                class_name, method = name.split(".")
                cls = getattr(module, class_name)
                methods = [method] if method != "*" else [
                    attr for attr, value in vars(cls).items()
                    if inspect.isfunction(value) and not attr.startswith("_")
                ]
                for attr in methods:
                    wrapper = self.wrap(
                        vars(cls)[attr], f"{short}.{class_name}.{attr}",
                        boundary.layer,
                    )
                    setattr(cls, attr, wrapper)

    # ---- frame hooks (wired to session.on_frame_begin / on_frame_end) --------

    def begin_frame(self, frame: int) -> None:
        self.frame = frame
        self.sampling = frame % SPAN_SAMPLE_STRIDE == 0
        self._frame_marks.append((frame, self.layer_self_ns()))
        # open the tick span: the wrapper's bookkeeping, split over two hooks
        if not self._open or self.layers[self._open[-1]] != "core.protocol":
            self.entries[self._tick_index] += 1
        self._open.append(self._tick_index)
        self._child_ns.append(0)
        self._tick_start = self.clock()

    def end_frame(self, frame: int) -> None:
        end = self.clock()
        elapsed = end - self._tick_start
        index = self._open.pop()
        if index != self._tick_index:
            raise RuntimeError("tick span closed while another span was open")
        self.self_ns[index] += elapsed - self._child_ns.pop()
        self.total_ns[index] += elapsed
        self.calls[index] += 1
        if self._child_ns:
            self._child_ns[-1] += elapsed
        if self.sampling:
            self.sampled.append(
                (index, len(self._open), frame, self._tick_start, end)
            )

    def end_run(self) -> None:
        """Close the last frame once ``session.run()`` has returned."""
        self.frame = -1
        self.sampling = False
        self._frame_marks.append((-1, self.layer_self_ns()))

    # ---- read-out ------------------------------------------------------------

    def layer_self_ns(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for layer, value in zip(self.layers, self.self_ns):
            totals[layer] = totals.get(layer, 0) + value
        return totals

    def span(self, name: str) -> dict[str, float]:
        """Aggregates of one span name (seconds); zeros when never called."""
        index = self.names.index(name)
        return {
            "calls": self.calls[index],
            "entries": self.entries[index],
            "work": self.work[index],
            "total_s": self.total_ns[index] / 1e9,
            "self_s": self.self_ns[index] / 1e9,
        }

    def layer(self, layer: str) -> dict[str, float]:
        """Aggregates over every span of one layer."""
        picked = [i for i, name in enumerate(self.layers) if name == layer]
        return {
            "calls": sum(self.calls[i] for i in picked),
            "entries": sum(self.entries[i] for i in picked),
            "self_s": sum(self.self_ns[i] for i in picked) / 1e9,
        }

    def duration_us(self, names: tuple[str, ...], quantile: float) -> float:
        """Nearest-rank quantile over the pooled call durations of ``names``."""
        pooled = [
            value for name in names for value in self.durations.get(name, ())
        ]
        return nearest_rank(pooled, quantile) / 1e3 if pooled else 0.0

    def frame_table(self) -> list[dict[str, Any]]:
        """Per frame: each layer's self seconds (frame start to next start)."""
        marks = self._frame_marks
        rows = []
        for (frame, before), (_, after) in zip(marks, marks[1:]):
            rows.append({
                "frame": frame,
                "self_s": {
                    layer: (after[layer] - before.get(layer, 0)) / 1e9
                    for layer in after
                    if after[layer] != before.get(layer, 0)
                },
            })
        return rows

    def span_records(self) -> list[dict[str, Any]]:
        """Sampled spans with explicit ids and parents.

        Spans complete children-first, so the parent of a span at depth d
        is the next span to complete at depth d - 1.  Depth-0 spans are
        recorded on every frame, and deeper spans never straddle a frame
        start, so a recorded span's parent is recorded too.
        """
        records: list[dict[str, Any]] = []
        waiting: dict[int, list[int]] = {}  # depth -> ids awaiting a parent
        for span_id, (index, depth, frame, start, end) in enumerate(self.sampled):
            records.append({
                "id": span_id,
                "parent": None,
                "name": self.names[index],
                "frame": frame,
                "start_ns": start,
                "end_ns": end,
            })
            for child in waiting.pop(depth + 1, ()):
                records[child]["parent"] = span_id
            waiting.setdefault(depth, []).append(span_id)
        return records


def _replace_everywhere(original: Any, wrapper: Any) -> None:
    """Rebind every ``repro.*`` module global that is ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
