"""A fixed calibration kernel: how slow is the machine *right now*?

The reference box is a shared 2-core VM whose speed moves by 25-40 % for
seconds to minutes at a time (co-tenants; CPU time moves with wall time,
so it is not descheduling).  Repeats and medians cannot remove a slow
phase that outlasts a whole run, so every untraced child also times this
kernel — about a millisecond of interpreter work of the protocol's kind
(attribute access, float maths, tuple-keyed dict writes, a bytearray
frame, an HMAC) that depends on nothing under ``src/`` — at every frame
start and around every phase.  A host-time sample is then divided by the
*slowdown* measured next to it: kernel time over :data:`REFERENCE_S`, the
kernel's time on the quiet reference box.  A quiet box reads slowdown 1.0
and the division changes nothing.

The kernel must never change: it is the unit host time is reported in.
"""

from __future__ import annotations

import hashlib
import hmac
import statistics
import struct
import time

__all__ = ["REFERENCE_S", "kernel", "slowdown", "local_slowdowns"]

#: the kernel's 5th-percentile time on the reference box (README, "Noise")
REFERENCE_S = 0.85e-3

#: frames on each side whose kernel samples are pooled for one frame
WINDOW = 2


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        self.x = x
        self.y = y
        self.z = z

    def distance_to(self, other: "_Point") -> float:
        dx = self.x - other.x
        dy = self.y - other.y
        dz = self.z - other.z
        return (dx * dx + dy * dy + dz * dz) ** 0.5


_POINTS = [_Point(i * 1.5, i * 0.5, i % 7) for i in range(64)]
_KEY = b"k" * 32


def kernel() -> float:
    """Run the fixed work once; returns its wall seconds."""
    clock = time.perf_counter
    started = clock()
    total = 0.0
    table = {}
    points = _POINTS
    pack = struct.pack
    for i in range(2500):
        a = points[i & 63]
        b = points[(i * 7) & 63]
        total += a.distance_to(b)
        table[(i & 255, i & 7)] = (total, a)
        if i & 63 == 0:
            frame = bytearray((i & 255,))
            frame += pack(">d", total)
            hmac.new(_KEY, bytes(frame), hashlib.sha256).digest()
    return clock() - started


def slowdown(samples: list[float]) -> float:
    """Machine slowdown over the moment ``samples`` were taken (>= 1 quiet)."""
    return statistics.median(samples) / REFERENCE_S


def local_slowdowns(samples: list[float], count: int) -> list[float]:
    """Per frame i of ``count``: slowdown from the samples taken at the
    starts of frames i-WINDOW .. i+WINDOW+1 (``samples`` has count + 1)."""
    return [
        slowdown(samples[max(0, i - WINDOW): i + WINDOW + 2])
        for i in range(count)
    ]
