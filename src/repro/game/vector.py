"""Small 3-D vector algebra used throughout the game substrate.

The game world is metric: positions are in Quake units (roughly 1 unit =
1 inch; an avatar is ~56 units tall, running speed is 320 units/s).  A tiny
immutable vector class keeps the simulator free of numpy so that traces can
be generated deterministically and cheaply, and hashed for replay checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

__all__ = ["Vec3", "clamp"]


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the inclusive range [low, high]."""
    if low > high:
        raise ValueError(f"empty clamp range [{low}, {high}]")
    return low if value < low else high if value > high else value


@dataclass(frozen=True, slots=True)
class Vec3:
    """An immutable 3-D vector of floats."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def zero() -> "Vec3":
        return Vec3(0.0, 0.0, 0.0)

    @staticmethod
    def from_yaw(yaw: float, length: float = 1.0) -> "Vec3":
        """A horizontal direction vector from a yaw angle (radians)."""
        return Vec3(math.cos(yaw) * length, math.sin(yaw) * length, 0.0)

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, scalar: float) -> "Vec3":
        return Vec3(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec3":
        return Vec3(self.x / scalar, self.y / scalar, self.z / scalar)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
        yield self.z

    # ---- geometry --------------------------------------------------------

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def length(self) -> float:
        return math.sqrt(self.dot(self))

    def horizontal_length(self) -> float:
        """Length of the XY projection (ground speed)."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Vec3") -> float:
        return (self - other).length()

    def normalized(self) -> "Vec3":
        norm = self.length()
        if norm < 1e-12:  # near-denormal vectors have no usable direction
            return Vec3.zero()
        return self / norm

    def lerp(self, other: "Vec3", t: float) -> "Vec3":
        """Linear interpolation: self at t=0, other at t=1."""
        return self + (other - self) * t

    def with_z(self, z: float) -> "Vec3":
        return Vec3(self.x, self.y, z)

    def yaw(self) -> float:
        """Yaw angle (radians) of the XY projection."""
        return math.atan2(self.y, self.x)

    def angle_to(self, other: "Vec3") -> float:
        """Angle (radians) between self and other; 0 for degenerate input."""
        denom = self.length() * other.length()
        if denom == 0.0:
            return 0.0
        cosine = clamp(self.dot(other) / denom, -1.0, 1.0)
        return math.acos(cosine)

    # ---- serialisation ---------------------------------------------------

    def to_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @staticmethod
    def from_tuple(values: tuple[float, float, float]) -> "Vec3":
        return Vec3(float(values[0]), float(values[1]), float(values[2]))
