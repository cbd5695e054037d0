"""EC-Schnorr over secp256k1, from scratch (pure-Python group arithmetic).

A real public-key scheme behind the same ``sign`` / ``verify`` surface as
:class:`repro.crypto.signatures.HmacSigner`.  No session could ever be
handed one; it left ``src/`` in PR 19.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.signatures import Signature, SigningError

__all__ = ["SchnorrKeyPair", "SchnorrSigner"]


# ---------------------------------------------------------------------------
# secp256k1 group arithmetic (from scratch)
# ---------------------------------------------------------------------------

_P = 2**256 - 2**32 - 977
_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

_Point = tuple[int, int] | None  # None is the point at infinity


def _point_add(a: _Point, b: _Point) -> _Point:
    if a is None:
        return b
    if b is None:
        return a
    ax, ay = a
    bx, by = b
    if ax == bx and (ay + by) % _P == 0:
        return None
    if a == b:
        slope = (3 * ax * ax) * pow(2 * ay, _P - 2, _P) % _P
    else:
        slope = (by - ay) * pow(bx - ax, _P - 2, _P) % _P
    x = (slope * slope - ax - bx) % _P
    y = (slope * (ax - x) - ay) % _P
    return (x, y)


def _point_mul(k: int, point: _Point) -> _Point:
    result: _Point = None
    addend = point
    k %= _N
    while k:
        if k & 1:
            result = _point_add(result, addend)
        addend = _point_add(addend, addend)
        k >>= 1
    return result


def _hash_to_int(*parts: bytes) -> int:
    digest = hashlib.sha256(b"".join(parts)).digest()
    return int.from_bytes(digest, "big") % _N


def _encode_point(point: _Point) -> bytes:
    if point is None:
        return b"\x00" * 33
    x, y = point
    prefix = b"\x03" if y & 1 else b"\x02"
    return prefix + x.to_bytes(32, "big")


@dataclass(frozen=True)
class SchnorrKeyPair:
    """A secp256k1 keypair.  ``generate`` derives keys from a seed."""

    secret: int
    public: tuple[int, int]

    @staticmethod
    def generate(seed: bytes) -> "SchnorrKeyPair":
        if not seed:
            raise SigningError("seed must be non-empty")
        secret = (
            int.from_bytes(hashlib.sha256(b"watchmen-key" + seed).digest(), "big")
            % (_N - 1)
        ) + 1
        public = _point_mul(secret, (_GX, _GY))
        assert public is not None
        return SchnorrKeyPair(secret=secret, public=public)


class SchnorrSigner:
    """Schnorr signatures over secp256k1 with per-player keypairs.

    Sign: deterministic nonce k = H(secret‖m); R = kG; e = H(R‖P‖m);
    s = k + e·d (mod n).  Verify: sG == R + eP.
    """

    scheme = "schnorr-secp256k1"

    def __init__(self) -> None:
        self._keys: dict[int, SchnorrKeyPair] = {}
        self._public: dict[int, tuple[int, int]] = {}

    def register(self, player_id: int, seed: bytes | None = None) -> SchnorrKeyPair:
        """Create (or re-derive) and publish a keypair for ``player_id``."""
        pair = SchnorrKeyPair.generate(
            seed if seed is not None else player_id.to_bytes(8, "big")
        )
        self._keys[player_id] = pair
        self._public[player_id] = pair.public
        return pair

    def sign(self, player_id: int, message: bytes) -> Signature:
        pair = self._keys.get(player_id)
        if pair is None:
            raise SigningError(f"no keypair registered for player {player_id}")
        k = (
            int.from_bytes(
                hashlib.sha256(
                    pair.secret.to_bytes(32, "big") + message
                ).digest(),
                "big",
            )
            % (_N - 1)
        ) + 1
        r_point = _point_mul(k, (_GX, _GY))
        e = _hash_to_int(_encode_point(r_point), _encode_point(pair.public), message)
        s = (k + e * pair.secret) % _N
        data = _encode_point(r_point) + s.to_bytes(32, "big")
        return Signature(scheme=self.scheme, signer_id=player_id, data=data)

    # repro-taint: sanitizer
    def verify(self, player_id: int, message: bytes, signature: Signature) -> bool:
        if signature.scheme != self.scheme or signature.signer_id != player_id:
            return False
        public = self._public.get(player_id)
        if public is None or len(signature.data) != 65:
            return False
        r_encoded, s_bytes = signature.data[:33], signature.data[33:]
        s = int.from_bytes(s_bytes, "big")
        if not 0 < s < _N:
            return False
        r_point = self._decode_point(r_encoded)
        e = _hash_to_int(r_encoded, _encode_point(public), message)
        left = _point_mul(s, (_GX, _GY))
        right = _point_add(r_point, _point_mul(e, public))
        return left == right

    @staticmethod
    def _decode_point(encoded: bytes) -> _Point:
        if encoded == b"\x00" * 33:
            return None
        prefix, x = encoded[0], int.from_bytes(encoded[1:], "big")
        if prefix not in (2, 3) or x >= _P:
            return None
        y_squared = (pow(x, 3, _P) + 7) % _P
        y = pow(y_squared, (_P + 1) // 4, _P)
        if y * y % _P != y_squared:
            return None
        if (y & 1) != (prefix & 1):
            y = _P - y
        return (x, y)
