"""Message signatures: truncated HMAC against the lobby's key registry.

"To prevent proxies from tampering with the messages they forward ...
Watchmen uses lightweight (i.e., 100 bits while state update messages are
700 bits on average) digital signatures, and each player verifies the
digital signature of the messages it receives.  This also prevents
replaying and spoofing."

:class:`HmacSigner` is a keyed MAC truncated to ``signature_bits`` (default
``SIGNATURE_BITS``, the paper's figure) against a trusted :class:`HmacKeyRegistry`, which
stands in for the PKI the game lobby would provide.  It rejects tampered
payloads, wrong-sender spoofing, and (together with the sequence numbers
carried by the protocol layer) replays.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro.core.config import SIGNATURE_BITS

__all__ = [
    "Signature",
    "SigningError",
    "HmacKeyRegistry",
    "HmacSigner",
]


class SigningError(ValueError):
    """Raised for malformed keys or signing misuse."""


@dataclass(frozen=True, slots=True)
class Signature:
    """A detached signature."""

    scheme: str
    signer_id: int
    data: bytes


class HmacKeyRegistry:
    """Derives and stores per-player MAC keys (the simulated lobby PKI)."""

    master_seed = b"watchmen-registry"

    def __init__(self) -> None:
        self._keys: dict[int, bytes] = {}

    def key_for(self, player_id: int) -> bytes:
        key = self._keys.get(player_id)
        if key is None:
            key = hashlib.sha256(
                self.master_seed + player_id.to_bytes(8, "big")
            ).digest()
            self._keys[player_id] = key
        return key


class HmacSigner:
    """Truncated HMAC-SHA256 'signatures' (default 100 bits, the paper's size)."""

    scheme = "hmac-sha256"

    def __init__(self, signature_bits: int = SIGNATURE_BITS) -> None:
        if signature_bits < 32 or signature_bits > 256:
            raise SigningError("signature_bits must be within [32, 256]")
        self.registry = HmacKeyRegistry()
        self.signature_bits = signature_bits
        self._size_bytes = (signature_bits + 7) // 8

    def register(self, player_id: int) -> None:
        """Derive the player's key now (it is derived on demand otherwise)."""
        self.registry.key_for(player_id)

    def _mac(self, player_id: int, message: bytes) -> bytes:
        return hmac.digest(self.registry.key_for(player_id), message, "sha256")[
            : self._size_bytes
        ]

    def sign(self, player_id: int, message: bytes) -> Signature:
        return Signature(
            scheme=self.scheme,
            signer_id=player_id,
            data=self._mac(player_id, message),
        )

    # repro-taint: sanitizer
    def verify(self, player_id: int, message: bytes, signature: Signature) -> bool:
        if signature.scheme != self.scheme or signature.signer_id != player_id:
            return False
        return hmac.compare_digest(self._mac(player_id, message), signature.data)
