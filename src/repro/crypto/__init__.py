"""Cryptographic substrate: verifiable PRNG and message signatures."""

from repro.crypto.prng import VerifiablePrng, draw_uint
from repro.crypto.signatures import (
    HmacKeyRegistry,
    HmacSigner,
    Signature,
    SigningError,
)

__all__ = [
    "HmacKeyRegistry",
    "HmacSigner",
    "Signature",
    "SigningError",
    "VerifiablePrng",
    "draw_uint",
]
