"""Cryptographic primitives for the locker protocol.

Deliberately narrow: SHA-256 hashing, HMAC-SHA-256 as the keyed PRF,
ChaCha20-Poly1305 for authenticated encryption, bytewise digest XOR,
constant-time comparison, and a seedable nonce source so simulations can
be replayed bit for bit. A sealed value is plain bytes: its 12-byte nonce,
then the AEAD output, ciphertext then 16-byte tag (RFC 8439). No custom
cryptography lives here; everything is a thin wrapper over stdlib
``hashlib``/``hmac`` and ``cryptography``.

`sha256`, `prf` and `xor_digests` make a `Digest` of an output that is 32
bytes by construction, so they skip its length recheck. Bytes read from
outside (a store row, a wire field) go through `Digest(...)`, which checks.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from typing import Protocol

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

DIGEST_LEN = 32
NONCE_LEN = 16
SEAL_NONCE_LEN = 12
TAG_LEN = 16
SEALED_MIN_LEN = SEAL_NONCE_LEN + TAG_LEN  # an empty plaintext's blob
MAX_KEY_LEN = 64


class CryptoError(Exception):
    """Base class for failures raised by this module."""


class AuthFailure(CryptoError):
    """A sealed blob failed to open: wrong key, tampered bytes or too short."""


class EntropyUnavailable(CryptoError):
    """The platform random source could not produce bytes."""


class Digest(bytes):
    """A 32-byte hash output. Equality is constant-time in the content."""

    def __new__(cls, value: bytes) -> "Digest":
        raw = bytes(value)
        if len(raw) != DIGEST_LEN:
            raise ValueError(f"digest must be {DIGEST_LEN} bytes, got {len(raw)}")
        return super().__new__(cls, raw)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (bytes, bytearray, memoryview)):
            return NotImplemented
        return ct_equal(self, other)

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = bytes.__hash__


class Nonce(bytes):
    """A 16-byte per-session random value."""

    def __new__(cls, value: bytes) -> "Nonce":
        raw = bytes(value)
        if len(raw) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes, got {len(raw)}")
        return super().__new__(cls, raw)


class SecretKey(bytes):
    """A user or provider secret, 1-64 bytes. repr never shows the content."""

    def __new__(cls, value: bytes) -> "SecretKey":
        raw = bytes(value)
        if not 1 <= len(raw) <= MAX_KEY_LEN:
            raise ValueError(f"secret key must be 1-{MAX_KEY_LEN} bytes, got {len(raw)}")
        return super().__new__(cls, raw)

    def __repr__(self) -> str:
        return f"SecretKey(<redacted, {len(self)} bytes>)"


class Rng(Protocol):
    """Source of raw bytes; system entropy in production, seeded in simulation."""

    def take(self, n: int) -> bytes: ...


class SystemRng:
    """CSPRNG-backed byte source (os.urandom)."""

    def take(self, n: int) -> bytes:
        try:
            return os.urandom(n)
        except (NotImplementedError, OSError) as exc:  # pragma: no cover
            raise EntropyUnavailable(str(exc)) from exc


class SeededRng:
    """Deterministic byte stream: SHA-256 over (seed, context, counter).

    Lets a scenario replay with identical nonces given the same 64-bit
    seed. Not a CSPRNG; used only by the simulation harness and tests.
    """

    def __init__(self, seed: int, context: bytes = b"") -> None:
        self._prefix = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big") + context
        self._counter = 0

    def take(self, n: int) -> bytes:
        out = b""
        while len(out) < n:
            out += hashlib.sha256(self._prefix + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
        return out[:n]


_system_rng = SystemRng()


def sha256(data: bytes) -> Digest:
    """Hash arbitrary bytes to a 32-byte digest."""
    return bytes.__new__(Digest, hashlib.sha256(data).digest())


def prf(key: bytes, data: bytes) -> Digest:
    """Keyed pseudo-random function: HMAC-SHA-256 under a 32-byte key."""
    if len(key) != DIGEST_LEN:
        raise ValueError(f"prf key must be {DIGEST_LEN} bytes, got {len(key)}")
    return bytes.__new__(Digest, hmac.digest(key, data, "sha256"))


def xor_digests(a: bytes, b: bytes) -> Digest:
    """Bytewise XOR of two 32-byte digests, done as one 256-bit integer XOR."""
    if len(a) != DIGEST_LEN or len(b) != DIGEST_LEN:
        raise ValueError("xor_digests operands must be 32 bytes each")
    x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return bytes.__new__(Digest, x.to_bytes(DIGEST_LEN, "big"))


def fresh_nonce(rng: Rng | None = None) -> Nonce:
    """Draw a fresh 16-byte session nonce."""
    return Nonce((rng or _system_rng).take(NONCE_LEN))


def seal(key: bytes, plaintext: bytes, rng: Rng | None = None) -> bytes:
    """Encrypt and authenticate under a 32-byte key with a fresh nonce;
    returns nonce || ciphertext || tag."""
    if len(key) != DIGEST_LEN:
        raise ValueError(f"seal key must be {DIGEST_LEN} bytes, got {len(key)}")
    nonce = (rng or _system_rng).take(SEAL_NONCE_LEN)
    return nonce + ChaCha20Poly1305(key).encrypt(nonce, plaintext, None)


def unseal(key: bytes, sealed: bytes) -> bytes:
    """Open a sealed blob; raises AuthFailure on wrong key, tampering or a
    blob too short to hold a nonce and a tag."""
    if len(key) != DIGEST_LEN:
        raise ValueError(f"unseal key must be {DIGEST_LEN} bytes, got {len(key)}")
    if len(sealed) < SEALED_MIN_LEN:
        raise AuthFailure(f"sealed blob is {len(sealed)} bytes, under {SEALED_MIN_LEN}")
    try:
        return ChaCha20Poly1305(key).decrypt(
            sealed[:SEAL_NONCE_LEN], sealed[SEAL_NONCE_LEN:], None
        )
    except InvalidTag as exc:
        raise AuthFailure("ciphertext did not authenticate under this key") from exc


def ct_equal(a: bytes, b: bytes) -> bool:
    """Constant-time equality for equal-length inputs; False if lengths differ."""
    return hmac.compare_digest(a, b)
