import random

import pytest

from digilock import crypto
from digilock.crypto import (
    AuthFailure,
    Ciphertext,
    Digest,
    SecretKey,
    SeededRng,
    ct_equal,
    fresh_nonce,
    prf,
    seal,
    sha256,
    unseal,
    xor_digests,
)

# Published vectors, independently recomputed with openssl before freezing.
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

# HMAC-SHA-256 test cases with keys zero-padded to 32 bytes (padding does
# not change the MAC for keys shorter than the block size).
HMAC_VECTORS = [
    (
        bytes.fromhex("0b" * 20) + b"\x00" * 12,
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe" + b"\x00" * 28,
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        bytes.fromhex("aa" * 20) + b"\x00" * 12,
        bytes.fromhex("dd" * 50),
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        bytes(range(1, 26)) + b"\x00" * 7,
        bytes.fromhex("cd" * 50),
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
    ),
]


def test_sha256_known_vectors():
    assert sha256(b"").hex() == SHA256_EMPTY
    assert sha256(b"abc").hex() == SHA256_ABC


def test_sha256_deterministic():
    for data in (b"", b"x", b"locker" * 100):
        assert sha256(data) == sha256(data)


@pytest.mark.parametrize("key,msg,expected", HMAC_VECTORS)
def test_prf_rfc_vectors(key, msg, expected):
    assert prf(Digest(key), msg).hex() == expected


def test_prf_distinct_keys_distinct_outputs():
    rnd = random.Random(0xD161)
    msg = b"fixed input"
    for _ in range(10_000):
        k1 = Digest(rnd.randbytes(32))
        k2 = Digest(rnd.randbytes(32))
        if k1 == k2:  # pragma: no cover
            continue
        assert prf(k1, msg) != prf(k2, msg)


def test_prf_rejects_short_key():
    with pytest.raises(ValueError):
        prf(b"short", b"data")


def test_xor_digests_properties():
    rnd = random.Random(0x0A0B)
    zero = Digest(b"\x00" * 32)
    for _ in range(200):
        a = Digest(rnd.randbytes(32))
        b = Digest(rnd.randbytes(32))
        c = Digest(rnd.randbytes(32))
        assert xor_digests(a, a) == zero
        assert xor_digests(a, zero) == a
        assert xor_digests(xor_digests(a, b), b) == a
        assert xor_digests(a, b) == xor_digests(b, a)
        assert xor_digests(xor_digests(a, b), c) == xor_digests(a, xor_digests(b, c))


def test_xor_digests_matches_bytewise_reference():
    rnd = random.Random(0x0B0C)
    edges = [b"\x00" * 32, b"\xff" * 32, b"\x80" + b"\x00" * 31, b"\x00" * 31 + b"\x01"]
    pairs = [(x, y) for x in edges for y in edges]
    pairs += [(rnd.randbytes(32), rnd.randbytes(32)) for _ in range(500)]
    for a, b in pairs:
        out = xor_digests(a, b)
        assert isinstance(out, Digest)
        assert bytes(out) == bytes(x ^ y for x, y in zip(a, b))
    for bad in (b"", b"\x00" * 31, b"\x00" * 33):
        with pytest.raises(ValueError):
            xor_digests(bad, b"\x00" * 32)
        with pytest.raises(ValueError):
            xor_digests(b"\x00" * 32, bad)


def test_seal_unseal_round_trip():
    rnd = random.Random(0x5EA1)
    for _ in range(100):
        key = Digest(rnd.randbytes(32))
        plaintext = rnd.randbytes(rnd.randrange(0, 300))
        assert unseal(key, seal(key, plaintext)) == plaintext


def test_seal_twice_differs():
    key = sha256(b"k")
    assert seal(key, b"p").to_bytes() != seal(key, b"p").to_bytes()


def test_unseal_wrong_key_fails():
    rnd = random.Random(0xBAD)
    key = Digest(rnd.randbytes(32))
    ct = seal(key, b"m||Ki||Ui")
    for _ in range(20):
        wrong = Digest(rnd.randbytes(32))
        if wrong == key:  # pragma: no cover
            continue
        with pytest.raises(AuthFailure):
            unseal(wrong, ct)


def test_unseal_flipped_key_byte_fails():
    key = sha256(b"the right key")
    ct = seal(key, b"payload")
    flipped = bytearray(key)
    flipped[0] ^= 0x01
    with pytest.raises(AuthFailure):
        unseal(Digest(bytes(flipped)), ct)


def test_unseal_bitflip_in_body_fails():
    key = sha256(b"k2")
    ct = seal(key, b"some plaintext of fair length")
    for pos in range(len(ct.body)):
        mutated = bytearray(ct.body)
        mutated[pos] ^= 0x80
        bad = Ciphertext(nonce=ct.nonce, body=bytes(mutated), tag=ct.tag)
        with pytest.raises(AuthFailure):
            unseal(key, bad)


def test_ciphertext_round_trips_through_bytes():
    key = sha256(b"k3")
    ct = seal(key, b"doc")
    again = Ciphertext.from_bytes(ct.to_bytes())
    assert again == ct
    assert unseal(key, again) == b"doc"


def test_fresh_nonce_shape_and_freshness():
    a = fresh_nonce()
    b = fresh_nonce()
    assert len(a) == 16 and len(b) == 16
    assert a != b


def test_nonce_collision_scan():
    draws = 100_000
    seen = {bytes(fresh_nonce()) for _ in range(draws)}
    assert len(seen) == draws


def test_ct_equal():
    assert ct_equal(b"same", b"same")
    assert not ct_equal(b"same", b"sami")
    assert not ct_equal(b"short", b"longer input")
    x = bytes(range(32))
    flipped = bytes([x[0] ^ 1]) + x[1:]
    assert not ct_equal(x, flipped)


def test_digest_requires_32_bytes():
    with pytest.raises(ValueError):
        Digest(b"\x00" * 31)
    with pytest.raises(ValueError):
        Digest(b"\x00" * 33)


def test_secret_key_repr_is_redacted():
    key = SecretKey(b"super secret value")
    assert b"super" not in repr(key).encode()
    assert "redacted" in repr(key)
    assert "18 bytes" in repr(key)
    with pytest.raises(ValueError):
        SecretKey(b"")
    with pytest.raises(ValueError):
        SecretKey(b"x" * 65)


def test_seeded_rng_is_deterministic():
    a = SeededRng(42, b"ctx")
    b = SeededRng(42, b"ctx")
    assert a.take(33) == b.take(33)
    assert SeededRng(42, b"ctx").take(8) != SeededRng(43, b"ctx").take(8)
    assert SeededRng(42, b"a").take(8) != SeededRng(42, b"b").take(8)


def test_seeded_rng_drives_seal_reproducibly():
    key = sha256(b"key")
    first = seal(key, b"doc", SeededRng(7, b"seal"))
    second = seal(key, b"doc", SeededRng(7, b"seal"))
    assert first == second


def test_system_rng_take():
    assert len(crypto.SystemRng().take(16)) == 16
