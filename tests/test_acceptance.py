"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one `[acceptance] ... PASS` line (visible with `pytest -s`
or `-rP`); a failing criterion fails its test. The whole module is sized to
finish in well under a minute on a laptop.
"""

import random

from digilock import explore, sim
from digilock.cli import main
from digilock.crypto import (
    AuthFailure,
    Digest,
    SecretKey,
    prf,
    seal,
    sha256,
    unseal,
)
from digilock.sim import HONEST_KIND_SEQUENCE
from digilock.store import LockerStore

import pytest


def _ok(name: str) -> None:
    print(f"[acceptance] {name}: PASS")


def test_c1_honest_run_completeness():
    # 1,000 seeded honest sessions: all Open, exact six-message sequence
    failures = 0
    for seed in range(1000):
        outcome, trace = sim.run_honest_session(seed=seed)
        if not outcome.locker_opened:
            failures += 1
        if trace.kind_sequence() != HONEST_KIND_SEQUENCE:
            failures += 1
    assert failures == 0
    _ok("C1 honest-run completeness (1000/1000 open, canonical sequence)")


def test_c2_repudiation():
    # 100 wrong user keys and 100 wrong provider keys: never opens, with
    # the right reasons; controls with correct keys open
    for seed in range(100):
        outcome, _ = sim.run_repudiation_scenario("wrong-user-key", seed=seed)
        assert not outcome.locker_opened
        assert outcome.failure_reason == "bad-user-key"
        outcome, _ = sim.run_repudiation_scenario("wrong-provider-key", seed=seed)
        assert not outcome.locker_opened
        assert outcome.failure_reason == "bad-provider-key"
        control, _ = sim.run_honest_session(seed=seed)
        assert control.locker_opened
    _ok("C2 repudiation (100+100 denials with correct reasons, controls open)")


def test_c3_replay():
    # replaying each of 100 prior sessions' auth requests: the locker
    # issues a challenge, the adversary cannot open it, terminal timeout
    for seed in range(100):
        outcome, trace = sim.run_replay_scenario(seed=seed)
        assert not outcome.locker_opened
        assert outcome.failure_reason == "timeout"
        assert outcome.adversary_failure == "challenge-auth-failure"
        replay_at = next(
            i for i, s in enumerate(trace.steps) if s.verdict == "replayed"
        )
        assert "challenge" in [s.kind for s in trace.steps[replay_at:]]
    _ok("C3 replay (100/100: challenge issued, adversary locked out, timeout)")


def test_c4_impersonation():
    # the provider-as-adversary cannot open the challenge in 100 seeded runs
    for seed in range(100):
        outcome, _ = sim.run_impersonation_scenario(seed=seed)
        assert not outcome.locker_opened
        assert outcome.failure_reason == "timeout"
        assert outcome.adversary_failure == "challenge-auth-failure"
    _ok("C4 impersonation (100/100: provider decrypt fails, locker times out)")


def test_c5_small_model_soundness():
    # depth-6 exhaustive enumeration under the replay/drop/duplicate/
    # bit-flip adversary: no Open without genuine keys and a user ack
    enum = explore.enumerate_small_traces(depth=6, seed=0)
    assert enum.states_explored < 100_000
    assert enum.sound, enum.violations
    assert enum.opened  # the honest completion is in the enumerated space
    for outcome in enum.opened:
        assert outcome.genuine == (True, True, True)
    adversary_only = explore.enumerate_small_traces(
        depth=6, seed=0, include_honest_user=False
    )
    assert not adversary_only.opened
    _ok(
        "C5 small-model soundness "
        f"({enum.states_explored} states, {enum.transitions} transitions, 0 rogue opens)"
    )


def test_c6_crypto_conformance():
    # hash vectors (FIPS 180), PRF vectors (RFC 4231, zero-padded keys),
    # AEAD round trip and wrong-key rejection on 10^4 random cases
    assert sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert sha256(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
    assert prf(Digest(bytes.fromhex("0b" * 20) + b"\x00" * 12), b"Hi There").hex() == (
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    )
    assert prf(
        Digest(b"Jefe" + b"\x00" * 28), b"what do ya want for nothing?"
    ).hex() == (
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    )
    rnd = random.Random(0xC6)
    for _ in range(10_000):
        key = Digest(rnd.randbytes(32))
        plaintext = rnd.randbytes(rnd.randrange(0, 64))
        ct = seal(key, plaintext)
        assert unseal(key, ct) == plaintext
        wrong = bytearray(key)
        wrong[rnd.randrange(32)] ^= 1 << rnd.randrange(8)
        with pytest.raises(AuthFailure):
            unseal(Digest(bytes(wrong)), ct)
    _ok("C6 crypto conformance (FIPS + RFC vectors, 10^4 AEAD cases)")


def test_c7_persistence(tmp_path):
    # 1,000 random records survive save/load bit-exactly; serialized files
    # contain no plaintext secret bytes
    rnd = random.Random(0xC7)
    provider_key = SecretKey(rnd.randbytes(32))
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(provider_key)
    secrets = [bytes(provider_key)]
    for i in range(1000):
        key = SecretKey(rnd.randbytes(rnd.randrange(8, 33)))
        secrets.append(bytes(key))
        registry.register(f"user-{i:04d}", key, rnd.randbytes(12).hex())
    locker_store.save_registry(registry)
    loaded = locker_store.load_registry()
    assert loaded.h_r == registry.h_r
    assert loaded.records == registry.records

    from digilock import protocol
    from digilock.protocol import LockerPhase, LockerSession

    session = LockerSession(user_id="user-0000", phase=LockerPhase.OPEN)
    record = registry.get_record("user-0000")
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    doc = rnd.randbytes(300)
    locker_store.vault_put("user-0000", "doc-a", doc, key_l, session)
    assert LockerStore(tmp_path).vault_get("user-0000", "doc-a", key_l, session) == doc

    # every file the store holds, the rollback journal included
    files = {p.relative_to(tmp_path).as_posix(): p.read_bytes()
             for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    assert {"registry.db", "registry.db-journal"} <= files.keys()
    assert sum(name.startswith("vault/") for name in files) == 1
    for name, raw in files.items():
        for secret in secrets:
            assert secret not in raw, name
        assert doc not in raw, name
    _ok("C7 persistence (1000 records bit-exact, no plaintext secrets on disk)")


def test_c8_simulate_determinism(tmp_path):
    # cmd_simulate with a fixed seed writes byte-identical traces
    for scenario in ("honest", "replay", "tamper"):
        a = tmp_path / f"{scenario}-a.jsonl"
        b = tmp_path / f"{scenario}-b.jsonl"
        for path in (a, b):
            code = main(
                [
                    "simulate",
                    "--scenario", scenario,
                    "--seed", "424242",
                    "--trace-out", str(path),
                ]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().strip()
    _ok("C8 determinism (fixed-seed traces byte-identical across runs)")
