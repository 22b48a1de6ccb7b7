import base64
import json
import random

import pytest

from digilock import protocol
from digilock.crypto import SecretKey, SeededRng, sha256
from digilock.protocol import LockerPhase, LockerSession
from digilock.store import (
    AlreadyProvisioned,
    DuplicateUser,
    LockerStore,
    NotProvisioned,
    Registry,
    SessionNotOpen,
    StoreError,
    UnknownDocument,
    UnknownUser,
    vault_key,
)


def _open_session(user_id: str) -> LockerSession:
    return LockerSession(user_id=user_id, phase=LockerPhase.OPEN)


def test_provision_stores_h_r_only(tmp_path):
    provider_key = SecretKey(bytes(range(1, 33)))
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(provider_key)
    assert registry.h_r == sha256(bytes(provider_key))
    raw = locker_store.registry_path.read_bytes()
    assert bytes(provider_key) not in raw
    assert bytes(provider_key).hex().encode() not in raw


def test_provision_twice_fails(tmp_path):
    locker_store = LockerStore(tmp_path)
    locker_store.provision(SecretKey(b"master"))
    with pytest.raises(AlreadyProvisioned):
        locker_store.provision(SecretKey(b"master"))


def test_load_before_provision_fails(tmp_path):
    with pytest.raises(NotProvisioned):
        LockerStore(tmp_path).load_registry()


def test_register_and_get_record():
    registry = Registry.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    assert registry.get_record("alice") == record
    with pytest.raises(DuplicateUser):
        registry.register("alice", SecretKey(b"kb"), "other")
    with pytest.raises(UnknownUser):
        registry.get_record("bob")


def test_registry_save_load_round_trip(tmp_path):
    rnd = random.Random(0x5707E)
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(rnd.randbytes(16)))
    for i in range(50):
        registry.register(
            f"user-{i}", SecretKey(rnd.randbytes(16)), rnd.randbytes(12).hex()
        )
    locker_store.save_registry(registry)
    loaded = locker_store.load_registry()
    assert loaded.h_r == registry.h_r
    assert loaded.records == registry.records
    # save->load->save is byte identical
    locker_store.save_registry(loaded)
    first = locker_store.registry_path.read_bytes()
    locker_store.save_registry(locker_store.load_registry())
    assert locker_store.registry_path.read_bytes() == first


def test_registry_json_schema(tmp_path):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    registry.register("alice", SecretKey(b"ka"), "phrase")
    locker_store.save_registry(registry)
    doc = json.loads(locker_store.registry_path.read_text())
    assert doc["version"] == 1
    assert doc["h_r"] == sha256(b"master").hex()
    entry = doc["records"]["alice"]
    assert set(entry) == {"d_u", "sealed"}
    assert set(entry["sealed"]) == {"nonce", "body", "tag"}


def test_registry_version_2_fails_at_load(tmp_path):
    locker_store = LockerStore(tmp_path)
    locker_store.provision(SecretKey(b"master"))
    doc = json.loads(locker_store.registry_path.read_text())
    doc["version"] = 2
    locker_store.registry_path.write_text(json.dumps(doc))
    with pytest.raises(StoreError, match="version 2"):
        locker_store.load_registry()


def test_registry_decodes_a_record_on_first_lookup(tmp_path):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    registry.register("bob", SecretKey(b"kb"), "phrase")
    locker_store.save_registry(registry)
    doc = json.loads(locker_store.registry_path.read_text())
    doc["records"]["bob"]["sealed"]["tag"] = 7
    locker_store.registry_path.write_text(json.dumps(doc))
    loaded = locker_store.load_registry()  # bob's bad entry is not decoded here
    assert len(loaded.records) == 2 and "bob" in loaded.records
    assert loaded.get_record("alice") == record
    with pytest.raises(StoreError, match="bob") as caught:
        loaded.get_record("bob")
    assert not isinstance(caught.value, UnknownUser)
    assert loaded.to_json()["records"]["bob"] == doc["records"]["bob"]


def test_registry_file_contains_no_secret_bytes(tmp_path):
    rnd = random.Random(0x5EC2E7)
    provider_key = SecretKey(rnd.randbytes(24))
    user_key = SecretKey(rnd.randbytes(24))
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(provider_key)
    registry.register("alice", user_key, "a memorable phrase")
    locker_store.save_registry(registry)
    raw = locker_store.registry_path.read_bytes()
    for secret in (bytes(provider_key), bytes(user_key)):
        assert secret not in raw
        assert secret.hex().encode() not in raw
        assert base64.b64encode(secret) not in raw


def test_vault_round_trip(tmp_path):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    session = _open_session("alice")
    doc = b"deed of the house \x00\x01\x02"
    locker_store.vault_put("alice", "deed", doc, key_l, session)
    assert locker_store.vault_get("alice", "deed", key_l, session) == doc
    assert locker_store.vault_list("alice", session) == ["deed"]


def test_vault_list_names_match_entry_files(tmp_path):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("ålice", SecretKey(b"ka"), "phrase")
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    session = _open_session("ålice")
    names = ["zeta", "résumé", "日本語の書類", "a b.pdf", "\U0001f512 lock", "Z", "é"]
    for name in names:
        locker_store.vault_put("ålice", name, name.encode(), key_l, session)
    # the names stored inside the entries, in file order
    stored = [
        json.loads(path.read_text(encoding="utf-8"))["name"]
        for path in sorted(locker_store.vault_dir("ålice").glob("*.json"))
    ]
    assert locker_store.vault_list("ålice", session) == stored
    assert sorted(stored) == sorted(names)


def test_vault_requires_open_session(tmp_path):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    not_open = LockerSession(user_id="alice", phase=LockerPhase.CHALLENGE_SENT)
    with pytest.raises(SessionNotOpen):
        locker_store.vault_put("alice", "deed", b"doc", key_l, not_open)
    with pytest.raises(SessionNotOpen):
        locker_store.vault_get("alice", "deed", key_l, None)
    with pytest.raises(SessionNotOpen):
        locker_store.vault_list("alice", _open_session("bob"))


def test_vault_unknown_document(tmp_path):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    with pytest.raises(UnknownDocument):
        locker_store.vault_get("alice", "missing", key_l, _open_session("alice"))


def test_vault_file_does_not_leak_plaintext(tmp_path):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    session = _open_session("alice")
    doc = b"PLAINTEXT-MARKER-0123456789"
    locker_store.vault_put("alice", "doc", doc, key_l, session)
    (entry,) = list(locker_store.vault_dir("alice").glob("*.json"))
    raw = entry.read_bytes()
    assert doc not in raw
    assert base64.b64encode(doc) not in raw


def test_vault_entries_survive_reload(tmp_path):
    rnd = random.Random(0xD0C5)
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    session = _open_session("alice")
    docs = {f"doc-{i}": rnd.randbytes(rnd.randrange(1, 200)) for i in range(10)}
    for name, doc in docs.items():
        locker_store.vault_put("alice", name, doc, key_l, session, rng=SeededRng(1, name.encode()))
    fresh = LockerStore(tmp_path)
    for name, doc in docs.items():
        assert fresh.vault_get("alice", name, key_l, session) == doc
    assert sorted(fresh.vault_list("alice", session)) == sorted(docs)


def test_vault_key_derivation_is_labelled():
    key_l = sha256(b"some L value")
    assert vault_key(key_l) != key_l
    assert vault_key(key_l) != sha256(bytes(key_l) + b"vault")  # length-prefixed, not raw


def test_save_is_atomic_against_partial_writes(tmp_path):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    before = locker_store.registry_path.read_bytes()
    # a failing serialization must not clobber the existing file
    class Boom:
        def to_json(self):
            raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        locker_store.save_registry(Boom())
    assert locker_store.registry_path.read_bytes() == before
    assert not list(tmp_path.glob("registry.json.*"))  # no temp droppings


def test_provider_actor_has_no_store_capability():
    # provider-blindness: the provider seat holds no handle to registry or store
    from digilock.sim import ProviderActor

    provider = ProviderActor(SecretKey(b"master"))
    for value in vars(provider).values():
        assert not isinstance(value, (Registry, LockerStore))
