import base64
import hashlib
import json
import os
import random
import sqlite3
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import pytest

import digilock
from digilock import protocol, store
from digilock.crypto import Digest, SecretKey, SeededRng, sha256
from digilock.protocol import LockerPhase, LockerRecord, LockerSession
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


def _sql(locker_store: LockerStore, statement: str) -> list:
    with closing(sqlite3.connect(locker_store.registry_path)) as con, con:
        return con.execute(statement).fetchall()


def _journal_header(root: Path) -> bytes:
    """The first 28 bytes of the persistent rollback journal: all zero after
    a commit, so no reader takes the file for a hot journal to roll back."""
    return (root / "registry.db-journal").read_bytes()[:28]


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


def test_load_before_provision_creates_no_file(tmp_path):
    missing = tmp_path / "never-made"
    with pytest.raises(NotProvisioned):
        LockerStore(missing).load_registry()
    assert not missing.exists()
    with pytest.raises(NotProvisioned):
        LockerStore(tmp_path).register("alice", SecretKey(b"ka"), "phrase")
    assert list(tmp_path.iterdir()) == []
    # a file without the meta row (say, an interrupted provision) is not a registry
    locker_store = LockerStore(tmp_path)
    locker_store.registry_path.touch()
    with pytest.raises(NotProvisioned):
        locker_store.load_registry()
    locker_store.provision(SecretKey(b"master"))
    assert locker_store.load_registry().h_r == sha256(b"master")


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


def test_registry_db_schema(tmp_path):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    locker_store.save_registry(registry)
    columns = {
        table: [(row[1], row[2], row[5]) for row in _sql(locker_store, f"PRAGMA table_info({table})")]
        for table in ("meta", "records")
    }
    assert columns == {
        "meta": [("version", "INTEGER", 0), ("h_r", "BLOB", 0)],
        "records": [("user_id", "TEXT", 1), ("d_u", "BLOB", 0), ("sealed", "BLOB", 0)],
    }
    assert _sql(locker_store, "SELECT version, h_r FROM meta") == [(2, bytes(sha256(b"master")))]
    assert _sql(locker_store, "SELECT * FROM records") == [
        ("alice", bytes(record.d_u), record.sealed)
    ]


_PINNED_ROW_SHA256 = "3dc1d88ae8216afe223f43635f4a641c88e0442443a24699206e8d575d1134d1"
_PINNED_ENTRY_SHA256 = "f5a9d5d1a8b1644f243c37c447f4c4533fb10738f34f647e692e52597a892c41"


def test_sealed_formats_are_pinned(tmp_path):
    # a seeded registry row and vault entry file, byte for byte: a change to
    # how a sealed blob is built, stored or encoded changes these digests
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase", rng=SeededRng(3, b"reg"))
    locker_store.save_registry(registry)
    (row,) = _sql(locker_store, "SELECT * FROM records")
    assert hashlib.sha256(repr(row).encode()).hexdigest() == _PINNED_ROW_SHA256
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    locker_store.vault_put(
        "alice", "deed", b"deed of the house", key_l, _open_session("alice"),
        rng=SeededRng(3, b"vault"),
    )
    entry = locker_store.vault_dir("alice") / (b"deed".hex() + ".json")
    assert hashlib.sha256(entry.read_bytes()).hexdigest() == _PINNED_ENTRY_SHA256


_REGISTRY_CALLS = {
    "load_registry": lambda locker_store: locker_store.load_registry(),
    "lookup": lambda locker_store: locker_store.lookup("alice"),
    "register": lambda locker_store: locker_store.register("carol", SecretKey(b"kc"), "p"),
}


@pytest.mark.parametrize("call", list(_REGISTRY_CALLS))
@pytest.mark.parametrize("damage,error,match", [
    pytest.param("UPDATE meta SET version = 3", StoreError, "version 3", id="unknown-version"),
    pytest.param(
        "UPDATE meta SET h_r = substr(h_r, 1, 31)", StoreError, "not a digest", id="short-h_r"
    ),
    pytest.param("DROP TABLE meta", NotProvisioned, "no registry", id="no-meta-table"),
    pytest.param(None, StoreError, "version-1 registry", id="v1-json"),
])
def test_registry_refusals_fail_load_lookup_and_register(tmp_path, call, damage, error, match):
    locker_store = LockerStore(tmp_path)
    if damage is None:
        (tmp_path / "registry.json").write_text('{"version":1,"records":{}}')
    else:
        registry = locker_store.provision(SecretKey(b"master"))
        registry.register("alice", SecretKey(b"ka"), "phrase")
        locker_store.save_registry(registry)
        _sql(locker_store, damage)
    with pytest.raises(error, match=match) as caught:
        _REGISTRY_CALLS[call](locker_store)
    assert type(caught.value) is error
    if damage is None:
        assert not locker_store.registry_path.exists()
    else:
        assert _sql(locker_store, "SELECT user_id FROM records") == [("alice",)]


def test_lookup_decodes_only_its_own_row(tmp_path):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    registry.register("bob", SecretKey(b"kb"), "phrase")
    locker_store.save_registry(registry)
    _sql(locker_store, "UPDATE records SET sealed = x'0bad' WHERE user_id = 'bob'")
    assert locker_store.lookup("alice") == (registry.h_r, record)
    with pytest.raises(StoreError, match="bob") as caught:
        locker_store.lookup("bob")
    assert not isinstance(caught.value, UnknownUser)
    with pytest.raises(StoreError, match="bob"):
        locker_store.load_registry()  # the whole-registry form decodes every row
    assert _sql(locker_store, "SELECT sealed FROM records WHERE user_id = 'bob'") == [(b"\x0b\xad",)]


@pytest.mark.parametrize(
    "d_u,sealed,refused",
    [
        pytest.param(b"\x01" * 31, b"\x02" * 40, True, id="d_u-31-bytes"),
        # an INTEGER 32 would pass Digest() as 32 zero bytes if the type went unchecked
        pytest.param(32, b"\x02" * 40, True, id="d_u-not-a-blob"),
        pytest.param(b"\x01" * 32, "s" * 40, True, id="sealed-not-a-blob"),
        pytest.param(b"\x01" * 32, b"\x02" * 28, False, id="sealed-at-the-minimum"),
        pytest.param(b"\x01" * 32, b"\x02" * 27, True, id="sealed-one-under"),
    ],
)
def test_a_record_row_decodes_only_with_a_digest_and_a_long_enough_blob(
    tmp_path, d_u, sealed, refused
):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    registry.register("alice", SecretKey(b"ka"), "phrase")
    locker_store.save_registry(registry)
    with closing(sqlite3.connect(locker_store.registry_path)) as con, con:
        con.execute("UPDATE records SET d_u = ?, sealed = ?", (d_u, sealed))
    if refused:
        with pytest.raises(StoreError, match="corrupt registry record for user 'alice'"):
            locker_store.lookup("alice")
    else:
        _, record = locker_store.lookup("alice")
        assert (record.d_u, record.sealed) == (d_u, sealed)
        assert type(record.d_u) is Digest


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


def test_vault_name_limit_fits_the_temp_file_name(tmp_path):
    # the entry is written through a temp file named hex(name) + ".json." +
    # 8 random characters, which must fit a 255-byte file name
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    session = _open_session("alice")
    longest = "n" * 120
    locker_store.vault_put("alice", longest, b"doc", key_l, session)
    assert locker_store.vault_get("alice", longest, key_l, session) == b"doc"
    assert locker_store.vault_list("alice", session) == [longest]
    other = LockerStore(tmp_path / "other")
    other.provision(SecretKey(b"master"))
    with pytest.raises(StoreError, match="1-120 UTF-8 bytes"):
        other.vault_put("alice", "é" * 60 + "n", b"doc", key_l, session)
    assert not (tmp_path / "other" / "vault").exists()


@pytest.mark.parametrize("name", ["", "n" * 121], ids=["empty", "121-bytes"])
def test_vault_put_refuses_a_bad_name_before_sealing(tmp_path, monkeypatch, name):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    sealed = []
    real_seal = store.seal
    monkeypatch.setattr(store, "seal", lambda *args: sealed.append(args) or real_seal(*args))
    with pytest.raises(StoreError, match="1-120 UTF-8 bytes"):
        locker_store.vault_put("alice", name, b"doc", key_l, _open_session("alice"))
    assert sealed == []
    assert not (tmp_path / "vault").exists()


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


def _alter_tag(entry):
    tag = bytearray(base64.b64decode(entry["sealed"]["tag"]))
    tag[0] ^= 1
    entry["sealed"]["tag"] = base64.b64encode(bytes(tag)).decode("ascii")


@pytest.mark.parametrize(
    "corrupt",
    [
        _alter_tag,
        lambda entry: entry.pop("sealed"),
        lambda entry: entry.update(sealed=["not", "a", "ciphertext"]),
        lambda entry: entry["sealed"].update(nonce="not base64!"),
    ],
    ids=["tag-altered", "sealed-removed", "sealed-not-a-mapping", "nonce-not-base64"],
)
def test_vault_get_of_a_corrupt_entry_is_a_store_error(tmp_path, corrupt):
    # a failed unseal or a malformed entry is a store failure that names the
    # document and its user, not an AuthFailure or KeyError from the inside
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    session = _open_session("alice")
    locker_store.vault_put("alice", "deed", b"deed bytes", key_l, session)
    (path,) = locker_store.vault_dir("alice").glob("*.json")
    entry = json.loads(path.read_text(encoding="utf-8"))
    corrupt(entry)
    path.write_text(json.dumps(entry), encoding="utf-8")
    with pytest.raises(StoreError, match="'deed'.*'alice'"):
        locker_store.vault_get("alice", "deed", key_l, session)


@pytest.mark.parametrize(
    "stem", ["zz", "ff", "4A"], ids=["not-hex", "not-utf-8", "upper-case-hex"]
)
def test_vault_list_of_a_stray_file_is_a_store_error(tmp_path, stem):
    # a file whose name is not lower-case hex(UTF-8 name) cannot be listed;
    # the error names the file and its user, not a bare fromhex or codec
    # error. "4A" would otherwise list a document "J" that `vault_get("J")`
    # never reads, since it opens "4a.json"
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    session = _open_session("alice")
    locker_store.vault_put("alice", "deed", b"deed bytes", key_l, session)
    (locker_store.vault_dir("alice") / f"{stem}.json").write_text("{}", encoding="utf-8")
    with pytest.raises(StoreError, match=f"'{stem}.json'.*'alice'"):
        locker_store.vault_list("alice", session)


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
    record = registry.register("alice", SecretKey(b"ka"), "phrase")

    # a record SQLite cannot bind, after alice's INSERT ran, must roll the
    # whole transaction back
    registry.records["boom"] = LockerRecord(user_id="boom", d_u=record.d_u, sealed=object())
    with pytest.raises(StoreError):
        locker_store.save_registry(registry)
    assert locker_store.registry_path.read_bytes() == before
    assert "alice" not in locker_store.load_registry().records
    # no temp file; the journal stays allocated, its header zeroed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["registry.db", "registry.db-journal"]
    assert _journal_header(tmp_path) == bytes(28)


def test_provider_actor_has_no_store_capability():
    # provider-blindness: the provider seat holds no handle to registry or store
    from digilock.sim import ProviderActor

    provider = ProviderActor(SecretKey(b"master"))
    for value in vars(provider).values():
        assert not isinstance(value, (Registry, LockerStore))


def test_lookups_read_one_row_and_registers_read_none(tmp_path, monkeypatch):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    for i in range(20):
        registry.register(f"user-{i}", SecretKey(b"k%d" % i), "p")
    locker_store.save_registry(registry)
    loaded = locker_store.load_registry()
    statements = []
    real_connect = sqlite3.connect

    def connect(*args, **kwargs):
        con = real_connect(*args, **kwargs)
        con.set_trace_callback(statements.append)
        return con

    monkeypatch.setattr(sqlite3, "connect", connect)
    assert locker_store.lookup("user-7") == (registry.h_r, registry.records["user-7"])
    assert locker_store.lookup("nobody") == (registry.h_r, None)
    assert [sql.split()[0] for sql in statements] == ["SELECT", "SELECT"]
    for i in range(50):
        loaded.register(f"new-{i}", SecretKey(b"n%d" % i), "p")
    assert len(statements) == 2  # a loaded registry registers in memory
    locker_store.save_registry(loaded)
    saved = statements[2:]
    assert [sql.split()[0] for sql in saved if not sql.startswith("INSERT")] == [
        "PRAGMA", "BEGIN", "SELECT", "COMMIT"
    ]
    assert saved[:2] == ["PRAGMA journal_mode=PERSIST", "BEGIN IMMEDIATE"]
    assert len(locker_store.load_registry().records) == 70


def test_duplicate_of_a_stored_user_fails_at_save_and_writes_nothing(tmp_path):
    locker_store = LockerStore(tmp_path)
    locker_store.provision(SecretKey(b"master"))
    stale = locker_store.load_registry()
    locker_store.register("alice", SecretKey(b"ka"), "phrase")  # a second writer
    stale.register("carol", SecretKey(b"kc"), "phrase")
    stale.register("alice", SecretKey(b"kb"), "other")  # stale: alice is not in it
    with pytest.raises(DuplicateUser, match="'alice'"):
        locker_store.save_registry(stale)
    assert sorted(locker_store.load_registry().records) == ["alice"]
    with pytest.raises(DuplicateUser, match="'alice'"):
        locker_store.register("alice", SecretKey(b"kb"), "other")


def test_writes_keep_full_sync_and_a_persistent_journal(tmp_path):
    # durability is never relaxed: a write connection syncs at FULL, and its
    # journal is overwritten in place rather than created and unlinked
    locker_store = LockerStore(tmp_path)
    locker_store.provision(SecretKey(b"master"))
    with locker_store._write() as con:
        assert con.execute("PRAGMA synchronous").fetchone() == (2,)
        assert con.execute("PRAGMA journal_mode").fetchone() == ("persist",)
        assert con.in_transaction


_CRASH_IN_COMMIT = """
import os, sqlite3, sys
from digilock.crypto import SecretKey
from digilock.store import LockerStore

real_connect = sqlite3.connect

def connect(*args, **kwargs):
    con = real_connect(*args, **kwargs)
    # die as the COMMIT starts: the INSERT has run, the transaction is open
    con.set_trace_callback(lambda sql: os._exit(9) if sql == "COMMIT" else None)
    return con

sqlite3.connect = connect
LockerStore(sys.argv[1]).register("mallory", SecretKey(b"km"), "phrase")
"""


def test_crash_inside_write_transaction_keeps_old_state(tmp_path):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    alice = registry.register("alice", SecretKey(b"ka"), "phrase")
    bob = registry.register("bob", SecretKey(b"kb"), "phrase")
    locker_store.save_registry(registry)
    assert _journal_header(tmp_path) == bytes(28)
    env = dict(os.environ, PYTHONPATH=str(Path(digilock.__file__).parent.parent))
    child = subprocess.run(
        [sys.executable, "-c", _CRASH_IN_COMMIT, str(tmp_path)],
        env=env, capture_output=True, timeout=60,
    )
    assert child.returncode == 9, child.stderr
    # it died mid-transaction: the journal holds that transaction's header
    assert _journal_header(tmp_path) != bytes(28)
    loaded = locker_store.load_registry()
    assert loaded.get_record("alice") == alice
    assert loaded.get_record("bob") == bob
    assert "mallory" not in loaded.records
    locker_store.register("mallory", SecretKey(b"km"), "phrase")
    assert sorted(locker_store.load_registry().records) == ["alice", "bob", "mallory"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["registry.db", "registry.db-journal"]
    assert _journal_header(tmp_path) == bytes(28)



def _vault_with_deed(tmp_path):
    locker_store = LockerStore(tmp_path)
    registry = locker_store.provision(SecretKey(b"master"))
    record = registry.register("alice", SecretKey(b"ka"), "phrase")
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    session = _open_session("alice")
    locker_store.vault_put("alice", "deed", b"deed bytes", key_l, session)
    return locker_store, key_l, session


@pytest.mark.parametrize("part", ["nonce", "tag"])
def test_vault_get_refuses_a_nonce_or_tag_of_the_wrong_length(tmp_path, part):
    # moving a byte from the body into the nonce or the tag keeps the sealed
    # bytes, so the entry would still unseal; the codec refuses the split
    locker_store, key_l, session = _vault_with_deed(tmp_path)
    (path,) = locker_store.vault_dir("alice").glob("*.json")
    entry = json.loads(path.read_text(encoding="utf-8"))
    nonce, body, tag = (base64.b64decode(entry["sealed"][k]) for k in ("nonce", "body", "tag"))
    if part == "nonce":
        nonce, body = nonce + body[:1], body[1:]
    else:
        body, tag = body[:-1], body[-1:] + tag
    entry["sealed"] = {
        k: base64.b64encode(v).decode("ascii")
        for k, v in (("nonce", nonce), ("body", body), ("tag", tag))
    }
    path.write_text(json.dumps(entry), encoding="utf-8")
    with pytest.raises(StoreError, match="'deed'.*'alice'"):
        locker_store.vault_get("alice", "deed", key_l, session)


def test_vault_put_that_cannot_rename_leaves_the_old_entry_and_no_temp_file(
    tmp_path, monkeypatch
):
    locker_store, key_l, session = _vault_with_deed(tmp_path)
    vault_dir = locker_store.vault_dir("alice")
    before = sorted(p.name for p in vault_dir.iterdir())

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        locker_store.vault_put("alice", "deed", b"new deed", key_l, session)
    monkeypatch.undo()
    assert sorted(p.name for p in vault_dir.iterdir()) == before
    assert locker_store.vault_get("alice", "deed", key_l, session) == b"deed bytes"
