"""Persistence for the locker registry and the per-user document vault.

The registry is one SQLite database, <store>/registry.db, format version 2:

    meta(version INTEGER, h_r BLOB)                          one row
    records(user_id TEXT PRIMARY KEY, d_u BLOB, sealed BLOB)  WITHOUT ROWID

where sealed is the record's Ciphertext as nonce || body || tag (12 and 16
bytes at the ends). Loading reads only the meta row. Registry.records is then
a StoredRecords mapping that answers a lookup with one indexed SELECT and
decodes only that row, so a session touches one record however many users
exist, and a row that fails to decode fails only its own user.
save_registry inserts the records added since load or provision in one
transaction, and the PRIMARY KEY turns a clash into DuplicateUser; register
is that one INSERT. Locking and atomicity are SQLite's: every write is a
BEGIN IMMEDIATE transaction, the journal is SQLite's default rollback journal
and synchronous its default FULL, so concurrent writers queue on the lock and
a crash mid-write leaves the previous state readable. Reads open the file
with mode=rw, so an unprovisioned store gets no empty database. A CLI
command is one `with LockerStore` block, whose calls share one connection,
closed when the block ends; outside a block each call opens its own. A
store in a block belongs to one thread (SQLite's check_same_thread). A
store that holds only a version-1 registry.json is refused: migrating it is
not implemented.
Vault entries are individual JSON files with base64 bodies, sealed under a
key derived from L so documents at rest stay bound to both parties' keys;
the file name is the hex of the document name (1-NAME_MAX = 120 bytes, so
the temp file's name fits 255 bytes). Entries are written to a temporary
file and renamed into place, without fsync.
Everything here is reachable only from the locker actor; the provider seat
gets no handle to a store.
"""

from __future__ import annotations

import base64
import json
import os
import sqlite3
import tempfile
from collections.abc import Iterator, MutableMapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import protocol
from .crypto import (
    DIGEST_LEN, AuthFailure, Ciphertext, Digest, Rng, SecretKey, seal, sha256, unseal,
)
from .protocol import LockerPhase, LockerRecord, LockerSession
from .wire import encode_fields

REGISTRY_FILENAME = "registry.db"
REGISTRY_VERSION = 2
V1_REGISTRY_FILENAME = "registry.json"
VAULT_DIRNAME = "vault"
VAULT_KEY_LABEL = b"vault"
# the longest name whose temp file, hex(name) + ".json." + 8 random
# characters, fits a 255-byte file name
NAME_MAX = (255 - len(".json.") - 8) // 2  # 120

_SCHEMA = (
    "CREATE TABLE meta (version INTEGER NOT NULL, h_r BLOB NOT NULL)",
    "CREATE TABLE records (user_id TEXT PRIMARY KEY, d_u BLOB NOT NULL,"
    " sealed BLOB NOT NULL) WITHOUT ROWID",
)


class StoreError(Exception):
    """Base class for store failures."""


class AlreadyProvisioned(StoreError):
    pass


class NotProvisioned(StoreError):
    pass


class DuplicateUser(StoreError):
    pass


class UnknownUser(StoreError):
    pass


class SessionNotOpen(StoreError):
    pass


class UnknownDocument(StoreError):
    pass


def vault_key(key_l: Digest) -> Digest:
    """Storage key for a user's vault, derived from L."""
    return sha256(encode_fields([bytes(key_l), VAULT_KEY_LABEL]))


def _ct_to_json(ct: Ciphertext) -> dict:
    return {
        "nonce": base64.b64encode(ct.nonce).decode("ascii"),
        "body": base64.b64encode(ct.body).decode("ascii"),
        "tag": base64.b64encode(ct.tag).decode("ascii"),
    }


def _ct_from_json(obj: dict) -> Ciphertext:
    return Ciphertext(
        nonce=base64.b64decode(obj["nonce"]),
        body=base64.b64decode(obj["body"]),
        tag=base64.b64decode(obj["tag"]),
    )


def _decode_record(user_id: str, d_u: object, sealed: object) -> LockerRecord:
    try:
        if not isinstance(d_u, bytes) or not isinstance(sealed, bytes):
            raise TypeError("d_u and sealed must be BLOBs")
        return LockerRecord(
            user_id=user_id, d_u=Digest(d_u), sealed=Ciphertext.from_bytes(sealed)
        )
    except (TypeError, ValueError) as exc:
        raise StoreError(f"corrupt registry record for user {user_id!r}: {exc!r}") from None


class StoredRecords(MutableMapping[str, LockerRecord]):
    """User id -> LockerRecord over the records table of one store.

    A lookup is one indexed SELECT; a row found is kept, since records are
    never changed or deleted, and decoded when first read. Records set here
    are kept in `added` until LockerStore.save_registry inserts them.
    """

    def __init__(self, locker_store: LockerStore) -> None:
        self._store = locker_store
        self._held: dict[str, LockerRecord | tuple] = {}
        self.added: dict[str, LockerRecord] = {}

    def _row(self, user_id: str) -> LockerRecord | tuple | None:
        held = self._held.get(user_id)
        if held is None:
            rows = self._store._query(
                "SELECT d_u, sealed FROM records WHERE user_id = ?", (user_id,)
            )
            if rows:
                held = self._held[user_id] = rows[0]
        return held

    def __getitem__(self, user_id: str) -> LockerRecord:
        held = self._row(user_id)
        if held is None:
            raise KeyError(user_id)
        if not isinstance(held, LockerRecord):
            held = self._held[user_id] = _decode_record(user_id, *held)
        return held

    def __contains__(self, user_id: object) -> bool:
        return isinstance(user_id, str) and self._row(user_id) is not None

    def __setitem__(self, user_id: str, record: LockerRecord) -> None:
        self._held[user_id] = self.added[user_id] = record

    def __delitem__(self, user_id: str) -> None:
        raise StoreError("registry records are never deleted")

    def setdefault(self, user_id: str, record: LockerRecord) -> object:
        """Keep `record` unless one is already held for `user_id`.

        Unlike a lookup this runs no SELECT, so registering N users reads
        nothing; a clash with a stored row raises DuplicateUser at save.
        """
        held = self._held.get(user_id)
        if held is None:
            self[user_id] = held = record
        return held

    def __iter__(self) -> Iterator[str]:
        rows = self._store._query("SELECT user_id, d_u, sealed FROM records")
        for user_id, *row in rows:
            self._held.setdefault(user_id, tuple(row))
        return iter([row[0] for row in rows] + list(self.added))

    def __len__(self) -> int:
        ((count,),) = self._store._query("SELECT count(*) FROM records")
        return count + len(self.added)


@dataclass
class Registry:
    """The locker's registry: provider digest plus per-user records.

    In memory (sim) the records are a plain dict; a registry loaded
    from or provisioned in a LockerStore holds StoredRecords.
    """

    h_r: Digest
    records: MutableMapping[str, LockerRecord] = field(default_factory=dict)

    @classmethod
    def provision(cls, provider_key: SecretKey) -> "Registry":
        """Create a fresh registry holding h(R); R itself is never kept."""
        return cls(h_r=sha256(bytes(provider_key)))

    def register(
        self,
        user_id: str,
        key: SecretKey,
        phrase: str,
        *,
        rng: Rng | None = None,
    ) -> LockerRecord:
        record = protocol.register_user(user_id, key, phrase, self.h_r, rng=rng)
        if self.records.setdefault(user_id, record) is not record:
            raise DuplicateUser(f"user {user_id!r} already registered")
        return record

    def get_record(self, user_id: str) -> LockerRecord:
        try:
            return self.records[user_id]
        except KeyError:
            raise UnknownUser(f"no record for user {user_id!r}") from None


def _atomic_write(path: Path, data: bytes) -> None:
    # crash between write and rename must not corrupt the previous file
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _require_open(session: LockerSession | None, user_id: str) -> None:
    if (
        session is None
        or session.phase is not LockerPhase.OPEN
        or session.user_id != user_id
    ):
        raise SessionNotOpen(f"no open session for user {user_id!r}")


def _meta_row(con: sqlite3.Connection) -> tuple | None:
    try:
        return con.execute("SELECT version, h_r FROM meta").fetchone()
    except sqlite3.OperationalError as exc:
        if "no such table" in str(exc):
            return None
        raise


class LockerStore:
    """Filesystem-backed locker state: registry database plus vault directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._con: sqlite3.Connection | None = None  # held by a `with` block

    @property
    def registry_path(self) -> Path:
        return self.root / REGISTRY_FILENAME

    def vault_dir(self, user_id: str) -> Path:
        return self.root / VAULT_DIRNAME / user_id.encode("utf-8").hex()

    def _refuse_v1(self) -> None:
        legacy = self.root / V1_REGISTRY_FILENAME
        if legacy.exists():
            raise StoreError(
                f"{legacy} is a version-1 registry; this version reads only "
                f"{REGISTRY_FILENAME} (version {REGISTRY_VERSION}) and cannot "
                "migrate it"
            )

    def __enter__(self) -> LockerStore:
        self._con = self._open("rw")
        return self

    def __exit__(self, *exc_info: object) -> None:
        con, self._con = self._con, None
        con.close()

    def _open(self, mode: str) -> sqlite3.Connection:
        """One autocommit connection; mode=rw never creates the file."""
        uri = f"{self.registry_path.absolute().as_uri()}?mode={mode}"
        try:
            return sqlite3.connect(uri, uri=True, isolation_level=None)
        except sqlite3.Error as exc:
            if self.registry_path.exists():
                raise StoreError(f"cannot open {self.registry_path}: {exc}") from None
            self._refuse_v1()
            raise NotProvisioned(f"no registry at {self.registry_path}") from None

    @contextmanager
    def _connect(self, mode: str = "rw") -> Iterator[sqlite3.Connection]:
        """The `with` block's connection, or else one closed on exit; SQLite
        errors become StoreError."""
        con = self._con or self._open(mode)
        try:
            yield con
        except sqlite3.Error as exc:
            raise StoreError(f"registry {self.registry_path}: {exc}") from exc
        finally:
            if con is not self._con:
                con.close()

    @contextmanager
    def _write(self, mode: str = "rw") -> Iterator[sqlite3.Connection]:
        """One write transaction, committed on success and rolled back on any
        error. BEGIN IMMEDIATE takes the write lock before the first read, so
        concurrent writers wait on SQLite's busy timeout in turn."""
        with self._connect(mode) as con:
            con.execute("BEGIN IMMEDIATE")
            with con:
                yield con

    def _query(self, sql: str, params: tuple = ()) -> list:
        with self._connect() as con:
            return con.execute(sql, params).fetchall()

    def _h_r(self, con: sqlite3.Connection) -> Digest:
        row = _meta_row(con)
        if row is None:
            raise NotProvisioned(f"no registry at {self.registry_path}")
        version, h_r = row
        if version != REGISTRY_VERSION:
            raise StoreError(f"unsupported registry version {version!r}")
        if not isinstance(h_r, bytes) or len(h_r) != DIGEST_LEN:
            raise StoreError("corrupt registry meta row: h_r is not a digest")
        return Digest(h_r)

    def provision(self, provider_key: SecretKey) -> Registry:
        self._refuse_v1()
        self.root.mkdir(parents=True, exist_ok=True)
        registry = Registry.provision(provider_key)
        with self._write("rwc") as con:
            if _meta_row(con) is not None:
                raise AlreadyProvisioned(f"registry exists at {self.registry_path}")
            for statement in _SCHEMA:
                con.execute(statement)
            con.execute(
                "INSERT INTO meta VALUES (?, ?)", (REGISTRY_VERSION, bytes(registry.h_r))
            )
        return Registry(h_r=registry.h_r, records=StoredRecords(self))

    def register(self, user_id: str, key: SecretKey, phrase: str) -> LockerRecord:
        """Add one user to the on-disk registry: one INSERT, one transaction."""
        registry = self.load_registry()
        record = registry.register(user_id, key, phrase)
        self.save_registry(registry)
        return record

    def load_registry(self) -> Registry:
        with self._connect() as con:
            h_r = self._h_r(con)
        return Registry(h_r=h_r, records=StoredRecords(self))

    def save_registry(self, registry: Registry) -> None:
        """Insert the records added since load or provision in one transaction.

        If any of them is already stored, DuplicateUser is raised and nothing
        is written.
        """
        added = registry.records.added
        if not added:
            return
        with self._write() as con:
            try:
                con.executemany(
                    "INSERT INTO records VALUES (?, ?, ?)",
                    (
                        (user_id, bytes(record.d_u), record.sealed.to_bytes())
                        for user_id, record in added.items()
                    ),
                )
            except sqlite3.IntegrityError:
                who = f"user {next(iter(added))!r}" if len(added) == 1 else "a user"
                raise DuplicateUser(f"{who} already registered") from None
        added.clear()

    def _entry_path(self, user_id: str, name: str) -> Path:
        raw = name.encode("utf-8")
        if not 1 <= len(raw) <= NAME_MAX:
            raise StoreError(f"document name must be 1-{NAME_MAX} UTF-8 bytes")
        return self.vault_dir(user_id) / (raw.hex() + ".json")

    def vault_put(
        self,
        user_id: str,
        name: str,
        doc: bytes,
        key_l: Digest,
        session: LockerSession | None,
        *,
        rng: Rng | None = None,
    ) -> None:
        _require_open(session, user_id)
        sealed = seal(vault_key(key_l), doc, rng)
        entry = {
            "version": 1,
            "user_id": user_id,
            "name": name,
            "sealed": _ct_to_json(sealed),
        }
        path = self._entry_path(user_id, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, json.dumps(entry, indent=2).encode("utf-8"))

    def vault_get(
        self,
        user_id: str,
        name: str,
        key_l: Digest,
        session: LockerSession | None,
    ) -> bytes:
        _require_open(session, user_id)
        path = self._entry_path(user_id, name)
        if not path.exists():
            raise UnknownDocument(f"no document {name!r} for user {user_id!r}")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            return unseal(vault_key(key_l), _ct_from_json(entry["sealed"]))
        except (AuthFailure, KeyError, TypeError, ValueError) as exc:
            raise StoreError(
                f"vault entry {name!r} of user {user_id!r} is malformed or does not "
                f"unseal ({type(exc).__name__})"
            ) from exc

    def vault_list(
        self, user_id: str, session: LockerSession | None
    ) -> list[str]:
        _require_open(session, user_id)
        directory = self.vault_dir(user_id)
        if not directory.exists():
            return []
        names = []
        # the file name is hex(UTF-8 name), so hex order is byte order
        for path in sorted(directory.glob("*.json")):
            try:
                name = bytes.fromhex(path.stem).decode("utf-8")
            except ValueError:  # not hex, or not UTF-8 (UnicodeDecodeError)
                name = ""
            # only the file `_entry_path` writes for the name lists it
            if name.encode("utf-8").hex() != path.stem:
                raise StoreError(
                    f"vault file {path.name!r} of user {user_id!r} is not a document entry"
                )
            names.append(name)
        return names
