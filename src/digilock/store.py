"""Persistence for the locker registry and the per-user document vault.

The registry is one SQLite database, <store>/registry.db, format version 2:

    meta(version INTEGER, h_r BLOB)                          one row
    records(user_id TEXT PRIMARY KEY, d_u BLOB, sealed BLOB)  WITHOUT ROWID

where sealed is the record's blob exactly as crypto.seal returned it; a row
whose blob is shorter than any seal output fails to decode. Each call opens
its own connection and closes it, and a CLI command makes one registry
call. lookup is one SELECT, meta LEFT JOIN records, that decodes only the
row asked for, so a session touches one record however many users exist,
and a row that fails to decode fails only its own user. register is one
transaction that reads h_r and INSERTs the record; the PRIMARY KEY turns a
clash into DuplicateUser. load_registry and save_registry move a whole
in-memory Registry to and from disk, for bulk set-up and tests. Locking
and atomicity are SQLite's: every write is a BEGIN IMMEDIATE transaction
with synchronous at its default FULL, so concurrent writers queue on the
lock and a crash mid-write leaves the previous state readable. Writes use
a persistent rollback journal (journal_mode=PERSIST): registry.db-journal
stays beside the database, each commit overwrites it in place and zeroes
its header, and only a crash can leave a hot journal for a reader to roll
back; creating and unlinking the file per commit cost a filesystem
metadata sync each.
Reads open the file with mode=rw, so an unprovisioned store gets no empty
database. A store that holds only a version-1 registry.json is refused:
migrating it is not implemented.
Vault entries are individual JSON files, sealed under a key derived from L
so documents at rest stay bound to both parties' keys; an entry keeps the
sealed blob as its nonce, body and tag, each in base64. The file name is
the hex of the document name (1-NAME_MAX = 120 bytes, so the temp file's
name fits 255 bytes). Entries are written to a temporary file and renamed
into place, without fsync; a put makes the vault directory only if it is
missing. vault_list reads one directory listing: it lists <non-empty
lower-case hex>.json names, refuses other .json names and skips other
files. read_file makes one os.open, then os.read calls, bounded for keys.
Everything here is reachable only from the locker actor; the provider seat
gets no handle to a store.
"""

from __future__ import annotations

import base64
import json
import os
import sqlite3
import tempfile
import urllib.parse
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import protocol
from .crypto import (
    DIGEST_LEN, SEAL_NONCE_LEN, SEALED_MIN_LEN, TAG_LEN, AuthFailure, Digest, Rng,
    SecretKey, seal, sha256, unseal,
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


def _ct_to_json(sealed: bytes) -> dict:
    parts = {
        "nonce": sealed[:SEAL_NONCE_LEN],
        "body": sealed[SEAL_NONCE_LEN:-TAG_LEN],
        "tag": sealed[-TAG_LEN:],
    }
    return {key: base64.b64encode(part).decode("ascii") for key, part in parts.items()}


def _ct_from_json(obj: dict) -> bytes:
    nonce, body, tag = (base64.b64decode(obj[key]) for key in ("nonce", "body", "tag"))
    if len(nonce) != SEAL_NONCE_LEN or len(tag) != TAG_LEN:
        raise ValueError("sealed nonce or tag has the wrong length")
    return nonce + body + tag


def _decode_record(user_id: str, d_u: object, sealed: object) -> LockerRecord:
    try:
        if not isinstance(d_u, bytes) or not isinstance(sealed, bytes):
            raise TypeError("d_u and sealed must be BLOBs")
        if len(sealed) < SEALED_MIN_LEN:
            raise ValueError(f"sealed is {len(sealed)} bytes, under {SEALED_MIN_LEN}")
        return LockerRecord(user_id=user_id, d_u=Digest(d_u), sealed=sealed)
    except (TypeError, ValueError) as exc:
        raise StoreError(f"corrupt registry record for user {user_id!r}: {exc!r}") from None


@dataclass
class Registry:
    """The locker's registry in memory: h(R) plus a dict of user records.

    The simulator runs on one. LockerStore.load_registry and save_registry
    move a whole one to and from disk, for bulk set-up and tests; the CLI
    uses LockerStore.lookup and LockerStore.register instead.
    """

    h_r: Digest
    records: dict[str, LockerRecord] = field(default_factory=dict)

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


def read_file(path: str | os.PathLike, limit: int = -1) -> bytes:
    """The file's bytes, all or, when `limit` >= 0, the first `limit`, past short reads."""
    fd = os.open(path, os.O_RDONLY | os.O_CLOEXEC)
    try:
        chunks = []
        while limit and (chunk := os.read(fd, limit if limit > 0 else 1 << 16)):
            chunks.append(chunk)
            limit -= len(chunk)
        return b"".join(chunks)
    except OSError as exc:  # os.read names no file, as EISDIR on a directory
        exc.filename = os.fspath(path)
        raise
    finally:
        os.close(fd)


def _atomic_write(path: str, data: bytes) -> None:
    # crash between write and rename must not corrupt the previous file
    directory, name = os.path.split(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=name + ".")
    except FileNotFoundError:  # a user's first entry: no vault directory yet
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=name + ".")
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
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


def _meta_row(
    con: sqlite3.Connection, sql: str = "SELECT version, h_r FROM meta", params: tuple = ()
) -> tuple | None:
    """The first row of `sql`, a query on the meta table; None when the
    database has no meta table or no meta row, that is, is not provisioned."""
    try:
        return con.execute(sql, params).fetchone()
    except sqlite3.OperationalError as exc:
        if "no such table" in str(exc):
            return None
        raise


def _record_row(record: LockerRecord) -> tuple[str, bytes, bytes]:
    return record.user_id, bytes(record.d_u), record.sealed


class LockerStore:
    """Filesystem-backed locker state: registry database plus vault directory."""

    def __init__(self, root: str | os.PathLike) -> None:
        self._root = os.fspath(root)
        self._registry = os.path.join(self._root, REGISTRY_FILENAME)
        # as Path.absolute().as_uri(): a relative root joined to the cwd, `..` kept
        path = os.path.join("" if os.path.isabs(self._root) else os.getcwd(), self._registry)
        self._uri = "file://" + urllib.parse.quote_from_bytes(os.fsencode(path))

    root = property(lambda self: Path(self._root), doc="the store directory")
    registry_path = property(lambda self: Path(self._registry), doc="registry.db's path")

    def _user_dir(self, user_id: str) -> str:
        return os.path.join(self._root, VAULT_DIRNAME, user_id.encode("utf-8").hex())

    def vault_dir(self, user_id: str) -> Path:
        return Path(self._user_dir(user_id))

    def _refuse_v1(self) -> None:
        legacy = self.root / V1_REGISTRY_FILENAME
        if legacy.exists():
            raise StoreError(
                f"{legacy} is a version-1 registry; this version reads only "
                f"{REGISTRY_FILENAME} (version {REGISTRY_VERSION}) and cannot "
                "migrate it"
            )

    @contextmanager
    def _connect(self, mode: str = "rw") -> Iterator[sqlite3.Connection]:
        """One autocommit connection, closed on exit; mode=rw never creates
        the file. SQLite errors become StoreError."""
        try:
            con = sqlite3.connect(f"{self._uri}?mode={mode}", uri=True, isolation_level=None)
        except sqlite3.Error as exc:
            if self.registry_path.exists():
                raise StoreError(f"cannot open {self.registry_path}: {exc}") from None
            self._refuse_v1()
            raise NotProvisioned(f"no registry at {self.registry_path}") from None
        try:
            yield con
        except sqlite3.Error as exc:
            raise StoreError(f"registry {self.registry_path}: {exc}") from exc
        finally:
            con.close()

    @contextmanager
    def _write(self, mode: str = "rw") -> Iterator[sqlite3.Connection]:
        """One write transaction, committed on success and rolled back on any
        error. BEGIN IMMEDIATE takes the write lock before the first read, so
        concurrent writers wait on SQLite's busy timeout in turn. The journal
        is PERSIST: the commit zeroes the journal's header instead of
        deleting the file, so no commit creates a file."""
        with self._connect(mode) as con:
            con.execute("PRAGMA journal_mode=PERSIST")
            con.execute("BEGIN IMMEDIATE")
            with con:
                yield con

    def _h_r(self, meta: tuple | None) -> Digest:
        """h(R) from a meta row that starts (version, h_r); an unprovisioned
        store, another version or a malformed h_r is refused."""
        if meta is None:
            raise NotProvisioned(f"no registry at {self.registry_path}")
        version, h_r = meta[:2]
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
        return registry

    def lookup(self, user_id: str) -> tuple[Digest, LockerRecord | None]:
        """h(R) and the record of `user_id`, or None if it has none.

        One SELECT on one connection; only that user's row is decoded, so a
        corrupt row fails only its own user.
        """
        with self._connect() as con:
            row = _meta_row(
                con,
                "SELECT version, h_r, user_id, d_u, sealed FROM meta"
                " LEFT JOIN records ON user_id = ?",
                (user_id,),
            )
        h_r = self._h_r(row)
        return h_r, None if row[2] is None else _decode_record(*row[2:])

    def register(self, user_id: str, key: SecretKey, phrase: str) -> LockerRecord:
        """Add one user in one transaction: read h(R), then INSERT the record."""
        with self._write() as con:
            h_r = self._h_r(_meta_row(con))
            record = protocol.register_user(user_id, key, phrase, h_r)
            try:
                con.execute("INSERT INTO records VALUES (?, ?, ?)", _record_row(record))
            except sqlite3.IntegrityError:
                raise DuplicateUser(f"user {user_id!r} already registered") from None
        return record

    def load_registry(self) -> Registry:
        """The whole registry, every record decoded; a corrupt row fails the load."""
        with self._connect() as con:
            h_r = self._h_r(_meta_row(con))
            rows = con.execute("SELECT user_id, d_u, sealed FROM records").fetchall()
        return Registry(h_r, {row[0]: _decode_record(*row) for row in rows})

    def save_registry(self, registry: Registry) -> None:
        """Insert, in one transaction, the records of `registry` not yet stored.

        If a stored row under one of its ids differs, DuplicateUser is raised
        and nothing is written.
        """
        with self._write() as con:
            stored = {row[0]: row for row in con.execute("SELECT * FROM records")}
            for user_id, record in registry.records.items():
                if user_id in stored and stored[user_id] != _record_row(record):
                    raise DuplicateUser(f"user {user_id!r} already registered")
            con.executemany(
                "INSERT INTO records VALUES (?, ?, ?)",
                (_record_row(r) for u, r in registry.records.items() if u not in stored),
            )

    def _entry_path(self, user_id: str, name: str) -> str:
        raw = name.encode("utf-8")
        if not 1 <= len(raw) <= NAME_MAX:
            raise StoreError(f"document name must be 1-{NAME_MAX} UTF-8 bytes")
        return os.path.join(self._user_dir(user_id), raw.hex() + ".json")

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
        path = self._entry_path(user_id, name)
        sealed = seal(vault_key(key_l), doc, rng)
        entry = {"version": 1, "user_id": user_id, "name": name, "sealed": _ct_to_json(sealed)}
        _atomic_write(path, json.dumps(entry, indent=2).encode("utf-8"))

    def vault_get(
        self, user_id: str, name: str, key_l: Digest, session: LockerSession | None
    ) -> bytes:
        _require_open(session, user_id)
        path = self._entry_path(user_id, name)
        try:
            entry = json.loads(read_file(path).decode("utf-8"))
            return unseal(vault_key(key_l), _ct_from_json(entry["sealed"]))
        except (FileNotFoundError, NotADirectoryError):
            raise UnknownDocument(f"no document {name!r} for user {user_id!r}") from None
        except (AuthFailure, KeyError, TypeError, ValueError) as exc:
            raise StoreError(
                f"vault entry {name!r} of user {user_id!r} is malformed or does not "
                f"unseal ({type(exc).__name__})"
            ) from exc

    def vault_list(self, user_id: str, session: LockerSession | None) -> list[str]:
        _require_open(session, user_id)
        try:
            files = os.listdir(self._user_dir(user_id))
        except (FileNotFoundError, NotADirectoryError):
            return []
        names = []
        # the file name is hex(UTF-8 name), so hex order is byte order
        for file in sorted(file for file in files if file.endswith(".json")):
            try:
                name = bytes.fromhex(file[:-5]).decode("utf-8")
            except ValueError:  # not hex, or not UTF-8 (UnicodeDecodeError)
                name = ""
            # only the file `_entry_path` writes for a name, 1 byte or more, lists it
            if not name or name.encode("utf-8").hex() + ".json" != file:
                raise StoreError(
                    f"vault file {file!r} of user {user_id!r} is not a document entry"
                )
            names.append(name)
        return names
