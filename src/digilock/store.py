"""Persistence for the locker registry and the per-user document vault.

The registry is one compact JSON document: {"version": 1, "h_r": hex,
"records": {user id: {"d_u": hex, "sealed": {"nonce": b64, "body": b64,
"tag": b64}}}}. Loading checks the version and h_r but keeps each record as
its parsed JSON entry; a record is decoded the first time it is looked up,
and saving passes entries that were never decoded straight through, so a
session touches one record rather than all of them. Commands that change
the registry (provision, register) hold an exclusive flock on
registry.lock in the store for their whole load-modify-save.
Vault entries are individual JSON files with base64 bodies, sealed under a
key derived from L so documents at rest stay bound to both parties' keys;
the file name is the hex of the document name.
Everything here is reachable only from the locker actor; the provider seat
gets no handle to a store.
"""

from __future__ import annotations

import base64
import fcntl
import json
import os
import tempfile
from collections.abc import Iterator, MutableMapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import protocol
from .crypto import Ciphertext, Digest, Rng, SecretKey, seal, sha256, unseal
from .protocol import LockerPhase, LockerRecord, LockerSession
from .wire import encode_fields

REGISTRY_FILENAME = "registry.json"
LOCK_FILENAME = "registry.lock"
VAULT_DIRNAME = "vault"
VAULT_KEY_LABEL = b"vault"
NAME_MAX = 128


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


def _record_to_json(record: LockerRecord) -> dict:
    return {"d_u": record.d_u.hex(), "sealed": _ct_to_json(record.sealed)}


def _record_from_json(user_id: str, entry: object) -> LockerRecord:
    try:
        return LockerRecord(
            user_id=user_id,
            d_u=Digest(bytes.fromhex(entry["d_u"])),
            sealed=_ct_from_json(entry["sealed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"corrupt registry record for user {user_id!r}: {exc!r}") from None


class Records(MutableMapping[str, LockerRecord]):
    """User id -> LockerRecord, holding loaded records as their JSON entries.

    An entry is decoded on first lookup and the record replaces it, so a
    registry of N users costs one decode per user actually touched. A
    malformed entry raises StoreError when looked up, not at load.
    """

    def __init__(self, entries: dict | None = None) -> None:
        self._entries: dict[str, object] = dict(entries or {})

    def __getitem__(self, user_id: str) -> LockerRecord:
        value = self._entries[user_id]
        if not isinstance(value, LockerRecord):
            value = self._entries[user_id] = _record_from_json(user_id, value)
        return value

    def __setitem__(self, user_id: str, record: LockerRecord) -> None:
        self._entries[user_id] = record

    def __delitem__(self, user_id: str) -> None:
        del self._entries[user_id]

    def __contains__(self, user_id: object) -> bool:
        return user_id in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def to_json(self) -> dict:
        return {
            uid: _record_to_json(value) if isinstance(value, LockerRecord) else value
            for uid, value in self._entries.items()
        }


@dataclass
class Registry:
    """The locker's registry: provider digest plus per-user records."""

    h_r: Digest
    records: Records = field(default_factory=Records)

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
        if user_id in self.records:
            raise DuplicateUser(f"user {user_id!r} already registered")
        record = protocol.register_user(user_id, key, phrase, self.h_r, rng=rng)
        self.records[user_id] = record
        return record

    def get_record(self, user_id: str) -> LockerRecord:
        try:
            return self.records[user_id]
        except KeyError:
            raise UnknownUser(f"no record for user {user_id!r}") from None

    def to_json(self) -> dict:
        return {"version": 1, "h_r": self.h_r.hex(), "records": self.records.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "Registry":
        if obj.get("version") != 1:
            raise StoreError(f"unsupported registry version {obj.get('version')!r}")
        if not isinstance(obj.get("records"), dict):
            raise StoreError("registry records must be a JSON object")
        return cls(h_r=Digest(bytes.fromhex(obj["h_r"])), records=Records(obj["records"]))


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


class LockerStore:
    """Filesystem-backed locker state: registry file plus vault directory."""

    def __init__(
        self,
        root: str | Path,
        *,
        registry_filename: str = REGISTRY_FILENAME,
        vault_dirname: str = VAULT_DIRNAME,
    ) -> None:
        self.root = Path(root)
        self.registry_filename = registry_filename
        self.vault_dirname = vault_dirname

    @property
    def registry_path(self) -> Path:
        return self.root / self.registry_filename

    def vault_dir(self, user_id: str) -> Path:
        return self.root / self.vault_dirname / user_id.encode("utf-8").hex()

    def is_provisioned(self) -> bool:
        return self.registry_path.exists()

    @contextmanager
    def _registry_lock(self) -> Iterator[None]:
        """Hold an exclusive lock on the registry across processes.

        Every load-modify-save of the registry runs inside it; otherwise two
        writers that load the same file each save without the other's change.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / LOCK_FILENAME, "ab") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)  # released when the file closes
            yield

    def provision(self, provider_key: SecretKey) -> Registry:
        with self._registry_lock():
            if self.is_provisioned():
                raise AlreadyProvisioned(f"registry exists at {self.registry_path}")
            registry = Registry.provision(provider_key)
            self.save_registry(registry)
        return registry

    def register(self, user_id: str, key: SecretKey, phrase: str) -> LockerRecord:
        """Add one user to the on-disk registry under the registry lock."""
        with self._registry_lock():
            registry = self.load_registry()
            record = registry.register(user_id, key, phrase)
            self.save_registry(registry)
        return record

    def load_registry(self) -> Registry:
        if not self.is_provisioned():
            raise NotProvisioned(f"no registry at {self.registry_path}")
        with open(self.registry_path, "r", encoding="utf-8") as handle:
            return Registry.from_json(json.load(handle))

    def save_registry(self, registry: Registry) -> None:
        # compact separators keep json.dumps on its C encoder; indent does not
        data = json.dumps(registry.to_json(), separators=(",", ":")).encode("utf-8")
        self.root.mkdir(parents=True, exist_ok=True)
        _atomic_write(self.registry_path, data)

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
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        return unseal(vault_key(key_l), _ct_from_json(entry["sealed"]))

    def vault_list(
        self, user_id: str, session: LockerSession | None
    ) -> list[str]:
        _require_open(session, user_id)
        directory = self.vault_dir(user_id)
        if not directory.exists():
            return []
        # the file name is hex(UTF-8 name), so hex order is byte order
        return [
            bytes.fromhex(path.stem).decode("utf-8")
            for path in sorted(directory.glob("*.json"))
        ]
