"""Store commands killed part-way, in a forked child, and what the next
command finds on disk."""

import itertools
import json
import os
import shutil
import sqlite3
from pathlib import Path

import pytest

from digilock.cli import main

CRASH_EXIT = 97


def _killed(argv, die):
    """Run `main(argv)` in a forked child that first calls `die`, which sets
    where the child dies, as a killed process does, by `os._exit(CRASH_EXIT)`.
    Returns the child's exit code: main's own if it passes that point."""
    pid = os.fork()
    if pid == 0:  # the child never returns into the test run
        try:
            die()
            os._exit(main(argv))
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def _before_rename():
    """Die at the first `os.replace`: after the temporary file is written,
    before the rename."""
    os.replace = lambda *args, **kwargs: os._exit(CRASH_EXIT)


def _at_statement(k, after=False):
    """Die as the k-th SQL statement on the child's connections starts, or,
    `after`, once the call that ran it has returned or raised: its `execute`,
    or, for the COMMIT or ROLLBACK, the exit of the connection's `with`."""
    def die():
        connect, started = sqlite3.connect, [0]

        def start(sql):
            started[0] += 1
            if started[0] == k and not after:
                os._exit(CRASH_EXIT)

        def returned():
            if after and started[0] >= k:
                os._exit(CRASH_EXIT)

        class Traced(sqlite3.Connection):
            def execute(self, *args):
                try:
                    return super().execute(*args)
                finally:
                    returned()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    returned()

        def traced(*args, **kwargs):
            con = connect(*args, factory=Traced, **kwargs)
            con.set_trace_callback(start)
            return con

        sqlite3.connect = traced
    return die


def _at_file_op(k, after=False):
    """Die as the k-th call to `os.mkdir`, `os.open`, `os.write` or
    `os.replace` in the child starts, or, `after`, once it has returned or
    raised."""
    def die():
        started = itertools.count(1)

        def traced(call):
            def run(*args, **kwargs):
                crash = next(started) == k
                if crash and not after:
                    os._exit(CRASH_EXIT)
                try:
                    return call(*args, **kwargs)
                finally:
                    if crash:
                        os._exit(CRASH_EXIT)
            return run

        for name in ("mkdir", "open", "write", "replace"):
            setattr(os, name, traced(getattr(os, name)))
    return die


def _assert_no_plaintext_secret(store, secrets):
    """C7's scan: no file under the store, the journal and any temporary
    file included, holds a secret or a document in plaintext."""
    files = [path for path in sorted(Path(store).rglob("*")) if path.is_file()]
    assert files
    for path in files:
        raw = path.read_bytes()
        for secret in secrets:
            assert secret not in raw, (path, secret)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 18: a vault put killed between writing its temporary "
    "file and renaming it leaves that file in the user's vault directory for "
    "good; item 5 (the vault as a table) removes the temporary file",
)
def test_a_put_killed_before_its_rename_leaves_only_entry_files(tmp_path):
    store = str(tmp_path / "store")
    (tmp_path / "provider.key").write_bytes(b"provider key material")
    (tmp_path / "alice.key").write_bytes(b"alice key material")
    credentials = [
        "--store", store, "--user", "alice", "--key-file", str(tmp_path / "alice.key"),
        "--phrase", "blue bicycle",
    ]
    provider = ["--provider-key-file", str(tmp_path / "provider.key")]
    assert main(["provision", "--store", store, *provider]) == 0
    assert main(["register", *credentials]) == 0
    vault = ["vault", *credentials, *provider]
    for version in (b"v1", b"v2", b"v3"):
        (tmp_path / f"{version.decode()}.bin").write_bytes(version)

    def put(version):
        return [*vault, "put", "--name", "deed", "--file", str(tmp_path / f"{version}.bin")]

    assert main(put("v1")) == 0
    assert _killed(put("v2"), _before_rename) == CRASH_EXIT
    assert main(put("v3")) == 0
    (directory,) = (Path(store) / "vault").iterdir()
    names = sorted(entry.name for entry in directory.iterdir())
    assert names == [b"deed".hex() + ".json"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_register_killed_at_any_statement_leaves_the_store_as_before(tmp_path):
    # register is one transaction of five statements: killed as any of them
    # starts, or once it has run, it leaves the store as it was, and a retry
    # succeeds; only the point after COMMIT leaves the user registered. No
    # file then holds a key or phrase in plaintext. A new statement is two
    # new crash points, and changes the count at the end
    store = str(tmp_path / "store")
    (tmp_path / "provider.key").write_bytes(b"provider key material")
    provider = ["--provider-key-file", str(tmp_path / "provider.key")]
    secrets = [b"provider key material"]

    def credentials(user):
        (tmp_path / f"{user}.key").write_bytes(f"{user} key material".encode())
        secrets.extend([f"{user} key material".encode(), f"{user} phrase".encode()])
        return ["--store", store, "--user", user, "--key-file", str(tmp_path / f"{user}.key"),
                "--phrase", f"{user} phrase"]

    assert main(["provision", "--store", store, *provider]) == 0
    bob = credentials("bob")
    assert main(["register", *bob]) == 0
    journal = Path(store) / "registry.db-journal"
    points = [(k, after) for k in range(1, 10) for after in (False, True)]
    for crashes, (k, after) in enumerate(points):
        user = credentials(f"user{crashes}")
        code = _killed(["register", *user], _at_statement(k, after))
        if code == 0:
            break
        assert code == CRASH_EXIT, (k, after)
        _assert_no_plaintext_secret(store, secrets)
        committed = (k, after) == (5, True)
        assert main(["access", *bob, *provider]) == 0, (k, after)
        assert main(["access", *user, *provider]) == (0 if committed else 4), (k, after)
        assert main(["register", *user]) == (3 if committed else 0), (k, after)
        assert journal.read_bytes()[:28] == bytes(28), (k, after)
    assert main(["access", *user, *provider]) == 0
    # before and after each of PRAGMA, BEGIN IMMEDIATE, SELECT, INSERT, COMMIT
    assert crashes == 10


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_provision_killed_at_any_statement_leaves_no_registry(tmp_path):
    # provision is one transaction: killed as any of its statements starts,
    # or once it has run, it leaves no registry a register can use, and a
    # retry succeeds; only the point after COMMIT leaves one. No file then
    # holds the provider key in plaintext. The meta SELECT on a fresh file
    # fails before it runs, so it is no point
    (tmp_path / "provider.key").write_bytes(b"provider key material")
    (tmp_path / "alice.key").write_bytes(b"alice key material")
    provider = ["--provider-key-file", str(tmp_path / "provider.key")]
    secrets = [b"provider key material", b"alice key material", b"blue bicycle"]
    points = [(k, after) for k in range(1, 10) for after in (False, True)]
    for crashes, (k, after) in enumerate(points):
        store = str(tmp_path / f"store{crashes}")
        code = _killed(["provision", "--store", store, *provider], _at_statement(k, after))
        if code == 0:
            break
        assert code == CRASH_EXIT, (k, after)
        _assert_no_plaintext_secret(store, secrets)
        committed = (k, after) == (6, True)
        alice = ["--store", store, "--user", "alice",
                 "--key-file", str(tmp_path / "alice.key"), "--phrase", "blue bicycle"]
        if not committed:
            assert main(["register", *alice]) == 8, (k, after)  # no registry
        provisioned = main(["provision", "--store", store, *provider])
        assert provisioned == (2 if committed else 0), (k, after)
        assert main(["register", *alice]) == 0, (k, after)
        _assert_no_plaintext_secret(store, secrets)
    # before and after each of PRAGMA, BEGIN IMMEDIATE, two CREATE TABLE,
    # INSERT, COMMIT
    assert crashes == 12


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("name", ["deed", "will"])
def test_a_vault_put_killed_at_any_file_operation_keeps_the_old_document(
    tmp_path, capsys, name
):
    # killed as any of its file operations starts, or once it has ended, a
    # put leaves either the old document (none for a new name) and the old
    # list, or the new document and the list with its name, and no secret
    # or document in plaintext in any file. The run that passes every point
    # stores the new document. The vault directory exists, so no mkdir runs
    store = str(tmp_path / "store")
    (tmp_path / "provider.key").write_bytes(b"provider key material")
    (tmp_path / "alice.key").write_bytes(b"alice key material")
    credentials = [
        "--store", store, "--user", "alice", "--key-file", str(tmp_path / "alice.key"),
        "--phrase", "blue bicycle",
    ]
    provider = ["--provider-key-file", str(tmp_path / "provider.key")]
    assert main(["provision", "--store", store, *provider]) == 0
    assert main(["register", *credentials]) == 0
    vault = ["vault", *credentials, *provider]
    (tmp_path / "old.bin").write_bytes(b"old document")
    (tmp_path / "new.bin").write_bytes(b"new document")
    out = tmp_path / "out.bin"
    assert main([*vault, "put", "--name", "deed", "--file", str(tmp_path / "old.bin")]) == 0

    def get():
        out.unlink(missing_ok=True)
        code = main([*vault, "get", "--name", name, "--out", str(out)])
        return code, out.read_bytes() if code == 0 else None

    def listed():
        capsys.readouterr()
        assert main(["--output", "json", *vault, "list"]) == 0
        return json.loads(capsys.readouterr().out)["documents"]

    old = (get(), listed())
    assert old == ((0, b"old document") if name == "deed" else (7, None), ["deed"])
    new = ((0, b"new document"), sorted({"deed", name}))
    secrets = [b"provider key material", b"alice key material", b"blue bicycle",
               b"old document", b"new document"]
    put = [*vault, "put", "--name", name, "--file", str(tmp_path / "new.bin")]
    points = [(k, after) for k in range(1, 10) for after in (False, True)]
    for crashes, (k, after) in enumerate(points):
        code = _killed(put, _at_file_op(k, after))
        if code == 0:
            break
        assert code == CRASH_EXIT, (k, after)
        assert (get(), listed()) in (old, new), (k, after)
        _assert_no_plaintext_secret(store, secrets)
    assert (get(), listed()) == new
    # before and after each of the opens of the two key files and the input,
    # the temporary file's open and its write, and replace
    assert crashes == 12


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("others", [False, True])
def test_a_first_vault_put_killed_at_any_file_operation_stores_all_or_nothing(
    tmp_path, capsys, others
):
    # a user's first put finds no vault directory: its temporary file's
    # open fails, the directories are made and the open is retried. Killed
    # as any file operation starts, or once it has ended, the put leaves
    # either no document (get exits 7, the list is empty) or the new one,
    # and no secret or document in plaintext in any file. The directories
    # are removed after each crash, so every run is a first put. Without
    # `others` no vault directory exists at all; with it, bob's does
    store = str(tmp_path / "store")
    (tmp_path / "provider.key").write_bytes(b"provider key material")
    provider = ["--provider-key-file", str(tmp_path / "provider.key")]
    assert main(["provision", "--store", store, *provider]) == 0

    def credentials(user):
        (tmp_path / f"{user}.key").write_bytes(f"{user} key material".encode())
        argv = ["--store", store, "--user", user, "--key-file", str(tmp_path / f"{user}.key"),
                "--phrase", f"{user} phrase"]
        assert main(["register", *argv]) == 0
        return ["vault", *argv, *provider]

    vault = credentials("alice")
    (tmp_path / "doc.bin").write_bytes(b"first document")
    put = [*vault, "put", "--name", "deed", "--file", str(tmp_path / "doc.bin")]
    if others:
        assert main([*credentials("bob"), *put[len(vault):]]) == 0
    made = Path(store) / "vault" / (b"alice".hex() if others else "")
    out = tmp_path / "out.bin"

    def state():
        out.unlink(missing_ok=True)
        code = main([*vault, "get", "--name", "deed", "--out", str(out)])
        capsys.readouterr()
        assert main(["--output", "json", *vault, "list"]) == 0
        listed = json.loads(capsys.readouterr().out)["documents"]
        return code, out.read_bytes() if code == 0 else None, listed

    secrets = [b"provider key material", b"alice key material", b"alice phrase",
               b"bob key material", b"bob phrase", b"first document"]
    points = [(k, after) for k in range(1, 12) for after in (False, True)]
    for crashes, (k, after) in enumerate(points):
        assert not made.exists()
        code = _killed(put, _at_file_op(k, after))
        if code == 0:
            break
        assert code == CRASH_EXIT, (k, after)
        assert state() in ((7, None, []), (0, b"first document", ["deed"])), (k, after)
        _assert_no_plaintext_secret(store, secrets)
        shutil.rmtree(made, ignore_errors=True)
    assert state() == (0, b"first document", ["deed"])
    # before and after each of the opens of the two key files and the input,
    # the temporary file's open that finds no directory, the mkdir of the
    # vault directory (when no user has one) and of the user's, the
    # temporary file's second open, its write, and replace
    assert crashes == (16 if others else 18)
