"""Store commands killed part-way, in a forked child, and what the next
command finds on disk."""

import itertools
import os
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


def _at_statement(k):
    """Die as the k-th SQL statement on the child's connections starts."""
    def die():
        connect, started = sqlite3.connect, itertools.count(1)

        def traced(*args, **kwargs):
            con = connect(*args, **kwargs)
            con.set_trace_callback(lambda sql: next(started) == k and os._exit(CRASH_EXIT))
            return con

        sqlite3.connect = traced
    return die


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
    # starts, it leaves the store as it was, and a retry succeeds. A new
    # statement is a new crash point, and changes the count at the end
    store = str(tmp_path / "store")
    (tmp_path / "provider.key").write_bytes(b"provider key material")
    provider = ["--provider-key-file", str(tmp_path / "provider.key")]

    def credentials(user):
        (tmp_path / f"{user}.key").write_bytes(f"{user} key material".encode())
        return ["--store", store, "--user", user, "--key-file", str(tmp_path / f"{user}.key"),
                "--phrase", f"{user} phrase"]

    assert main(["provision", "--store", store, *provider]) == 0
    assert main(["register", *credentials("bob")]) == 0
    journal = Path(store) / "registry.db-journal"
    for k in range(1, 10):
        user = credentials(f"user{k}")
        code = _killed(["register", *user], _at_statement(k))
        if code == 0:
            break
        assert code == CRASH_EXIT, k
        assert main(["access", *credentials("bob"), *provider]) == 0, k
        assert main(["access", *user, *provider]) == 4, k
        assert main(["register", *user]) == 0, k
        assert journal.read_bytes()[:28] == bytes(28), k
    assert main(["access", *user, *provider]) == 0
    assert k - 1 == 5  # PRAGMA, BEGIN IMMEDIATE, SELECT, INSERT, COMMIT
