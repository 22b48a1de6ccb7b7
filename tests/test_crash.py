"""Store commands killed part-way, in a forked child, and what the next
command finds on disk."""

import os
from pathlib import Path

import pytest

from digilock.cli import main

CRASH_EXIT = 97


def _crash_before_rename(argv):
    """Run `main(argv)` in a forked child that dies, as a killed process does,
    at its first `os.replace`: after the temporary file is written, before
    the rename. Returns the child's exit code."""
    pid = os.fork()
    if pid == 0:  # the child never returns into the test run
        try:
            os.replace = lambda *args, **kwargs: os._exit(CRASH_EXIT)
            main(argv)
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


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
    assert _crash_before_rename(put("v2")) == CRASH_EXIT
    assert main(put("v3")) == 0
    (directory,) = (Path(store) / "vault").iterdir()
    names = sorted(entry.name for entry in directory.iterdir())
    assert names == [b"deed".hex() + ".json"]
