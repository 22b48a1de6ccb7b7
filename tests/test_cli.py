import argparse
import base64
import builtins
import contextlib
import errno
import gc
import hashlib
import io
import json
import os
import re
import sqlite3
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import closing
from pathlib import Path

import pytest

import digilock
from digilock import cli, protocol
from digilock.cli import main
from digilock.crypto import SecretKey
from digilock.store import LockerStore, SessionNotOpen


@pytest.fixture
def world(tmp_path):
    provider_key_file = tmp_path / "provider.key"
    provider_key_file.write_bytes(b"\x10\x20\x30\x40 master key material")
    user_key_file = tmp_path / "alice.key"
    user_key_file.write_bytes(b"alice key material \x00\x7f")
    wrong_key_file = tmp_path / "wrong.key"
    wrong_key_file.write_bytes(b"definitely not the right key")
    store_dir = tmp_path / "store"
    return {
        "store": str(store_dir),
        "provider": str(provider_key_file),
        "user_key": str(user_key_file),
        "wrong_key": str(wrong_key_file),
        "tmp": tmp_path,
    }


def _provision(world):
    return main(
        ["provision", "--store", world["store"], "--provider-key-file", world["provider"]]
    )


def _register(world, user="alice", key=None, phrase="blue bicycle"):
    return main(
        [
            "register",
            "--store", world["store"],
            "--user", user,
            "--key-file", key or world["user_key"],
            "--phrase", phrase,
        ]
    )


def _access(world, user="alice", key=None, provider=None, phrase="blue bicycle"):
    return main(
        [
            "access",
            "--store", world["store"],
            "--user", user,
            "--key-file", key or world["user_key"],
            "--provider-key-file", provider or world["provider"],
            "--phrase", phrase,
        ]
    )


def _vault_base(world):
    return [
        "--store", world["store"], "--user", "alice", "--key-file", world["user_key"],
        "--provider-key-file", world["provider"], "--phrase", "blue bicycle",
    ]


def test_provision_prints_provider_digest(world, capsys):
    assert _provision(world) == 0
    printed = capsys.readouterr().out.strip()
    key_bytes = (world["tmp"] / "provider.key").read_bytes()
    assert printed == hashlib.sha256(key_bytes).hexdigest()
    assert (world["tmp"] / "store" / "registry.db").exists()


def test_provision_twice_exits_2(world):
    assert _provision(world) == 0
    assert _provision(world) == 2


def test_register_then_duplicate(world):
    _provision(world)
    assert _register(world) == 0
    assert _register(world) == 3


def test_register_phrase_with_separator_byte(world):
    _provision(world)
    assert _register(world, phrase="odd \x1f phrase") == 0
    assert _access(world, phrase="odd \x1f phrase") == 0


def test_access_opens_with_correct_credentials(world, capsys):
    _provision(world)
    _register(world)
    assert _access(world) == 0
    assert "OPEN" in capsys.readouterr().out


def test_access_wrong_user_key_exits_4(world, capsys):
    _provision(world)
    _register(world)
    assert _access(world, key=world["wrong_key"]) == 4
    assert "bad-user-key" in capsys.readouterr().out


def test_access_wrong_provider_key_exits_5(world, capsys):
    _provision(world)
    _register(world)
    assert _access(world, provider=world["wrong_key"]) == 5
    assert "bad-provider-key" in capsys.readouterr().out


def test_access_wrong_phrase_exits_8(world, capsys):
    # the locker only sees no ack by its deadline; the user agent knows why
    _provision(world)
    _register(world)
    capsys.readouterr()
    assert _access(world, phrase="red tricycle") == 8
    assert capsys.readouterr().out.strip() == "DENIED (phrase-mismatch)"
    argv = _vault_base(world)
    argv[argv.index("--phrase") + 1] = "red tricycle"
    assert main(["--output", "json", "access", *argv]) == 8
    assert json.loads(capsys.readouterr().out) == {
        "locker_opened": False, "failure_reason": "phrase-mismatch",
    }


def test_access_on_a_resealed_two_field_blob_is_denied(world, capsys):
    # whoever holds registry.db can reseal a blob under L = d_u xor h(R);
    # one that opens to two fields is a denied session, not a crash
    from digilock import protocol
    from digilock.crypto import sha256, seal
    from digilock.wire import encode_fields

    _provision(world)
    _register(world)
    key = Path(world["user_key"]).read_bytes()
    d_u = protocol.user_digest("alice", SecretKey(key))
    h_r = sha256(Path(world["provider"]).read_bytes())
    sealed = seal(protocol.locker_key(d_u, h_r), encode_fields([b"blue bicycle", key]))
    db = LockerStore(world["store"]).registry_path
    with closing(sqlite3.connect(db)) as con, con:
        con.execute(
            "UPDATE records SET sealed = ? WHERE user_id = 'alice'", (sealed,)
        )
    capsys.readouterr()
    assert _access(world) == 8
    assert capsys.readouterr().out.strip() == "DENIED (blob-auth-failure)"


def test_access_unknown_user_maps_to_bad_user_key(world):
    # an unregistered id is indistinguishable from a wrong key on purpose
    _provision(world)
    assert _access(world, user="mallory") == 4


@pytest.mark.parametrize("case,derived,code", [
    ("registered", 1, 0), ("wrong-key", 0, 4), ("unknown-id", 0, 4),
])
def test_access_derives_l_only_in_the_locker_that_opens_the_blob(
    world, monkeypatch, capsys, case, derived, code
):
    # L seals the record's blob and keys the vault; `access` reads no vault,
    # so only the locker's challenge step derives it, once the user's proof
    # and the provider's key have both been accepted
    _provision(world)
    assert _register(world) == 0
    calls = []

    def counted(*args):
        calls.append(args)
        return locker_key(*args)

    locker_key = protocol.locker_key
    monkeypatch.setattr(protocol, "locker_key", counted)
    run = {
        "registered": lambda: _access(world),
        "wrong-key": lambda: _access(world, key=world["wrong_key"]),
        "unknown-id": lambda: _access(world, user="mallory"),
    }[case]
    assert run() == code
    assert len(calls) == derived


def test_vault_put_get_list(world, capsysbinary):
    _provision(world)
    _register(world)
    doc = world["tmp"] / "deed.bin"
    payload = bytes(range(256))
    doc.write_bytes(payload)
    base = [
        "--store", world["store"],
        "--user", "alice",
        "--key-file", world["user_key"],
        "--provider-key-file", world["provider"],
        "--phrase", "blue bicycle",
    ]
    assert main(["vault"] + base + ["put", "--name", "deed", "--file", str(doc)]) == 0
    capsysbinary.readouterr()
    assert main(["vault"] + base + ["get", "--name", "deed"]) == 0
    assert capsysbinary.readouterr().out == payload
    out_file = world["tmp"] / "restored.bin"
    assert main(
        ["vault"] + base + ["get", "--name", "deed", "--out", str(out_file)]
    ) == 0
    assert out_file.read_bytes() == payload
    assert main(["vault"] + base + ["list"]) == 0
    assert b"deed" in capsysbinary.readouterr().out


def test_vault_get_creates_its_out_file_for_the_owner_alone(world, capsys):
    # a new --out file is 0600 whatever the umask lets through, as the sealed
    # entry is; a file already there keeps its mode and is overwritten whole
    _provision(world)
    _register(world)
    doc = world["tmp"] / "deed.bin"
    doc.write_bytes(b"the deed")
    vault = ["vault", *_vault_base(world)]
    assert main([*vault, "put", "--name", "deed", "--file", str(doc)]) == 0
    new, old = world["tmp"] / "new.out", world["tmp"] / "old.out"
    old.write_bytes(b"a longer document than the deed")
    old.chmod(0o640)
    previous = os.umask(0o022)
    try:
        for out in (new, old):
            assert main([*vault, "get", "--name", "deed", "--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert (new.read_bytes(), new.stat().st_mode & 0o777) == (b"the deed", 0o600)
    assert (old.read_bytes(), old.stat().st_mode & 0o777) == (b"the deed", 0o640)


def test_vault_get_to_a_text_stdout_exits_8_and_names_out(world, capsys):
    # an in-process caller may swap sys.stdout for a text stream with no
    # byte buffer; the document cannot go there, so the command asks for --out
    _provision(world)
    _register(world)
    doc = world["tmp"] / "deed.bin"
    doc.write_bytes(b"deed bytes")
    base = _vault_base(world)
    assert main(["vault", *base, "put", "--name", "deed", "--file", str(doc)]) == 0
    capsys.readouterr()
    text_out = io.StringIO()
    with contextlib.redirect_stdout(text_out):
        code = main(["vault", *base, "get", "--name", "deed"])
    assert code == 8
    assert text_out.getvalue() == ""
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", ["tag-altered", "sealed-removed"])
def test_vault_get_of_a_corrupt_entry_exits_8_without_a_traceback(world, capsys, corrupt):
    _provision(world)
    _register(world)
    doc = world["tmp"] / "deed.bin"
    doc.write_bytes(b"deed bytes")
    base = _vault_base(world)
    assert main(["vault", *base, "put", "--name", "deed", "--file", str(doc)]) == 0
    (path,) = (Path(world["store"]) / "vault").glob("*/*.json")
    entry = json.loads(path.read_text(encoding="utf-8"))
    if corrupt == "tag-altered":
        tag = bytearray(base64.b64decode(entry["sealed"]["tag"]))
        tag[0] ^= 1
        entry["sealed"]["tag"] = base64.b64encode(bytes(tag)).decode("ascii")
    else:
        del entry["sealed"]
    path.write_text(json.dumps(entry), encoding="utf-8")
    capsys.readouterr()
    out = world["tmp"] / "restored.bin"
    assert main(["vault", *base, "get", "--name", "deed", "--out", str(out)]) == 8
    err = capsys.readouterr().err
    assert "'deed'" in err and "'alice'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 12: a vault entry is not bound to its name, so an "
    "entry file copied over another's reads as that document",
)
def test_vault_get_of_an_entry_copied_over_another_exits_8(world):
    _provision(world)
    _register(world)
    base = _vault_base(world)
    for name, body in (("invoice", b"INVOICE"), ("draft", b"DRAFT")):
        doc = world["tmp"] / f"{name}.bin"
        doc.write_bytes(body)
        assert main(["vault", *base, "put", "--name", name, "--file", str(doc)]) == 0
    vault = Path(world["store"]) / "vault"
    (invoice,) = vault.glob(f"*/{b'invoice'.hex()}.json")
    (draft,) = vault.glob(f"*/{b'draft'.hex()}.json")
    invoice.write_bytes(draft.read_bytes())
    out = world["tmp"] / "restored.bin"
    assert main(["vault", *base, "get", "--name", "invoice", "--out", str(out)]) == 8
    assert not out.exists()


def test_vault_list_with_a_stray_file_exits_8_and_names_it(world, capsys):
    _provision(world)
    _register(world)
    doc = world["tmp"] / "deed.bin"
    doc.write_bytes(b"deed bytes")
    base = _vault_base(world)
    assert main(["vault", *base, "put", "--name", "deed", "--file", str(doc)]) == 0
    (path,) = (Path(world["store"]) / "vault").glob("*/*.json")
    (path.parent / "zz.json").write_text("{}", encoding="utf-8")
    capsys.readouterr()
    assert main(["vault", *base, "list"]) == 8
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and "'zz.json'" in line and "'alice'" in line


def test_vault_get_before_put_exits_7(world):
    _provision(world)
    _register(world)
    assert main(
        [
            "vault",
            "--store", world["store"],
            "--user", "alice",
            "--key-file", world["user_key"],
            "--provider-key-file", world["provider"],
            "--phrase", "blue bicycle",
            "get", "--name", "never-stored",
        ]
    ) == 7


def test_vault_op_refused_for_a_session_not_open_exits_6(world, monkeypatch, capsys):
    _provision(world)
    _register(world)

    def refuse(self, user_id, session):
        raise SessionNotOpen(f"no open session for user {user_id!r}")

    monkeypatch.setattr(LockerStore, "vault_list", refuse)
    assert main(["vault", *_vault_base(world), "list"]) == 6
    assert capsys.readouterr().err == "error: no open session for user 'alice'\n"


def test_vault_with_wrong_user_key_exits_4(world):
    _provision(world)
    _register(world)
    assert main(
        [
            "vault",
            "--store", world["store"],
            "--user", "alice",
            "--key-file", world["wrong_key"],
            "--provider-key-file", world["provider"],
            "--phrase", "blue bicycle",
            "list",
        ]
    ) == 4


def test_simulate_all_scenarios_exit_0(tmp_path):
    for scenario in (
        "honest", "replay", "impersonation",
        "repudiation-user", "repudiation-provider", "tamper",
    ):
        trace_file = tmp_path / f"{scenario}.jsonl"
        code = main(
            [
                "simulate",
                "--scenario", scenario,
                "--seed", "12",
                "--trace-out", str(trace_file),
            ]
        )
        assert code == 0, scenario
        assert trace_file.read_text().strip(), scenario


def test_simulate_seed_makes_traces_byte_identical(tmp_path):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    assert main(["simulate", "--scenario", "replay", "--seed", "77", "--trace-out", str(out_a)]) == 0
    assert main(["simulate", "--scenario", "replay", "--seed", "77", "--trace-out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_json_output(capsys):
    assert main(["--output", "json", "simulate", "--scenario", "honest", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matched"] is True
    assert payload["outcome"]["locker_opened"] is True
    # the spec names no ack deadline: every driver waits the same one
    assert payload["spec"] == {"scenario": "honest", "seed": 3, "variant": None}


def test_simulate_tamper_variants():
    for variant in ("prf-field", "challenge-body", "ack-digest"):
        assert main(["simulate", "--scenario", "tamper", "--variant", variant]) == 0


def test_simulate_bad_variant_is_usage_error():
    assert main(["simulate", "--scenario", "tamper", "--variant", "nonsense"]) == 1
    # a scenario that takes no variant refuses one instead of ignoring it
    assert main(["simulate", "--scenario", "replay", "--variant", "bogus"]) == 1


def test_store_env_var_default(world, monkeypatch, capsys):
    monkeypatch.setenv("DIGILOCK_STORE", world["store"])
    assert main(["provision", "--provider-key-file", world["provider"]]) == 0
    capsys.readouterr()
    assert main(
        [
            "register",
            "--user", "alice",
            "--key-file", world["user_key"],
            "--phrase", "blue bicycle",
        ]
    ) == 0


def test_missing_store_is_usage_error(world, monkeypatch):
    monkeypatch.delenv("DIGILOCK_STORE", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["provision", "--provider-key-file", world["provider"]])
    assert exc.value.code == 1


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing --scenario
    assert exc.value.code == 1
    capsys.readouterr()
    # simulate has no ack deadline to set
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "honest", "--timeout-ms", "0"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --timeout-ms 0" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["vault", "--store", "s", "--user", "u", "--key-file", "k",
              "--provider-key-file", "p", "--phrase", "m", "put"])  # no --name
    assert exc.value.code == 1


def test_output_never_contains_key_bytes(world, capsys):
    _provision(world)
    _register(world)
    _access(world)
    out = capsys.readouterr().out.encode()
    assert (world["tmp"] / "alice.key").read_bytes() not in out
    assert (world["tmp"] / "provider.key").read_bytes() not in out


def test_concurrent_register_keeps_every_user(world):
    # 8 CLI processes register at once against a registry large enough that
    # each load-modify-save takes a while; a lost update drops users while
    # every process still exits 0
    _provision(world)
    locker_store = LockerStore(world["store"])
    registry = locker_store.load_registry()
    for i in range(2000):
        registry.register(f"seed-{i}", SecretKey(b"k%d" % i), "p")
    locker_store.save_registry(registry)
    env = dict(os.environ, PYTHONPATH=str(Path(digilock.__file__).parent.parent))
    users = [f"racer-{i}" for i in range(8)]
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "digilock.cli", "register", "--store", world["store"],
             "--user", user, "--key-file", world["user_key"], "--phrase", "p"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        for user in users
    ]
    try:
        for proc in procs:
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    records = locker_store.load_registry().records
    assert [u for u in users if u not in records] == []
    assert len(records) == 2000 + len(users)


def _rows(path):
    with closing(sqlite3.connect(path)) as con:
        return {row[0]: row[1:] for row in con.execute("SELECT * FROM records")}


def _corrupt_bob(world):
    _provision(world)
    assert _register(world) == 0
    assert _register(world, user="bob", phrase="bob phrase") == 0
    path = Path(world["store"]) / "registry.db"
    with closing(sqlite3.connect(path)) as con, con:
        con.execute("UPDATE records SET d_u = x'0bad' WHERE user_id = 'bob'")
    return path


def _count_connections(monkeypatch, statements=None):
    """Record every SQLite connection opened; with `statements`, also every
    SQL statement that they run."""
    opened = []
    real_connect = sqlite3.connect

    def connect(*args, **kwargs):
        opened.append(None)  # counted even when the connect fails
        opened[-1] = real_connect(*args, **kwargs)
        if statements is not None:
            opened[-1].set_trace_callback(statements.append)
        return opened[-1]

    monkeypatch.setattr(sqlite3, "connect", connect)
    return opened


def _closed(con):
    try:
        con.total_changes
    except sqlite3.ProgrammingError:
        return True
    return False


@pytest.mark.parametrize("case,code", [
    ("access", 0), ("vault-put", 0), ("vault-get", 0), ("vault-list", 0),
    ("register", 0), ("vault-get-missing", 7), ("wrong-key", 4), ("unknown-user", 4),
    ("duplicate-user", 3), ("corrupt-record", 8), ("unprovisioned-access", 8),
    ("unprovisioned-register", 8),
])
def test_each_store_command_opens_one_connection_and_closes_it(
    world, monkeypatch, capsys, case, code
):
    doc = world["tmp"] / "deed.bin"
    doc.write_bytes(b"deed")

    def vault(*op):
        return main(["vault", *_vault_base(world), *op])

    commands = {
        "access": lambda: _access(world),
        "vault-put": lambda: vault("put", "--name", "deed", "--file", str(doc)),
        "vault-get": lambda: vault("get", "--name", "deed", "--out", str(doc)),
        "vault-list": lambda: vault("list"),
        "register": lambda: _register(world, user="carol"),
        "vault-get-missing": lambda: vault("get", "--name", "none", "--out", str(doc)),
        "wrong-key": lambda: _access(world, key=world["wrong_key"]),
        "unknown-user": lambda: _access(world, user="mallory"),
        "duplicate-user": lambda: _register(world),
        "corrupt-record": lambda: _access(world, user="bob", phrase="bob phrase"),
        "unprovisioned-access": lambda: _access(world),
        "unprovisioned-register": lambda: _register(world),
    }
    if not case.startswith("unprovisioned"):
        _corrupt_bob(world)  # provisions, then registers alice and bob
        assert vault("put", "--name", "deed", "--file", str(doc)) == 0
    opened = _count_connections(monkeypatch)
    assert commands[case]() == code
    assert len(opened) == 1
    assert opened[0] is None or _closed(opened[0])


def _count_file_calls(monkeypatch):
    """Record, as strings, the paths given to every later open (`open`,
    `os.open`), directory read (`os.listdir`, `os.scandir`) and stat
    (`os.stat`, `os.lstat`)."""
    calls = {"open": [], "listdir": [], "stat": []}

    def traced(kind, call):
        def run(path, *args, **kwargs):
            calls[kind].append(str(path))
            return call(path, *args, **kwargs)
        return run

    for module, name, kind in (
        (builtins, "open", "open"), (io, "open", "open"), (os, "open", "open"),
        (os, "listdir", "listdir"), (os, "scandir", "listdir"), (os, "stat", "stat"),
        (os, "lstat", "stat"),
    ):
        monkeypatch.setattr(module, name, traced(kind, getattr(module, name)))
    return calls


@pytest.mark.parametrize("case", ["access", "register", "vault-get", "vault-list"])
def test_each_store_command_opens_each_file_once_and_stats_none(
    world, monkeypatch, capsys, case
):
    # key files and the vault entry are each opened once, with no stat to
    # ask first whether they exist, and a listing reads its directory once
    doc = world["tmp"] / "deed.bin"
    doc.write_bytes(b"deed")
    _provision(world)
    assert _register(world) == 0
    vault = ["vault", *_vault_base(world)]
    for name in ("deed", "will"):
        assert main([*vault, "put", "--name", name, "--file", str(doc)]) == 0
    directory = LockerStore(world["store"]).vault_dir("alice")
    out = str(world["tmp"] / "out.bin")
    keys = [world["user_key"], world["provider"]]
    commands = {
        "access": (lambda: _access(world), keys, []),
        "register": (lambda: _register(world, user="carol"), [world["user_key"]], []),
        "vault-get": (
            lambda: main([*vault, "get", "--name", "deed", "--out", out]),
            [*keys, str(directory / f"{b'deed'.hex()}.json"), out], [],
        ),
        "vault-list": (lambda: main([*vault, "list"]), keys, [str(directory)]),
    }
    command, opened, listed = commands[case]
    calls = _count_file_calls(monkeypatch)
    assert command() == 0
    assert calls == {"open": opened, "listdir": listed, "stat": []}


@pytest.mark.parametrize("relative", [False, True])
def test_a_store_under_a_name_a_uri_must_escape_runs_every_command(
    world, monkeypatch, capsys, relative
):
    # the registry is opened through a file: URI, so a space, ?, #, % and a
    # non-ASCII letter in the store's path must each be escaped, and a
    # relative root with a `..` step is joined to the working directory
    odd = world["tmp"] / "odd dir?#%é"
    (odd / "inner").mkdir(parents=True)
    (world["tmp"] / "cwd").mkdir()
    if relative:
        monkeypatch.chdir(world["tmp"] / "cwd")
        root = os.path.join("..", odd.name, "store")
    else:
        root = str(odd / "store")
    world = dict(world, store=root)
    assert _provision(world) == 0
    assert _register(world) == 0
    assert _access(world) == 0
    doc = world["tmp"] / "deed.bin"
    doc.write_bytes(b"odd deed")
    out = world["tmp"] / "out.bin"
    vault = ["vault", *_vault_base(world)]
    assert main([*vault, "put", "--name", "deed", "--file", str(doc)]) == 0
    assert main([*vault, "get", "--name", "deed", "--out", str(out)]) == 0
    assert out.read_bytes() == b"odd deed"
    capsys.readouterr()
    assert main(["--output", "json", *vault, "list"]) == 0
    assert json.loads(capsys.readouterr().out) == {"documents": ["deed"]}
    locker_store = LockerStore(root)
    assert locker_store.root == Path(root)
    assert locker_store.registry_path == Path(root) / "registry.db"
    assert sorted(os.listdir(odd)) == ["inner", "store"]
    assert sorted(os.listdir(odd / "store")) == ["registry.db", "registry.db-journal", "vault"]
    assert sorted(os.listdir(world["tmp"])) == sorted(
        ["alice.key", "cwd", "deed.bin", odd.name, "out.bin", "provider.key", "wrong.key"]
    )
    assert os.listdir(world["tmp"] / "cwd") == []
    if relative:
        # the `..` is left for the kernel, as in every other path of the
        # store: past a symlink, `link/..` is the target's parent, which a
        # lexical `..` would take for the working directory
        os.symlink(odd / "inner", "link")
        assert _access(dict(world, store=os.path.join("link", "..", "store"))) == 0


@pytest.mark.parametrize("case", ["key-file-directory", "key-file-missing", "put-directory"])
def test_a_file_that_cannot_be_read_exits_8_and_names_its_path(
    world, capsys, case
):
    # read_file reads through a bare descriptor: a directory fails on the
    # read, which names no file, so the error must still name the path, and
    # no descriptor is left open on any failure
    _provision(world)
    assert _register(world) == 0
    directory = world["tmp"] / "a directory"
    directory.mkdir()
    missing = world["tmp"] / "missing.key"
    vault = ["vault", *_vault_base(world)]
    path, error, argv = {
        "key-file-directory": (directory, errno.EISDIR, ["access", *_vault_base(world)]),
        "key-file-missing": (missing, errno.ENOENT, ["access", *_vault_base(world)]),
        "put-directory": (
            directory, errno.EISDIR,
            [*vault, "put", "--name", "deed", "--file", str(directory)],
        ),
    }[case]
    if case.startswith("key-file"):
        argv[argv.index("--key-file") + 1] = str(path)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 8
        gc.collect()
    assert [w.category for w in caught] == []
    expected = OSError(error, os.strerror(error), str(path))
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert main([*vault, "list"]) == 0
    assert capsys.readouterr().out == "\n"  # nothing was stored


@pytest.mark.parametrize("command", ["access", "access-provider", "register"])
def test_a_key_file_over_64_bytes_exits_8_after_a_bounded_read(world, capsys, command):
    # a 16 MiB key file (sparse) is refused after reading 65 bytes of it,
    # not after reading it all; a 64-byte key is still accepted
    _provision(world)
    assert _register(world) == 0
    huge, longest = world["tmp"] / "huge.key", world["tmp"] / "longest.key"
    with open(huge, "wb") as handle:
        handle.truncate(16 << 20)
    longest.write_bytes(bytes(range(64)))
    run = {
        "access": lambda key: _access(world, key=key),
        "access-provider": lambda key: _access(world, provider=key),
        "register": lambda key: _register(world, user="carol", key=key),
    }[command]
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = run(str(huge))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 8
    assert peak < 1 << 20
    err = capsys.readouterr().err
    assert err == "error: secret key must be 1-64 bytes, got a longer file\n"
    assert run(str(longest)) == {"access": 4, "access-provider": 5, "register": 0}[command]


@pytest.mark.parametrize("case,expected", [
    ("access", ["SELECT"]),
    ("vault-get", ["SELECT"]),
    ("register", ["PRAGMA journal_mode=PERSIST", "BEGIN IMMEDIATE", "SELECT", "INSERT", "COMMIT"]),
])
def test_each_store_command_runs_one_registry_query_or_transaction(
    world, monkeypatch, capsys, case, expected
):
    doc = world["tmp"] / "deed.bin"
    doc.write_bytes(b"deed")
    _provision(world)
    assert _register(world) == 0
    vault = ["vault", *_vault_base(world)]
    assert main([*vault, "put", "--name", "deed", "--file", str(doc)]) == 0
    commands = {
        "access": lambda: _access(world),
        "vault-get": lambda: main([*vault, "get", "--name", "deed", "--out", str(doc)]),
        "register": lambda: _register(world, user="carol"),
    }
    statements = []
    opened = _count_connections(monkeypatch, statements)
    assert commands[case]() == 0
    assert len(opened) == 1  # registry.db's; the vault is plain files
    kinds = [
        re.match(r"PRAGMA journal_mode=PERSIST|BEGIN IMMEDIATE|[A-Z]+", sql).group()
        for sql in statements
    ]
    assert kinds == expected, statements


def test_corrupt_record_fails_only_its_own_user(world, capsys):
    path = _corrupt_bob(world)
    assert _access(world) == 0
    assert _access(world, user="bob", phrase="bob phrase") == 8
    assert "corrupt registry record for user 'bob'" in capsys.readouterr().err
    bob_before = _rows(path)["bob"]
    assert _register(world, user="carol") == 0
    after = _rows(path)
    assert after["bob"] == bob_before
    assert set(after) == {"alice", "bob", "carol"}


def test_v1_registry_json_is_refused(world, capsys):
    # a store from before the SQLite registry holds only registry.json; it is
    # refused, not read, and no second registry is created beside it
    store_dir = Path(world["store"])
    store_dir.mkdir()
    legacy = store_dir / "registry.json"
    legacy.write_text('{"version":1,"h_r":"' + "00" * 32 + '","records":{}}')
    before = legacy.read_bytes()
    assert _access(world) == 8
    assert _register(world) == 8
    assert _provision(world) == 8
    err = capsys.readouterr().err
    assert err.count("version-1 registry") == 3
    assert sorted(p.name for p in store_dir.iterdir()) == ["registry.json"]
    assert legacy.read_bytes() == before


def test_store_keeps_no_lock_or_temp_files_and_a_zeroed_journal(world, capsys):
    _provision(world)
    assert _register(world) == 0
    assert _register(world) == 3
    assert _access(world) == 0
    doc = world["tmp"] / "deed.bin"
    doc.write_bytes(b"deed")
    base = [
        "--store", world["store"], "--user", "alice", "--key-file", world["user_key"],
        "--provider-key-file", world["provider"], "--phrase", "blue bicycle",
    ]
    assert main(["vault", *base, "put", "--name", "deed", "--file", str(doc)]) == 0
    assert main(["vault", *base, "get", "--name", "deed", "--out", str(doc)]) == 0
    store_dir = Path(world["store"])
    assert sorted(p.name for p in store_dir.iterdir()) == [
        "registry.db", "registry.db-journal", "vault"
    ]
    # the persistent journal's header is zeroed at each commit, so no reader
    # takes it for a hot journal to roll back
    assert (store_dir / "registry.db-journal").read_bytes()[:28] == bytes(28)
    assert [p.suffix for p in (store_dir / "vault").rglob("*") if p.is_file()] == [".json"]


def _json_main(argv, capsys):
    assert main(["--output", "json", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_main_reuses_one_parser_and_carries_no_option_over(world, capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert _provision(world) == 0
    first_build = len(built)
    assert first_build > 0
    assert _register(world) == 0
    capsys.readouterr()

    # --output json on one call, plain text on the next
    assert _json_main(["vault", *_vault_base(world), "list"], capsys) == {"documents": []}
    assert _access(world) == 0
    assert capsys.readouterr().out == "OPEN\n"

    # a variant on one call, the default on the next
    spec = _json_main(["simulate", "--scenario", "tamper", "--variant", "ack-digest"],
                      capsys)["spec"]
    assert spec["variant"] == "ack-digest"
    payload = _json_main(["simulate", "--scenario", "tamper"], capsys)
    assert payload["spec"]["variant"] == "challenge-body"
    assert payload["matched"] is True

    # a usage error, then --help, each followed by a valid call
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])
    assert exc.value.code == 1
    assert main(["simulate", "--scenario", "honest"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: digilock" in capsys.readouterr().out
    assert _access(world) == 0

    assert len(built) == first_build
    assert cli.build_parser() is cli.build_parser()


def test_a_store_command_argv_is_parsed_once(world, monkeypatch, capsys):
    # an argv that starts with the command's name goes straight to that
    # command's parser: one parse_known_args, not the top-level pass as well
    doc = world["tmp"] / "deed.bin"
    doc.write_bytes(b"deed")
    assert _provision(world) == 0
    vault = ["vault", *_vault_base(world)]
    commands = {
        "register": lambda: _register(world),
        "access": lambda: _access(world),
        "vault put": lambda: main([*vault, "put", "--name", "deed", "--file", str(doc)]),
        "vault get": lambda: main([*vault, "get", "--name", "deed", "--out", str(doc) + ".out"]),
        "vault list": lambda: main([*vault, "list"]),
    }
    parses = []
    real_parse = argparse.ArgumentParser.parse_known_args

    def counting_parse(self, *args, **kwargs):
        parses.append(self.prog)
        return real_parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting_parse)
    for name, command in commands.items():
        parses.clear()
        assert command() == 0, name
        assert parses == [f"digilock {name.split()[0]}"], name


_ACCESS = ["--store", "s", "--user", "alice", "--key-file", "k",
           "--provider-key-file", "p", "--phrase", "blue bicycle"]

# argv, valid or not, that main must parse as build_parser().parse_args does
_PARSE_CORPUS = {
    "provision": ["provision", "--store", "s", "--provider-key-file", "p"],
    "register": ["register", "--store", "s", "--user", "alice", "--key-file", "k",
                 "--phrase", "blue bicycle"],
    "access": ["access", *_ACCESS],
    "vault-put": ["vault", *_ACCESS, "put", "--name", "deed", "--file", "f"],
    "vault-get": ["vault", *_ACCESS, "get", "--name", "deed", "--out", "o"],
    "vault-list": ["vault", "list", *_ACCESS],
    "simulate": ["simulate", "--scenario", "tamper", "--seed", "3", "--variant", "x",
                 "--trace-out", "t"],
    "leading-output": ["--output", "json", "access", *_ACCESS],
    "leading-output-equals": ["--output=json", "vault", *_ACCESS, "list"],
    "store-abbreviated": ["access", "--sto", "s", *_ACCESS[2:]],
    "store-equals": ["access", "--store=s", *_ACCESS[2:]],
    "no-store": ["access", *_ACCESS[2:]],
    "no-argv": [],
    "top-h": ["-h"],
    "top-help": ["--help"],
    "command-h": ["access", "-h"],
    "command-help": ["vault", *_ACCESS, "--help"],
    "unknown-command": ["nope", *_ACCESS],
    "abbreviated-command": ["acc", *_ACCESS],
    "missing-required": ["access", "--store", "s", "--user", "alice"],
    "output-after-command": ["access", *_ACCESS, "--output", "json"],
    "timeout-after-command": ["access", *_ACCESS, "--timeout-ms", "0"],
    "stray-positional": ["access", *_ACCESS, "extra"],
    "bad-output": ["--output", "yaml", "access", *_ACCESS],
    "output-without-value": ["--output"],
    "double-dash-after-command": ["access", *_ACCESS, "--", "--store", "t"],
    "double-dash-first": ["--", "access", *_ACCESS],
    "ambiguous-top-option": ["access", *_ACCESS, "--=x"],
    "vault-put-no-name": ["vault", *_ACCESS, "put", "--file", "f"],
    "vault-put-no-file": ["vault", *_ACCESS, "put", "--name", "deed"],
    "vault-bad-op": ["vault", *_ACCESS, "erase"],
}


def _main_outcome(argv, capsys, monkeypatch):
    """main's exit code, stdout, stderr and the namespace its command got,
    with every command replaced by one that records its namespace."""
    ran = []
    for name in ("cmd_provision", "cmd_register", "cmd_access", "cmd_vault", "cmd_simulate"):
        monkeypatch.setattr(cli, name, lambda args: ran.append(args) or 0)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, ran


@pytest.mark.parametrize("argv", _PARSE_CORPUS.values(), ids=_PARSE_CORPUS.keys())
def test_main_parses_as_the_top_level_parser_does(argv, capsys, monkeypatch):
    got = _main_outcome(argv, capsys, monkeypatch)
    # with no command parser to go to, main parses with parse_args alone
    with monkeypatch.context() as patch:
        patch.setattr(cli.build_parser(), "commands", {}, raising=False)
        want = _main_outcome(argv, capsys, monkeypatch)
    assert got == want
    code, _, _, ran = got
    if code == 0 and ran:
        assert ran == [cli.build_parser().parse_args(argv)]
    # the console script's call, main() on sys.argv, parses the same
    monkeypatch.setattr(sys, "argv", ["digilock", *argv])
    assert _main_outcome(None, capsys, monkeypatch) == want


def test_import_builds_no_parser_and_the_module_command_keeps_its_exit_codes():
    env = dict(os.environ, PYTHONPATH=str(Path(digilock.__file__).parent.parent))
    probe = (
        "import argparse\n"
        "built = []\n"
        "real_init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    real_init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import digilock.cli\n"
        "print(len(built))\n"
    )

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=60)

    imported = run("-c", probe)
    assert imported.returncode == 0, imported.stderr
    assert imported.stdout.strip() == "0"
    helped = run("-m", "digilock.cli", "--help")
    assert helped.returncode == 0, helped.stderr
    assert "usage: digilock" in helped.stdout
    usage = run("-m", "digilock.cli", "simulate")
    assert usage.returncode == 1
    assert "--scenario" in usage.stderr


def test_timeout_ms_is_refused_where_nothing_reads_it(world):
    # no command has an ack deadline to set: each runs the session against
    # protocol.DEFAULT_TIMEOUT_MS
    _provision(world)
    store_args = ["--store", world["store"], "--user", "alice",
                  "--key-file", world["user_key"], "--phrase", "p"]
    for argv in (
        ["register", *store_args],
        ["access", *store_args, "--provider-key-file", world["provider"]],
        ["vault", *store_args, "--provider-key-file", world["provider"], "list"],
        ["simulate", "--scenario", "honest"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--timeout-ms", "5"])
        assert exc.value.code == 1, argv[0]


@pytest.mark.parametrize(
    "user,error",
    [("u" * 65, "1-64 UTF-8 bytes"), ("al\x1fice", "byte 0x1f"), ("a\udcff", "1-64 UTF-8 bytes")],
)
def test_access_with_an_unencodable_user_id_exits_8(world, capsys, user, error):
    # an id the wire cannot carry is a failure, not a denial of an unknown user
    _provision(world)
    _register(world)
    capsys.readouterr()
    assert _access(world, user=user) == 8
    captured = capsys.readouterr()
    assert error in captured.err
    assert "DENIED" not in captured.out


@pytest.mark.parametrize(
    "argv,rule",
    [
        (["register", "--user", "a\udcff", "--phrase", "p"], "user id must be 1-64"),
        (["register", "--user", "bob", "--phrase", "p\udcff"], "secret phrase must be 1-256"),
        (["vault", "--user", "a\udcff", "--phrase", "p", "list"], "user id must be 1-64"),
        (["access", "--user", "alice", "--phrase", "p\udcff"], "secret phrase must be 1-256"),
        (["vault", "--user", "alice", "--phrase", "p\udcff", "list"],
         "secret phrase must be 1-256"),
    ],
    ids=["register-user", "register-phrase", "vault-user", "access-phrase", "vault-phrase"],
)
def test_an_id_or_phrase_that_is_not_utf8_breaks_its_rule(world, capsys, argv, rule):
    # argv holds bytes that are not UTF-8 as lone surrogates: the command
    # names the field's rule (exit 8), not the codec or SQLite's binding;
    # access's id is one more input of the unencodable-id test above
    _provision(world)
    _register(world)
    capsys.readouterr()
    command, *rest = argv
    keys = ["--key-file", world["user_key"]]
    if command != "register":
        keys += ["--provider-key-file", world["provider"]]
    assert main([command, "--store", world["store"], *keys, *rest]) == 8
    captured = capsys.readouterr()
    assert captured.err == f"error: {rule} UTF-8 bytes\n"
    assert captured.out == ""


def test_access_and_vault_run_without_the_simulator(world, monkeypatch, capsys):
    from digilock import sim

    def refuse(*args, **kwargs):
        raise AssertionError("the store commands must not run the simulator")

    monkeypatch.setattr(sim, "drive_session", refuse)
    monkeypatch.setattr(sim, "Simulation", refuse)
    _provision(world)
    _register(world)
    capsys.readouterr()
    doc = world["tmp"] / "deed.bin"
    doc.write_bytes(b"deed bytes")
    out = world["tmp"] / "restored.bin"
    base = _vault_base(world)
    assert _access(world) == 0
    assert main(["vault", *base, "put", "--name", "deed", "--file", str(doc)]) == 0
    assert main(["vault", *base, "get", "--name", "deed", "--out", str(out)]) == 0
    assert main(["vault", *base, "list"]) == 0
    assert out.read_bytes() == b"deed bytes"
    assert capsys.readouterr().out.split() == ["OPEN", "stored", "deed", "deed"]


def test_store_commands_never_import_the_simulator(world):
    # a fresh interpreter, so no earlier test has imported digilock.sim
    env = dict(os.environ, PYTHONPATH=str(Path(digilock.__file__).parent.parent))
    doc = world["tmp"] / "deed.bin"
    doc.write_bytes(b"deed bytes")
    runs = [
        ["provision", "--store", world["store"], "--provider-key-file", world["provider"]],
        ["register", "--store", world["store"], "--user", "alice",
         "--key-file", world["user_key"], "--phrase", "blue bicycle"],
        ["access", *_vault_base(world)],
        ["vault", *_vault_base(world), "put", "--name", "deed", "--file", str(doc)],
    ]
    probe = (
        "import json, sys\n"
        "from digilock import cli\n"
        f"codes = [cli.main(argv) for argv in {runs!r}]\n"
        "print(json.dumps([codes, 'digilock.sim' in sys.modules]))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0, 0, 0], False]


def test_simulate_unknown_scenario_exits_1_and_names_every_scenario(capsys):
    from digilock import sim

    assert main(["simulate", "--scenario", "nope"]) == 1
    err = capsys.readouterr().err
    assert "unknown scenario 'nope'" in err
    for name in sim.SCENARIO_NAMES:
        assert name in err
