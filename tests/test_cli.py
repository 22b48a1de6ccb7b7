import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import digilock
from digilock.cli import main
from digilock.crypto import SecretKey
from digilock.store import LockerStore


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


def test_provision_prints_provider_digest(world, capsys):
    assert _provision(world) == 0
    printed = capsys.readouterr().out.strip()
    key_bytes = (world["tmp"] / "provider.key").read_bytes()
    assert printed == hashlib.sha256(key_bytes).hexdigest()
    assert (world["tmp"] / "store" / "registry.json").exists()


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


def test_access_wrong_phrase_exits_8(world):
    _provision(world)
    _register(world)
    assert _access(world, phrase="red tricycle") == 8


def test_access_unknown_user_maps_to_bad_user_key(world):
    # an unregistered id is indistinguishable from a wrong key on purpose
    _provision(world)
    assert _access(world, user="mallory") == 4


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
    assert payload["spec"]["scenario"] == "honest"


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


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing --scenario
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", "honest", "--timeout-ms", "0"])
    assert exc.value.code == 1
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


def _corrupt_bob(world):
    _provision(world)
    assert _register(world) == 0
    assert _register(world, user="bob", phrase="bob phrase") == 0
    path = Path(world["store"]) / "registry.json"
    doc = json.loads(path.read_text())
    doc["records"]["bob"]["d_u"] = "not hex"
    path.write_text(json.dumps(doc))
    return path


def test_corrupt_record_fails_only_its_own_user(world, capsys):
    path = _corrupt_bob(world)
    assert _access(world) == 0
    assert _access(world, user="bob", phrase="bob phrase") == 8
    assert "corrupt registry record for user 'bob'" in capsys.readouterr().err
    bob_before = json.loads(path.read_text())["records"]["bob"]
    assert _register(world, user="carol") == 0
    after = json.loads(path.read_text())["records"]
    assert after["bob"] == bob_before
    assert set(after) == {"alice", "bob", "carol"}


def test_access_serves_an_indented_registry_file(world):
    # registries written before the compact format are indented JSON
    _provision(world)
    assert _register(world) == 0
    path = Path(world["store"]) / "registry.json"
    path.write_text(json.dumps(json.loads(path.read_text()), indent=2))
    assert _access(world) == 0
    assert _access(world, key=world["wrong_key"]) == 4
