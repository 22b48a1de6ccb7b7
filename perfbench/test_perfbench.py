"""Self-tests of the benchmark: checks bite, counts repeat, output contract.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads  # first: it puts the repository's src/ on sys.path
import run
import tracer as tracing
from digilock import crypto, protocol, sim
from digilock.crypto import SecretKey

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name, tmp_path):
    return {
        "sessions": lambda: workloads.Sessions(3, users=20),
        "attack-mix": lambda: workloads.AttackMix(3),
        "model-search": lambda: workloads.ModelSearch(3, depth=4),
        "store-cli": lambda: workloads.StoreCli(3, tmp_path / "work", users=50, touched=5),
    }[name]()


def traced_counts(workload, ops):
    workload.setup()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = run.measure(workload, max_ops=ops, tracer=tracer)
    finally:
        tracer.uninstall()
        workload.close()
    assert loop.failed == 0
    return tracer


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_workload_has_no_failed_ops(name, tmp_path):
    workload = tiny(name, tmp_path)
    workload.setup()
    try:
        loop = run.measure(workload, max_ops=40 if name != "model-search" else 3)
    finally:
        workload.close()
    assert loop.ops > 0
    assert loop.failed == 0


def test_wrong_provider_key_fails_every_session():
    workload = workloads.Sessions(3, users=20)
    workload.setup()
    workload.provider_key = SecretKey(b"not the provider key")
    loop = run.measure(workload, max_ops=30)
    assert loop.failed == loop.ops == 30


def test_short_search_fails_model_search_check():
    workload = workloads.ModelSearch(3, depth=4)
    shallow = workload.run(3)
    assert workload.check(3, shallow)
    workload.depth = 6
    assert not workload.check(3, shallow)


class _UnreadableOutput:
    """Ops succeed, but every other check raises reading their output."""

    def prepare(self, i):
        return i

    def run(self, job):
        return job

    def check(self, job, result):
        if result % 2:
            raise FileNotFoundError("no output written")
        return True


def test_check_that_raises_counts_as_failed_op():
    loop = run.measure(_UnreadableOutput(), max_ops=10)
    assert loop.ops == 10
    assert loop.failed == 5


def test_session_counts_repeat_exactly():
    original = crypto.sha256
    first = traced_counts(workloads.Sessions(5, users=50), 60)
    second = traced_counts(workloads.Sessions(5, users=50), 60)
    assert {n: s.calls for n, s in first.stats.items()} == {
        n: s.calls for n, s in second.stats.items()
    }
    assert first.counters == second.counters
    assert first.calls("sim.post") == 10 * 60
    assert first.calls("crypto.sha256") == 17 * 60
    assert first.calls("sim.drive_session") == 60
    # uninstall put every binding back
    assert crypto.sha256 is protocol.sha256 is sim.sha256 is original


def test_attack_mix_counts_repeat_exactly():
    first, second = (traced_counts(workloads.AttackMix(6), 32) for _ in range(2))
    assert {n: s.calls for n, s in first.stats.items()} == {
        n: s.calls for n, s in second.stats.items()
    }
    assert first.counters == second.counters
    assert first.calls("sim.run_scenario") == 32
    assert first.counters["protocol.failed_steps"] > 0  # attacks end on denial paths


def test_depth_six_search_counts():
    counts = [
        traced_counts(workloads.ModelSearch(9), 1).counters for _ in range(2)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["explore.states"] == 13_106
    assert counts[0]["explore.transitions"] == 69_371


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric(trace, key):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sessions", "--seed", "4",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sessions", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
