"""The four benchmark workloads. Each is driven closed-loop by one client.

A workload builds its fixture in `setup()`, then for op i: `prepare(i)` makes
the op's inputs (untimed), `run(job)` calls the program (timed), and
`check(job, result)` verifies the output. `close()` removes what the
fixture left on disk. Every input comes from the
workload seed; the program sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from digilock import cli, explore, protocol, sim, store  # noqa: E402
from digilock.crypto import SecretKey, SeededRng  # noqa: E402
from digilock.protocol import LockerPhase, UserPhase  # noqa: E402


def _key(rng: random.Random) -> SecretKey:
    return SecretKey(rng.randbytes(16))


def _phrase(rng: random.Random) -> str:
    return rng.randbytes(8).hex()


class Sessions:
    """One honest `sim.drive_session` per op against a 1,000-user registry.

    Users repeat (a seeded shuffle, cycled), so a per-user cache would hit.
    """

    name = "sessions"
    setup_repeats = 9

    def __init__(self, seed: int, users: int = 1000) -> None:
        self.seed = seed
        self.users = users

    def setup(self) -> None:
        rng = random.Random(f"sessions:{self.seed}")
        self.provider_key = _key(rng)
        self.registry = store.Registry.provision(self.provider_key)
        self.creds = []
        for i in range(self.users):
            creds = sim.Credentials(f"user-{i:05d}", _key(rng), _phrase(rng))
            self.registry.register(
                creds.user_id, creds.key, creds.phrase,
                rng=SeededRng(self.seed, b"register-%d" % i),
            )
            self.creds.append(creds)
        rng.shuffle(self.creds)

    def prepare(self, i: int):
        op_seed = self.seed * 1_000_003 + i
        return (
            self.creds[i % len(self.creds)],
            SeededRng(op_seed, b"user"),
            SeededRng(op_seed, b"locker"),
        )

    def run(self, job):
        creds, rng_user, rng_locker = job
        return sim.drive_session(
            self.registry, creds, self.provider_key,
            rng_user=rng_user, rng_locker=rng_locker,
        )

    def check(self, job, run) -> bool:
        locker = run.locker.session_for(job[0].user_id)
        return (
            locker is not None
            and locker.phase is LockerPhase.OPEN
            and run.user.session.phase is UserPhase.DONE
            and run.trace.kind_sequence() == sim.HONEST_KIND_SEQUENCE
        )

    def close(self) -> None:
        pass


ATTACK_SPECS = (
    ("honest", None),
    ("replay", None),
    ("impersonation", None),
    ("repudiation-user", None),
    ("repudiation-provider", None),
    ("tamper", "prf-field"),
    ("tamper", "challenge-body"),
    ("tamper", "ack-digest"),
)


class AttackMix:
    """One `sim.run_scenario` per op over the scripted specs, in round robin
    from a seeded offset; the scenario seed changes every op, so no key repeats.
    """

    name = "attack-mix"
    setup_repeats = 9

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.offset = random.Random(f"attack-mix:{seed}").randrange(len(ATTACK_SPECS))

    def setup(self) -> None:
        # one warm-up round over every spec
        for i in range(len(ATTACK_SPECS)):
            sim.run_scenario(self.prepare(i))

    def prepare(self, i: int):
        scenario, variant = ATTACK_SPECS[(self.offset + i) % len(ATTACK_SPECS)]
        return sim.ScenarioSpec(scenario=scenario, seed=self.seed * 1_000_003 + i, variant=variant)

    def run(self, spec):
        return sim.run_scenario(spec)

    def check(self, spec, result) -> bool:
        outcome, _ = result
        return sim.outcome_matches_expectation(spec, outcome) and (
            outcome.locker_opened == (spec.scenario == "honest")
        )

    def close(self) -> None:
        pass


# (states, transitions) of the exhaustive search at each depth; the seed
# changes the bytes in the messages, not the shape of the state space
SEARCH_COUNTS = {4: (994, 3946), 6: (13_106, 69_371)}


class ModelSearch:
    """One depth-6 `explore.enumerate_small_traces` per op, consecutive seeds.

    An op passes only if the search is sound and explored the whole space:
    a search that prunes or stops early counts as failed, not as faster.
    """

    name = "model-search"
    setup_repeats = 9

    def __init__(self, seed: int, depth: int = 6) -> None:
        self.seed = seed
        self.depth = depth

    def setup(self) -> None:
        # a shallow search finishes lazy set-up before timing starts
        explore.enumerate_small_traces(4, seed=self.seed)

    def prepare(self, i: int) -> int:
        return self.seed * 1000 + i

    def run(self, search_seed: int):
        return explore.enumerate_small_traces(self.depth, seed=search_seed)

    def check(self, search_seed, result) -> bool:
        counts = (result.states_explored, result.transitions)
        return result.sound and counts == SEARCH_COUNTS[self.depth]

    def close(self) -> None:
        pass


@dataclass
class CliJob:
    kind: str
    argv: list
    user: str = ""
    expect_exit: int = 0
    doc_name: str = ""
    doc: bytes = b""


# op kinds per block of 40, shuffled per block: 50% access (a tenth of them
# with a wrong key), 15% get, 10% list, 12.5% put, 12.5% register. Register
# is the slowest op by far (it loads and saves the registry); every other op
# takes about one registry load. With 12.5% register the 90th percentile
# falls inside the register times. At 10% it would sit on the edge between
# them and the rest, and below 10% on the tail of the reads, and jump from
# run to run either way.
_CLI_BLOCK = (
    ["access"] * 18 + ["access-wrong-key"] * 2 + ["get"] * 6 + ["list"] * 4
    + ["put"] * 5 + ["register"] * 5
)


class StoreCli:
    """One in-process `digilock.cli.main(argv)` per op against an on-disk
    store of 10,000 users, with a vault document per touched user."""

    name = "store-cli"
    setup_repeats = 9

    def __init__(self, seed: int, workdir: Path, users: int = 10_000, touched: int = 200) -> None:
        self.seed = seed
        self.workdir = workdir
        self.users = users
        self.touched = touched

    def setup(self) -> None:
        rng = random.Random(f"store-cli:{self.seed}")
        self.rng = rng
        self.keys_dir = self.workdir / "keys"
        self.keys_dir.mkdir(parents=True)
        self.store_dir = self.workdir / "store"
        self.provider_key = _key(rng)
        self.provider_file = self._write_key("provider", self.provider_key)
        self.wrong_file = self._write_key("wrong", _key(rng))
        locker_store = store.LockerStore(self.store_dir)
        locker_store.provision(self.provider_key)
        registry = locker_store.load_registry()
        creds = []
        for i in range(self.users):
            c = sim.Credentials(f"user-{i:05d}", _key(rng), _phrase(rng))
            registry.register(c.user_id, c.key, c.phrase)
            creds.append(c)
        locker_store.save_registry(registry)
        self.pool = rng.sample(creds, self.touched)
        self.key_files = {}
        self.docs: dict[str, dict[str, bytes]] = {}
        for c in self.pool:
            self.key_files[c.user_id] = self._write_key(c.user_id, c.key)
            run = sim.drive_session(registry, c, self.provider_key)
            session = run.locker.session_for(c.user_id)
            key_l = protocol.locker_key(registry.get_record(c.user_id).d_u, registry.h_r)
            doc = rng.randbytes(rng.randrange(64, 1024))
            locker_store.vault_put(c.user_id, "doc-0", doc, key_l, session)
            self.docs[c.user_id] = {"doc-0": doc}
        self.out_file = self.workdir / "out.bin"
        self.in_file = self.workdir / "in.bin"
        self.block: list[str] = []

    def _write_key(self, label: str, key: SecretKey) -> str:
        path = self.keys_dir / f"{label}.key"
        path.write_bytes(bytes(key))
        return str(path)

    def _access_argv(self, c, key_file: str) -> list:
        return [
            "--store", str(self.store_dir), "--user", c.user_id, "--key-file", key_file,
            "--provider-key-file", self.provider_file, "--phrase", c.phrase,
        ]

    def prepare(self, i: int) -> CliJob:
        if not self.block:
            self.block = list(_CLI_BLOCK)
            self.rng.shuffle(self.block)
        kind = self.block.pop()
        rng = self.rng
        if kind == "register":
            uid = f"new-{self.seed}-{i}"
            key_file = self._write_key(uid, _key(rng))
            argv = ["register", "--store", str(self.store_dir), "--user", uid,
                    "--key-file", key_file, "--phrase", _phrase(rng)]
            return CliJob(kind, argv, user=uid)
        c = rng.choice(self.pool)
        if kind == "access-wrong-key":
            return CliJob(kind, ["access", *self._access_argv(c, self.wrong_file)],
                          user=c.user_id, expect_exit=cli.EXIT_BAD_USER_KEY)
        access = self._access_argv(c, self.key_files[c.user_id])
        if kind == "access":
            return CliJob(kind, ["access", *access], user=c.user_id)
        if kind == "get":
            name = rng.choice(sorted(self.docs[c.user_id]))
            self.out_file.unlink(missing_ok=True)
            argv = ["vault", *access, "get", "--name", name, "--out", str(self.out_file)]
            return CliJob(kind, argv, user=c.user_id, doc_name=name,
                          doc=self.docs[c.user_id][name])
        if kind == "list":
            return CliJob(kind, ["--output", "json", "vault", *access, "list"], user=c.user_id)
        name = f"doc-{i}"
        doc = rng.randbytes(rng.randrange(64, 4096))
        self.in_file.write_bytes(doc)
        argv = ["vault", *access, "put", "--name", name, "--file", str(self.in_file)]
        return CliJob(kind, argv, user=c.user_id, doc_name=name, doc=doc)

    def run(self, job: CliJob):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(job.argv)
            except SystemExit as exit_:  # argparse usage errors exit
                code = exit_.code
        return code, out.getvalue()

    def check(self, job: CliJob, result) -> bool:
        code, stdout = result
        if code != job.expect_exit:
            return False
        if job.kind == "get":
            return self.out_file.read_bytes() == job.doc
        if job.kind == "list":
            return set(json.loads(stdout)["documents"]) == set(self.docs[job.user])
        if job.kind == "put":
            self.docs[job.user][job.doc_name] = job.doc
        return True

    def registry_bytes(self) -> int:
        return (self.store_dir / store.REGISTRY_FILENAME).stat().st_size

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Sessions, AttackMix, ModelSearch, StoreCli)}


def make(name: str, seed: int, workdir: Path):
    if name == StoreCli.name:
        return StoreCli(seed, workdir)
    return WORKLOADS[name](seed)
