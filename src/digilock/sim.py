"""Deterministic simulated network with a pluggable adversary seat.

Three actors (user agent, provider seat, locker) exchange framed messages
over FIFO channels; user<->locker traffic always crosses the provider seat.
A scenario wires the actors, optionally replaces a seat with an adversary
or installs a channel tap, pumps the queue to quiescence, and returns a
structured outcome plus a trace. All randomness flows from a single 64-bit
seed and time is an int of simulated milliseconds, so a scenario replays
byte for byte. The trace records each hop's payload digest; a message is
framed once, and a relayed one reuses the frame of the hop before.

The actors only deliver: their replies come from the user, provider and
locker transitions in `protocol`, the functions `explore` searches over.

Scenarios are rows of one table (`_PLANS`): the wrong secret a party holds,
the provider seat, the channel taps, whether an adversary replays the
recorded auth request afterwards, and the failure the locker must report.
`run_scenario(spec)` runs a row; each `run_*` helper names one row. The
locker waits `protocol.DEFAULT_TIMEOUT_MS` for the ack, as in every driver,
and a session still waiting when the queue drains times out at its deadline.

The adversary is Dolev-Yao-lite: it records, replays, drops, and bit-flips
messages on channels it sits on, and never learns secrets that did not
cross its wire.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass, replace
from typing import Iterable, NamedTuple

from . import protocol
from .crypto import (
    AuthFailure,
    Nonce,
    Rng,
    SecretKey,
    SeededRng,
    sha256,
    unseal,
)
from .protocol import (
    ACTOR_ADVERSARY,
    ACTOR_LOCKER,
    ACTOR_PROVIDER,
    ACTOR_USER,
    TO_USER,
    FailureReason,
    LockerPhase,
    LockerSession,
    UserSession,
)
from .store import Registry
from .wire import Message, MessageKind, encode_fields, flip_field_bit

HOP_MS = 1  # simulated time per channel hop
MAX_HOPS = 200  # a run that needs more hops is looping


@dataclass(frozen=True)
class _Plan:
    """One scenario: how the run differs from an honest session."""

    expected_failure: str | None  # the locker's failure reason; None: it opens
    wrong_secret: str | None = None  # "user-key" or "provider-key"
    rogue_provider: bool = False  # the provider seat keeps the challenge
    tamper: tuple[tuple[str, str], MessageKind, int] | None = None  # edge, kind, field
    replay: bool = False  # afterwards, an adversary resends the recorded auth


# (scenario, variant) -> plan; a scenario without variants has variant None
_PLANS = {
    ("honest", None): _Plan(None),
    ("replay", None): _Plan("timeout", replay=True),
    ("impersonation", None): _Plan("timeout", rogue_provider=True),
    ("repudiation-user", None): _Plan("bad-user-key", wrong_secret="user-key"),
    ("repudiation-provider", None): _Plan("bad-provider-key", wrong_secret="provider-key"),
    ("tamper", "prf-field"): _Plan(
        "bad-user-key", tamper=((ACTOR_PROVIDER, ACTOR_LOCKER), MessageKind.AUTH_REQUEST, 1)
    ),
    ("tamper", "challenge-body"): _Plan(
        "timeout", tamper=((ACTOR_PROVIDER, ACTOR_USER), MessageKind.CHALLENGE, 0)
    ),
    ("tamper", "ack-digest"): _Plan(
        "bad-ack", tamper=((ACTOR_PROVIDER, ACTOR_LOCKER), MessageKind.ACK, 0)
    ),
}
_DEFAULT_VARIANTS = {"tamper": "challenge-body"}

SCENARIO_NAMES = tuple(dict.fromkeys(name for name, _ in _PLANS))


class TraceStep(NamedTuple):
    t: int
    sender: str
    receiver: str
    origin: str
    kind: str
    payload_sha256: str
    verdict: str

    def to_json(self) -> dict:
        return self._asdict()


class Trace:
    """Ordered log of channel hops; payloads appear only as digests."""

    def __init__(self) -> None:
        self.steps: list[TraceStep] = []
        self._append = self.steps.append

    def record(
        self,
        t: int,
        sender: str,
        receiver: str,
        origin: str,
        msg: Message,
        verdict: str,
    ) -> None:
        step = (t, sender, receiver, origin, msg.kind.label, sha256(msg.encode()).hex(), verdict)
        self._append(tuple.__new__(TraceStep, step))

    def kind_sequence(self) -> list[str]:
        """Kinds of origin sends (relay hops collapsed)."""
        return [s.kind for s in self.steps if s.sender == s.origin]

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(step.to_json(), separators=(",", ":")) + "\n"
            for step in self.steps
        )


HONEST_KIND_SEQUENCE = [
    "auth-request",
    "provider-key-request",
    "provider-key",
    "challenge",
    "ack",
    "result",
]


def adversary_try_open_challenge(
    msg: Message, user_id: str, n_a: Nonce | None
) -> FailureReason | None:
    """Attempt to open a challenge with on-wire knowledge only (no user key).

    Returns the failure reason, or None if some guess opened it (which
    would mean the session-key derivation is broken).
    """
    guesses = [sha256(b"")]
    if n_a is not None:
        # the wire reveals the user id and N_a but never K_i
        guesses.append(
            sha256(encode_fields([user_id.encode("utf-8"), bytes(n_a)]))
        )
        guesses.append(protocol.session_key(user_id, SecretKey(b"\x00"), n_a))
    for key in guesses:
        try:
            unseal(key, msg.fields[0])
            return None
        except AuthFailure:
            continue
    return FailureReason.CHALLENGE_AUTH_FAILURE


@dataclass(frozen=True)
class Credentials:
    user_id: str
    key: SecretKey
    phrase: str


class UserActor:
    """Honest user agent: opens a session, answers the challenge once."""

    def __init__(self, creds: Credentials, rng: Rng | None = None) -> None:
        self.creds = creds
        self.rng = rng
        self.session: UserSession | None = None

    def begin(self) -> list[tuple[str, Message, str]]:
        msg, self.session = protocol.user_begin_session(
            self.creds.user_id, self.creds.key, rng=self.rng
        )
        return [(ACTOR_PROVIDER, msg, ACTOR_USER)]

    def handle(
        self, msg: Message, origin: str, now: int
    ) -> list[tuple[str, Message, str]]:
        if self.session is None:
            return []
        creds = self.creds
        self.session, reply = protocol.user_on_message(
            self.session, creds.user_id, creds.key, creds.phrase, msg
        )
        return [] if reply is None else [(ACTOR_PROVIDER, reply, ACTOR_USER)]


class ProviderActor:
    """Honest provider seat: answers key requests, relays everything else."""

    def __init__(self, provider_key: SecretKey) -> None:
        self.provider_key = provider_key

    def handle(
        self, msg: Message, origin: str, now: int
    ) -> list[tuple[str, Message, str]]:
        reply = protocol.provider_on_message(self.provider_key, msg)
        if reply is not None:
            return [(ACTOR_LOCKER, reply, ACTOR_PROVIDER)]
        return [(ACTOR_USER if msg.kind in TO_USER else ACTOR_LOCKER, msg, origin)]


class ImpersonatingProvider(ProviderActor):
    """Provider seat gone rogue: relays the genuine auth request and the
    genuine key, then steals the challenge and tries to open it itself."""

    def __init__(self, provider_key: SecretKey, user_id: str) -> None:
        super().__init__(provider_key)
        self.user_id = user_id
        self.seen_n_a: Nonce | None = None
        self.failure: FailureReason | None = None

    def handle(
        self, msg: Message, origin: str, now: int
    ) -> list[tuple[str, Message, str]]:
        if msg.kind is MessageKind.AUTH_REQUEST:
            self.seen_n_a = Nonce(msg.fields[2])
        if msg.kind is MessageKind.CHALLENGE:
            self.failure = adversary_try_open_challenge(
                msg, self.user_id, self.seen_n_a
            )
            return []  # never forwarded; the user waits in vain
        return super().handle(msg, origin, now)


class ReplaySeat:
    """Occupies the user endpoint during a replay run: it can resend a
    recorded auth request but cannot answer the resulting challenge."""

    def __init__(self, user_id: str, recorded_auth: Message) -> None:
        self.user_id = user_id
        self.n_a = Nonce(recorded_auth.fields[2])
        self.failure: FailureReason | None = None

    def handle(
        self, msg: Message, origin: str, now: int
    ) -> list[tuple[str, Message, str]]:
        if msg.kind is MessageKind.CHALLENGE:
            self.failure = adversary_try_open_challenge(msg, self.user_id, self.n_a)
        return []


class LockerActor:
    """The locker module: verifies both parties, then waits on consent.

    It holds the session slot, and `protocol.locker_on_message` fills it.
    The replay defence is the ack a replayer cannot produce.
    """

    def __init__(self, registry: Registry, *, rng: Rng | None = None) -> None:
        self.registry = registry
        self.rng = rng
        self.session: LockerSession | None = None

    def session_for(self, user_id: str) -> LockerSession | None:
        """The session, when it belongs to `user_id`."""
        if self.session is not None and self.session.user_id == user_id:
            return self.session
        return None

    def handle(
        self, msg: Message, origin: str, now: int
    ) -> list[tuple[str, Message, str]]:
        self.session, reply = protocol.locker_on_message(
            self.registry.records,
            self.registry.h_r,
            self.session,
            msg,
            now=now,
            rng=self.rng,
        )
        return [] if reply is None else [(ACTOR_PROVIDER, reply, ACTOR_LOCKER)]

    def check_timeouts(self, now: int) -> None:
        if self.session is not None:
            self.session = protocol.locker_check_timeout(self.session, now)


class RecordingTap:
    """Passive wiretap: copies every crossing message into a knowledge list."""

    def __init__(self, knowledge: list[Message]) -> None:
        self.knowledge = knowledge

    def intercept(self, msg: Message) -> tuple[Message, str]:
        self.knowledge.append(msg)
        return msg, "delivered"


class TamperTap:
    """Flips one bit of one field of the first message of a given kind."""

    def __init__(self, kind: MessageKind, field_index: int, bit: int = 0) -> None:
        self.kind = kind
        self.field_index = field_index
        self.bit = bit
        self.done = False

    def intercept(self, msg: Message) -> tuple[Message, str]:
        if not self.done and msg.kind is self.kind:
            self.done = True
            return flip_field_bit(msg, self.field_index, self.bit), "modified"
        return msg, "delivered"


_DIRECT_EDGES = {(ACTOR_USER, ACTOR_LOCKER), (ACTOR_LOCKER, ACTOR_USER)}


class Simulation:
    """Single-threaded event loop over FIFO channels with optional taps.

    `now` is the simulated time in ms. A queued hop is the tuple
    (src, dst, origin, msg, replayed)."""

    def __init__(
        self,
        actors: dict[str, object],
        *,
        trace: Trace,
        taps: dict[tuple[str, str], object] | None = None,
    ) -> None:
        self.actors = actors
        self.trace = trace
        self.taps = taps or {}
        self.now = 0
        self.queue: deque[tuple[str, str, str, Message, bool]] = deque()

    def post(self, src: str, dst: str, msg: Message, origin: str) -> None:
        if (src, dst) in _DIRECT_EDGES:
            raise ValueError("user<->locker traffic must cross the provider seat")
        self.queue.append((src, dst, origin, msg, False))

    def inject(self, dst: str, msg: Message, origin: str) -> None:
        """Queue a recorded message for the adversary to deliver (a replay)."""
        self.queue.append((ACTOR_ADVERSARY, dst, origin, msg, True))

    def send_all(self, src: str, outs: Iterable[tuple[str, Message, str]]) -> None:
        for dst, msg, origin in outs:
            self.post(src, dst, msg, origin)

    def pump(self) -> None:
        """Deliver queued packets, one per HOP_MS, until the queue is empty."""
        queue, taps, actors = self.queue, self.taps, self.actors
        record, send_all = self.trace.record, self.send_all
        hops = 0
        while queue:
            hops += 1
            if hops > MAX_HOPS:
                raise RuntimeError(f"simulation exceeded {MAX_HOPS} hops")
            src, dst, origin, msg, replayed = queue.popleft()
            self.now = now = self.now + HOP_MS
            verdict = "delivered"
            tap = taps.get((src, dst)) if taps else None
            if tap is not None:
                msg, verdict = tap.intercept(msg)
            if replayed and verdict == "delivered":
                verdict = "replayed"
            record(now, src, dst, origin, msg, verdict)
            send_all(dst, actors[dst].handle(msg, origin, now))


@dataclass(frozen=True)
class ScenarioOutcome:
    """Terminal states of one scenario run."""

    scenario: str
    locker_phase: str
    user_phase: str | None
    locker_opened: bool
    failure_reason: str | None
    user_failure: str | None = None
    adversary_failure: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario run: {scenario, seed, variant}.

    `variant` is a tamper target; the other scenarios take none. The locker
    waits `protocol.DEFAULT_TIMEOUT_MS` for the ack, as in every driver."""

    scenario: str
    seed: int = 0
    variant: str | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIO_NAMES:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; choose from {', '.join(SCENARIO_NAMES)}"
            )
        # a tamper spec with no variant names the default row, so equal runs have equal specs
        variant = self.variant or _DEFAULT_VARIANTS.get(self.scenario)
        object.__setattr__(self, "variant", variant)
        if (self.scenario, variant) not in _PLANS:
            raise ValueError(f"unknown {self.scenario} variant {self.variant!r}")

    def to_json(self) -> dict:
        return asdict(self)


def seed_world(seed: int) -> tuple[Registry, Credentials, SecretKey]:
    """A registry holding h(R) and "alice", alice's credentials and R: the
    world `protocol.seeded_world` draws from the seed, which the model
    searches too."""
    world = protocol.seeded_world(seed)
    creds = Credentials(world.user_id, world.user_key, world.phrase)
    return Registry(world.h_r, world.records), creds, world.provider_key


@dataclass
class SessionRun:
    """Handles left behind by a driven session, for assertions and vault ops."""

    user: UserActor
    locker: LockerActor
    sim: Simulation
    trace: Trace


def drive_session(
    registry: Registry,
    creds: Credentials,
    provider_key: SecretKey,
    *,
    rng_user: Rng | None = None,
    rng_locker: Rng | None = None,
    taps: dict[tuple[str, str], object] | None = None,
    provider: ProviderActor | None = None,
) -> SessionRun:
    """Run one access session to quiescence, then past its ack deadline if
    the locker still waits for consent (the shared scenario core)."""
    user = UserActor(creds, rng=rng_user)
    provider = provider or ProviderActor(provider_key)
    locker = LockerActor(registry, rng=rng_locker)
    sim = Simulation(
        {ACTOR_USER: user, ACTOR_PROVIDER: provider, ACTOR_LOCKER: locker},
        trace=Trace(),
        taps=taps,
    )
    sim.send_all(ACTOR_USER, user.begin())
    _pump_to_deadline(sim, locker)
    return SessionRun(user=user, locker=locker, sim=sim, trace=sim.trace)


def _pump_to_deadline(sim: Simulation, locker: LockerActor) -> None:
    """Pump to quiescence; a session still awaiting its ack then times out."""
    sim.pump()
    session = locker.session
    if session is not None and session.phase is LockerPhase.CHALLENGE_SENT:
        sim.now = session.deadline + 1
        locker.check_timeouts(sim.now)


def run_scenario(spec: ScenarioSpec) -> tuple[ScenarioOutcome, Trace]:
    """Run the table row a scenario spec names, from its seed."""
    seed = spec.seed
    plan = _PLANS[spec.scenario, spec.variant]
    registry, creds, provider_key = seed_world(seed)
    if plan.wrong_secret is not None:
        wrong = SecretKey(SeededRng(seed, b"wrong-secret").take(16))
        if plan.wrong_secret == "user-key":
            creds = replace(creds, key=wrong)
        else:
            provider_key = wrong
    knowledge: list[Message] = []
    taps: dict[tuple[str, str], object] = {}
    if plan.replay:
        tap = RecordingTap(knowledge)
        taps = {(ACTOR_USER, ACTOR_PROVIDER): tap, (ACTOR_PROVIDER, ACTOR_USER): tap}
    if plan.tamper is not None:
        edge, kind, field_index = plan.tamper
        taps = {edge: TamperTap(kind, field_index)}
    adversary: ImpersonatingProvider | ReplaySeat | None = (
        ImpersonatingProvider(provider_key, creds.user_id) if plan.rogue_provider else None
    )
    run = drive_session(
        registry,
        creds,
        provider_key,
        rng_user=SeededRng(seed, b"user"),
        rng_locker=SeededRng(seed, b"locker"),
        taps=taps,
        provider=adversary,
    )
    user_session: UserSession | None = run.user.session
    if plan.replay:
        # the recorded auth request comes back, untapped, from a seat in the
        # user's place that holds no key; the provider seat is the honest one
        recorded_auth = next(m for m in knowledge if m.kind is MessageKind.AUTH_REQUEST)
        adversary = run.sim.actors[ACTOR_USER] = ReplaySeat(creds.user_id, recorded_auth)
        run.sim.taps = {}
        run.sim.inject(ACTOR_PROVIDER, recorded_auth, origin=ACTOR_USER)
        _pump_to_deadline(run.sim, run.locker)
        user_session = None
    locker_session = run.locker.session_for(creds.user_id)
    locker_phase = locker_session.phase if locker_session else LockerPhase.IDLE
    failure = locker_session.failure if locker_session else None
    user_failure = user_session.failure if user_session else None
    adversary_failure = adversary.failure if adversary is not None else None
    outcome = ScenarioOutcome(
        scenario=spec.scenario,
        locker_phase=locker_phase.value,
        user_phase=user_session.phase.value if user_session else None,
        locker_opened=locker_phase is LockerPhase.OPEN,
        failure_reason=failure.value if failure else None,
        user_failure=user_failure.value if user_failure else None,
        adversary_failure=adversary_failure.value if adversary_failure else None,
    )
    return outcome, run.trace


def run_honest_session(seed: int = 0) -> tuple[ScenarioOutcome, Trace]:
    return run_scenario(ScenarioSpec("honest", seed))


def run_repudiation_scenario(variant: str, seed: int = 0) -> tuple[ScenarioOutcome, Trace]:
    """One party supplies a wrong secret; the locker must refuse to open."""
    scenario = {
        "wrong-user-key": "repudiation-user",
        "wrong-provider-key": "repudiation-provider",
    }.get(variant)
    if scenario is None:
        raise ValueError(f"unknown repudiation variant {variant!r}")
    return run_scenario(ScenarioSpec(scenario, seed))


def run_replay_scenario(seed: int = 0) -> tuple[ScenarioOutcome, Trace]:
    """Record an honest session, then resend its auth request verbatim.

    The locker accepts the stale proof and issues a fresh challenge, but
    the replaying adversary holds no user key, cannot derive the session
    key, and the session dies at the ack deadline.
    """
    return run_scenario(ScenarioSpec("replay", seed))


def run_impersonation_scenario(seed: int = 0) -> tuple[ScenarioOutcome, Trace]:
    """The provider seat forwards genuine traffic but keeps the challenge,
    failing to open it without the user key; the locker times out."""
    return run_scenario(ScenarioSpec("impersonation", seed))


def run_tamper_scenario(target: str, seed: int = 0) -> tuple[ScenarioOutcome, Trace]:
    """Flip one bit of one protocol field in transit; the locker must not open."""
    return run_scenario(ScenarioSpec("tamper", seed, target))


def outcome_matches_expectation(spec: ScenarioSpec, outcome: ScenarioOutcome) -> bool:
    """True iff the run ended the way the scenario is supposed to end."""
    expected = _PLANS[spec.scenario, spec.variant].expected_failure
    if expected is None:
        return outcome.locker_opened
    return not outcome.locker_opened and outcome.failure_reason == expected
