"""Bounded exhaustive search over adversarial message schedules.

Mechanizes the locker's core safety claim as a brute-force oracle: across
every schedule of adversary moves up to a fixed depth, the locker reaches
Open only when the accepted auth request was user-built, the accepted
provider key equals the genuine R, and the accepted ack was user-produced.

The model is the logical protocol (honest provider responder, relay hops
collapsed): a move delivers, drops, duplicates, or bit-flips a pending
message, or injects any message the adversary has observed, including a
full prior session it recorded (run by `protocol.run_session`). Every
reply comes from the user, provider and locker transitions in `protocol`
that `sim` drives and `run_session` loops over; nothing comes from `sim`.
The model differs from `sim.LockerActor` on purpose: it has one registered
user; an auth request for an unknown id is refused with no record and the
session that refusal returns is dropped, so that user's slot is untouched;
and there is no provider-key FIFO, since the one slot takes every provider
key and ack.

Nonces are derived deterministically from (seed, session serial) rather
than drawn from an RNG, so states reached by different schedules compare
equal and the search space is message scheduling, not nonce entropy;
per-session distinctness, the property the protocol actually relies on,
is preserved.

Each search memoises its delivery step, keyed on the state's `Core` (both
sessions, the nonce index, the genuine flags) plus the frame and its
origin. The memo is exact: the step reads nothing else, since the world is
fixed for the search and the pending pool and the adversary's knowledge
only grow by the frame the step sends. So each distinct step runs once per
search (about 1,700 of the 52,000 deliveries at depth 6), and the memo is
dropped when the search returns.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

from . import protocol
from .crypto import Digest, SecretKey, SeededRng, sha256
from .protocol import (
    ACTOR_ADVERSARY,
    ACTOR_LOCKER,
    ACTOR_PROVIDER,
    ACTOR_USER,
    TO_USER,
    LockerPhase,
    LockerRecord,
    LockerSession,
    UserSession,
)
from .wire import Message, MessageKind, flip_field_bit

MAX_DEPTH = 8
DEFAULT_STATE_BUDGET = 200_000
_NO_TIMEOUT_MS = 1 << 40
_DUP_CAP = 2  # more copies add nothing: the pool is also injectable knowledge
# who sends each kind in a session; the locker sends the rest
_SENDERS = {
    MessageKind.AUTH_REQUEST: ACTOR_USER,
    MessageKind.ACK: ACTOR_USER,
    MessageKind.PROVIDER_KEY: ACTOR_PROVIDER,
}


class DepthExceeded(Exception):
    """The requested depth or state budget is beyond the bounded search."""


class _QueueRng:
    """A stand-in for the nonce source: the k-th take returns the chunk
    derived from (seed, labels[k], index)."""

    def __init__(self, seed: int, index: int, *labels: bytes) -> None:
        self._seed = seed
        self._index = index
        self._labels = list(labels)

    def take(self, n: int) -> bytes:
        return _derive(self._seed, self._labels.pop(0), self._index, n)


def _derive(seed: int, label: bytes, index: int, n: int) -> bytes:
    material = (
        (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
        + label
        + index.to_bytes(8, "big")
    )
    return hashlib.sha256(material).digest()[:n]


@dataclass(frozen=True)
class _World:
    """Fixed, state-independent facts of the model."""

    seed: int
    user_id: str
    user_key: SecretKey
    phrase: str
    provider_key: SecretKey
    h_r: Digest
    record: LockerRecord


@dataclass(frozen=True)
class Core:
    """All a delivery reads and writes: both sessions, the nonce index and
    who built what the locker accepted."""

    locker: LockerSession | None
    user: UserSession | None
    serial: int  # next challenge's nonce-derivation index
    auth_genuine: bool = False
    pk_genuine: bool = False
    ack_genuine: bool = False

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:  # many states share one core: hash it once
        return hash((self.locker, self.user, self.serial, self.auth_genuine,
                     self.pk_genuine, self.ack_genuine))


@dataclass(frozen=True)
class ModelState:
    core: Core
    pending: tuple[tuple[bytes, str], ...]  # sorted (raw frame, origin)
    knowledge: frozenset[tuple[bytes, str]]


@dataclass(frozen=True)
class OutcomeSignature:
    locker_phase: str
    locker_failure: str | None
    user_phase: str | None
    user_failure: str | None
    locker_opened: bool
    genuine: tuple[bool, bool, bool] | None  # (auth, provider key, ack) when opened


@dataclass
class Enumeration:
    outcomes: set[OutcomeSignature]
    states_explored: int
    transitions: int
    violations: list[OutcomeSignature]

    @property
    def sound(self) -> bool:
        """True iff no Open state lacked genuine key material and consent."""
        return not self.violations

    @property
    def opened(self) -> set[OutcomeSignature]:
        return {o for o in self.outcomes if o.locker_opened}


def _build_world(seed: int) -> tuple[_World, frozenset[tuple[bytes, str]]]:
    setup = SeededRng(seed, b"model-setup")
    user_id = "alice"
    user_key = SecretKey(setup.take(16))
    phrase = setup.take(8).hex()
    provider_key = SecretKey(setup.take(16))
    h_r = sha256(bytes(provider_key))
    record = protocol.register_user(
        user_id, user_key, phrase, h_r, rng=_QueueRng(seed, 0, b"register-seal")
    )
    world = _World(
        seed=seed,
        user_id=user_id,
        user_key=user_key,
        phrase=phrase,
        provider_key=provider_key,
        h_r=h_r,
        record=record,
    )
    # one complete prior session, recorded off the wire by the adversary
    _, sent = protocol.run_session(
        record, h_r, user_id, user_key, phrase, provider_key,
        rng_user=_QueueRng(seed, 0, b"na"), rng_locker=_QueueRng(seed, 0, b"nr", b"seal"),
    )
    knowledge = frozenset(
        (msg.encode(), _SENDERS.get(msg.kind, ACTOR_LOCKER)) for msg in sent
    )
    return world, knowledge


def _initial_state(
    world: _World,
    old_knowledge: frozenset[tuple[bytes, str]],
    include_honest_user: bool,
) -> ModelState:
    if not include_honest_user:
        return ModelState(Core(locker=None, user=None, serial=1), (), old_knowledge)
    auth, user_session = protocol.user_begin_session(
        world.user_id, world.user_key, rng=_QueueRng(world.seed, 1, b"na")
    )
    entry = (auth.encode(), ACTOR_USER)
    core = Core(locker=None, user=user_session, serial=1)
    return ModelState(core, (entry,), old_knowledge | {entry})


def _step(
    core: Core, world: _World, raw: bytes, origin: str
) -> tuple[Core, tuple[bytes, str] | None]:
    """One delivery on the memo-key fields: the next core and the frame sent."""
    msg = Message.decode(raw)
    if msg.kind is MessageKind.PROVIDER_KEY_REQUEST:
        reply = protocol.provider_on_message(world.provider_key, msg)
        return core, (reply.encode(), ACTOR_PROVIDER)
    if msg.kind in TO_USER:
        if core.user is None:
            return core, None
        user, reply = protocol.user_on_message(
            core.user, world.user_id, world.user_key, world.phrase, msg
        )
        sent = None if reply is None else (reply.encode(), ACTOR_USER)
        return replace(core, user=user), sent
    unknown = (  # the model registers one user; any other id has no record
        msg.kind is MessageKind.AUTH_REQUEST
        and msg.fields[0].decode("utf-8", errors="replace") != world.user_id
    )
    locker, reply = protocol.locker_on_message(
        None if unknown else world.record,
        world.h_r,
        core.locker,
        msg,
        now=0,
        timeout_ms=_NO_TIMEOUT_MS,
        rng=_QueueRng(world.seed, core.serial, b"nr", b"seal"),
    )
    if reply is None:
        return core, None
    sent = (reply.encode(), ACTOR_LOCKER)
    if unknown:  # the refused session is dropped: the user's slot stays as it was
        return core, sent
    # the genuine flags record who built what the locker accepted
    if msg.kind is MessageKind.AUTH_REQUEST:  # a new session: the other flags reset
        return Core(locker, core.user, core.serial, origin == ACTOR_USER), sent
    if locker.phase is LockerPhase.CHALLENGE_SENT:  # a provider key was accepted
        pk_genuine = msg.fields[0] == bytes(world.provider_key)
        return replace(
            core, locker=locker, serial=core.serial + 1, pk_genuine=pk_genuine
        ), sent
    if locker.phase is LockerPhase.OPEN:
        return replace(core, locker=locker, ack_genuine=origin == ACTOR_USER), sent
    return replace(core, locker=locker), sent


def _deliver(
    state: ModelState, world: _World, raw: bytes, origin: str, memo: dict
) -> ModelState:
    """`_step` once per distinct (core, frame, origin) in a search; the sent
    frame joins the pool and the adversary's knowledge."""
    key = (state.core, raw, origin)
    step = memo.get(key)
    if step is None:
        step = memo[key] = _step(state.core, world, raw, origin)
    core, sent = step
    if sent is None:
        return ModelState(core, state.pending, state.knowledge)
    knowledge = state.knowledge
    if sent not in knowledge:
        knowledge = knowledge | {sent}
    return ModelState(core, tuple(sorted(state.pending + (sent,))), knowledge)


def _successors(
    state: ModelState, world: _World, memo: dict, flips: dict
) -> list[ModelState]:
    out: list[ModelState] = []
    for entry in sorted(set(state.pending)):
        raw, origin = entry
        pool = list(state.pending)
        pool.remove(entry)
        removed = ModelState(state.core, tuple(pool), state.knowledge)
        # deliver
        out.append(_deliver(removed, world, raw, origin, memo))
        # drop
        out.append(removed)
        # duplicate (bounded; beyond that it's indistinguishable from inject)
        if state.pending.count(entry) < _DUP_CAP:
            pending = tuple(sorted(state.pending + (entry,)))
            out.append(ModelState(state.core, pending, state.knowledge))
        # tamper: flip one bit in each field, delivered as adversary material
        flipped = flips.get(raw)
        if flipped is None:
            msg = Message.decode(raw)
            flipped = flips[raw] = [
                flip_field_bit(msg, index).encode() for index in range(len(msg.fields))
            ]
        for bad in flipped:
            out.append(_deliver(removed, world, bad, ACTOR_ADVERSARY, memo))
    # inject: replay anything ever observed, to its natural destination
    for raw, origin in sorted(state.knowledge):
        out.append(_deliver(state, world, raw, origin, memo))
    return out


def _signature(core: Core) -> OutcomeSignature:
    locker_phase = core.locker.phase if core.locker else LockerPhase.IDLE
    locker_failure = core.locker.failure if core.locker else None
    opened = locker_phase is LockerPhase.OPEN
    return OutcomeSignature(
        locker_phase=locker_phase.value,
        locker_failure=locker_failure.value if locker_failure else None,
        user_phase=core.user.phase.value if core.user else None,
        user_failure=(
            core.user.failure.value if core.user and core.user.failure else None
        ),
        locker_opened=opened,
        genuine=(
            (core.auth_genuine, core.pk_genuine, core.ack_genuine)
            if opened
            else None
        ),
    )


def enumerate_small_traces(
    depth: int = 6,
    *,
    seed: int = 0,
    include_honest_user: bool = True,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Enumeration:
    """Breadth-first search of every adversary schedule up to `depth` moves.

    Returns the set of reachable outcome signatures plus any soundness
    violations (Open without genuine auth, provider key, and user ack).
    Raises ValueError for a negative depth, and DepthExceeded when depth or
    the visited-state budget is blown.
    """
    if depth < 0:
        raise ValueError(f"depth {depth} is negative")
    if depth > MAX_DEPTH:
        raise DepthExceeded(f"depth {depth} exceeds bounded-search cap {MAX_DEPTH}")
    world, old_knowledge = _build_world(seed)
    initial = _initial_state(world, old_knowledge, include_honest_user)
    # per search: the step of each distinct (core, frame, origin), and the
    # bit-flipped copies of each frame
    memo: dict[tuple[Core, bytes, str], tuple[Core, tuple[bytes, str] | None]] = {}
    flips: dict[bytes, list[bytes]] = {}
    visited: dict[ModelState, int] = {initial: depth}
    frontier: deque[tuple[ModelState, int]] = deque([(initial, depth)])
    outcomes: set[OutcomeSignature] = set()
    violations: list[OutcomeSignature] = []
    transitions = 0
    while frontier:
        state, budget = frontier.popleft()
        sig = _signature(state.core)
        if sig not in outcomes:
            outcomes.add(sig)
            if sig.locker_opened and sig.genuine != (True, True, True):
                violations.append(sig)
        if budget == 0:
            continue
        for nxt in _successors(state, world, memo, flips):
            transitions += 1
            prior = visited.get(nxt)
            if prior is None or prior < budget - 1:
                visited[nxt] = budget - 1
                if len(visited) > state_budget:
                    raise DepthExceeded(
                        f"visited states exceeded budget {state_budget}"
                    )
                frontier.append((nxt, budget - 1))
    return Enumeration(
        outcomes=outcomes,
        states_explored=len(visited),
        transitions=transitions,
        violations=violations,
    )
