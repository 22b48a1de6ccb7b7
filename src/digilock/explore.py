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
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, replace

from . import protocol
from .crypto import Digest, SecretKey, SeededRng, sha256
from .protocol import (
    ACTOR_ADVERSARY,
    ACTOR_LOCKER,
    ACTOR_PROVIDER,
    ACTOR_USER,
    TO_USER,
    FailureReason,
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
    provider_reply: bytes  # the provider's answer to every key request


@dataclass(frozen=True)
class ModelState:
    locker: LockerSession | None
    user: UserSession | None
    serial: int  # next challenge's nonce-derivation index
    pending: tuple[tuple[bytes, str], ...]  # sorted (raw frame, origin)
    knowledge: frozenset[tuple[bytes, str]]
    auth_genuine: bool = False
    pk_genuine: bool = False
    ack_genuine: bool = False


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
    open_states: int
    violations: list[OutcomeSignature]

    @property
    def sound(self) -> bool:
        """True iff no Open state lacked genuine key material and consent."""
        return not self.violations

    @property
    def opened(self) -> set[OutcomeSignature]:
        return {o for o in self.outcomes if o.locker_opened}


# the constant replies, encoded once
_FRAMES = {
    msg: msg.encode()
    for msg in (
        protocol.PROVIDER_KEY_REQUEST,
        protocol.RESULT_OPEN,
        *map(protocol.error_message, FailureReason),
    )
}


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
        provider_reply=protocol.provider_on_message(
            provider_key, protocol.PROVIDER_KEY_REQUEST
        ).encode(),
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
        return ModelState(
            locker=None, user=None, serial=1, pending=(), knowledge=old_knowledge
        )
    auth, user_session = protocol.user_begin_session(
        world.user_id, world.user_key, rng=_QueueRng(world.seed, 1, b"na")
    )
    entry = (auth.encode(), ACTOR_USER)
    return ModelState(
        locker=None,
        user=user_session,
        serial=1,
        pending=(entry,),
        knowledge=old_knowledge | {entry},
    )


def _with_outputs(
    state: ModelState, outputs: list[tuple[bytes, str]]
) -> ModelState:
    if not outputs:
        return state
    pending = tuple(sorted(state.pending + tuple(outputs)))
    return replace(
        state, pending=pending, knowledge=state.knowledge | set(outputs)
    )


def _deliver(
    state: ModelState, world: _World, raw: bytes, origin: str, cache: dict
) -> ModelState:
    msg = cache.get(raw)
    if msg is None:
        msg = Message.decode(raw)
        cache[raw] = msg
    if msg.kind is MessageKind.PROVIDER_KEY_REQUEST:
        return _with_outputs(state, [(world.provider_reply, ACTOR_PROVIDER)])
    if msg.kind in TO_USER:
        if state.user is None:
            return state
        user, reply = protocol.user_on_message(
            state.user, world.user_id, world.user_key, world.phrase, msg
        )
        if user is not state.user:
            state = replace(state, user=user)
        if reply is None:
            return state
        return _with_outputs(state, [(reply.encode(), ACTOR_USER)])
    unknown = (  # the model registers one user; any other id has no record
        msg.kind is MessageKind.AUTH_REQUEST
        and msg.fields[0].decode("utf-8", errors="replace") != world.user_id
    )
    locker, reply = protocol.locker_on_message(
        None if unknown else world.record,
        world.h_r,
        state.locker,
        msg,
        now=0,
        timeout_ms=_NO_TIMEOUT_MS,
        rng=_QueueRng(world.seed, state.serial, b"nr", b"seal"),
    )
    if reply is None:
        return state
    raw_reply = _FRAMES.get(reply) or reply.encode()
    if unknown:  # the refused session is dropped: the user's slot stays as it was
        return _with_outputs(state, [(raw_reply, ACTOR_LOCKER)])
    # the genuine flags record who built what the locker accepted
    changes: dict = {}
    if msg.kind is MessageKind.AUTH_REQUEST:
        user_built = origin == ACTOR_USER
        changes = dict(auth_genuine=user_built, pk_genuine=False, ack_genuine=False)
    elif locker.phase is LockerPhase.CHALLENGE_SENT:  # a provider key was accepted
        pk_genuine = msg.fields[0] == bytes(world.provider_key)
        changes = dict(serial=state.serial + 1, pk_genuine=pk_genuine)
    elif locker.phase is LockerPhase.OPEN:
        changes = dict(ack_genuine=origin == ACTOR_USER)
    state = replace(state, locker=locker, **changes)
    return _with_outputs(state, [(raw_reply, ACTOR_LOCKER)])


def _without_pending(state: ModelState, entry: tuple[bytes, str]) -> ModelState:
    pool = list(state.pending)
    pool.remove(entry)
    return replace(state, pending=tuple(pool))


def _successors(
    state: ModelState, world: _World, cache: dict
) -> list[ModelState]:
    out: list[ModelState] = []
    distinct = sorted(set(state.pending))
    for entry in distinct:
        raw, origin = entry
        removed = _without_pending(state, entry)
        # deliver
        out.append(_deliver(removed, world, raw, origin, cache))
        # drop
        out.append(removed)
        # duplicate (bounded; beyond that it's indistinguishable from inject)
        if state.pending.count(entry) < _DUP_CAP:
            out.append(
                replace(state, pending=tuple(sorted(state.pending + (entry,))))
            )
        # tamper: flip one bit in each field, delivered as adversary material
        msg = cache.get(raw)
        if msg is None:
            msg = Message.decode(raw)
            cache[raw] = msg
        for index in range(len(msg.fields)):
            flipped = flip_field_bit(msg, index).encode()
            out.append(_deliver(removed, world, flipped, ACTOR_ADVERSARY, cache))
    # inject: replay anything ever observed, to its natural destination
    for raw, origin in sorted(state.knowledge):
        out.append(_deliver(state, world, raw, origin, cache))
    return out


def _signature(state: ModelState) -> OutcomeSignature:
    locker_phase = state.locker.phase if state.locker else LockerPhase.IDLE
    locker_failure = state.locker.failure if state.locker else None
    opened = locker_phase is LockerPhase.OPEN
    return OutcomeSignature(
        locker_phase=locker_phase.value,
        locker_failure=locker_failure.value if locker_failure else None,
        user_phase=state.user.phase.value if state.user else None,
        user_failure=(
            state.user.failure.value if state.user and state.user.failure else None
        ),
        locker_opened=opened,
        genuine=(
            (state.auth_genuine, state.pk_genuine, state.ack_genuine)
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
    Raises DepthExceeded when depth or the visited-state budget is blown.
    """
    if depth > MAX_DEPTH:
        raise DepthExceeded(f"depth {depth} exceeds bounded-search cap {MAX_DEPTH}")
    world, old_knowledge = _build_world(seed)
    initial = _initial_state(world, old_knowledge, include_honest_user)
    cache: dict[bytes, Message] = {}
    visited: dict[ModelState, int] = {initial: depth}
    frontier: deque[tuple[ModelState, int]] = deque([(initial, depth)])
    outcomes: set[OutcomeSignature] = set()
    violations: list[OutcomeSignature] = []
    open_states = 0
    transitions = 0
    while frontier:
        state, budget = frontier.popleft()
        sig = _signature(state)
        if sig not in outcomes:
            outcomes.add(sig)
            if sig.locker_opened:
                open_states += 1
                if sig.genuine != (True, True, True):
                    violations.append(sig)
        if budget == 0:
            continue
        for nxt in _successors(state, world, cache):
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
        open_states=open_states,
        violations=violations,
    )
