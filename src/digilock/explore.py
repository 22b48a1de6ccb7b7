"""Bounded exhaustive search over adversarial message schedules.

Mechanizes the locker's core safety claim as a brute-force oracle: across
every schedule of adversary moves up to a fixed depth, the locker reaches
Open only when the accepted auth request was user-built, the accepted
provider key equals the genuine R, and the accepted ack was user-produced.

The model is the logical protocol (honest provider responder, relay hops
collapsed): a move delivers, drops, duplicates, or bit-flips a pending
message, or injects any message the adversary has observed, including a
full prior session it recorded, each message with the sender that
`protocol.run_session` names for it. Every reply comes from the user,
provider and locker transitions in `protocol` that `sim` drives and
`run_session` loops over; nothing comes from `sim`. The model registers
one user.

Nonces are derived deterministically from (seed, session serial) rather
than drawn from an RNG, so states reached by different schedules compare
equal and the search space is message scheduling, not nonce entropy;
per-session distinctness, the property the protocol actually relies on,
is preserved.

Each search interns every distinct (raw frame, origin) pair and `Core` (a
NamedTuple of both sessions, the nonce index, the genuine flags) as a small
int, in tables that die with the search. A state is one int, so the cyclic
garbage collector tracks no object per state: the core id in the low
`_CORE_BITS`, then per frame id a slot of a copy count and a known bit (see
`_SLOT`). A successor is a few additions and ORs of per-frame constants, and
`_Tables.core` stops the search before a core id outgrows its field. The
memos are exact, as the world is fixed, a frame id stands for the bytes and
the origin, a core id for all a delivery reads, and counts and known bits
only grow by the frame sent. Each party's transition is memoised on what it
reads, a delivery in its core's row by frame id, a pool's moves on the count
bits (how many, and each pending frame's flips), and the inject moves on the
core id and known bits: how many, and those that change the core or send a
frame. Each memo is read inline and filled only on a miss. A pool or inject
entry is its one-frame-smaller neighbour's, for the key without its highest
frame, plus that frame's part, so a new key costs one frame's work. The rest
of the inject moves lead back to the state itself: they are counted from the
memo and skip the visited lookup. Every other successor goes into `visited`
as it is built, and the next level is the states added during this one. At
depth 6, 311 party transitions and 1,608 deliveries serve 21,464 row reads,
each inline with no call, 1,249 inject entries (854 of them neighbours no
state reads) serve 3,711 expanded states, and 13,881 of the 69,371
transitions lead back to their own state.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

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
_DUP_CAP = 2  # more copies add nothing: the pool is also injectable knowledge
# a state's layout: the core id in the low _CORE_BITS, then per frame id _SLOT
# bits counting its pending copies and one bit set once it is known. A search
# of d moves holds at most d + 1 pending frames, as it starts with at most one
# and each move adds at most one, so no count carries into its known bit and
# equal states are equal ints
_CORE_BITS = 16
_SLOT = (MAX_DEPTH + 1).bit_length()
_COUNT = (1 << _SLOT) - 1
_WIDTH = _SLOT + 1


class DepthExceeded(Exception):
    """The requested depth or state budget is beyond the bounded search."""


class _QueueRng:
    """A stand-in for the nonce source: the k-th take returns the chunk
    derived from (seed, labels[k], index)."""

    def __init__(self, seed: int, index: int, *labels: bytes) -> None:
        self._seed = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
        self._index = index.to_bytes(8, "big")
        self._labels = list(labels)

    def take(self, n: int) -> bytes:
        material = self._seed + self._labels.pop(0) + self._index
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
    records: dict[str, LockerRecord]  # the one registered user's


class Core(NamedTuple):
    """All a delivery reads and writes: both sessions, the nonce index and
    who built what the locker accepted."""

    locker: LockerSession | None
    user: UserSession | None
    serial: int  # next challenge's nonce-derivation index
    auth_genuine: bool = False
    pk_genuine: bool = False
    ack_genuine: bool = False


# core id | copy counts | known bits: an int, which the cyclic GC never tracks
_State = int


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
        records={user_id: record},
    )
    # one complete prior session, recorded off the wire by the adversary
    _, _, sent = protocol.run_session(
        record, h_r, user_id, user_key, phrase, provider_key,
        rng_user=_QueueRng(seed, 0, b"na"), rng_locker=_QueueRng(seed, 0, b"nr", b"seal"),
    )
    knowledge = frozenset((msg.encode(), sender) for msg, sender in sent)
    return world, knowledge


def _initial_state(
    tables: _Tables,
    old_knowledge: frozenset[tuple[bytes, str]],
    include_honest_user: bool,
) -> _State:
    knowledge = 0
    for entry in sorted(old_knowledge):  # sorted: the same ids in every process
        knowledge |= tables.known[tables.frame(entry)]
    if not include_honest_user:
        return knowledge | tables.core(Core(locker=None, user=None, serial=1))
    world = tables.world
    auth, user_session = protocol.user_begin_session(
        world.user_id, world.user_key, rng=_QueueRng(world.seed, 1, b"na")
    )
    frame_id = tables.frame((auth.encode(), ACTOR_USER))
    core_id = tables.core(Core(locker=None, user=user_session, serial=1))
    return knowledge + core_id + tables.copies[frame_id] | tables.known[frame_id]


def _step(tables: _Tables, core: Core, frame_id: int) -> tuple[Core, int | None]:
    """One delivery from the party's memoised transition: the next core, with
    the genuine flags, and the sent frame's id."""
    world, msg, memo = tables.world, tables.messages[frame_id], tables.transitions
    locker, user, serial, auth_genuine, pk_genuine, ack_genuine = core
    if msg.kind is MessageKind.PROVIDER_KEY_REQUEST:
        key = (ACTOR_PROVIDER, frame_id)
        _, sent = memo.get(key) or tables.transition(
            key, (None, protocol.provider_on_message(world.provider_key, msg))
        )
        return core, sent
    if msg.kind in TO_USER:
        if user is None:
            return core, None
        key = (ACTOR_USER, user, frame_id)
        next_user, sent = memo.get(key) or tables.transition(
            key, protocol.user_on_message(user, world.user_id, world.user_key, world.phrase, msg)
        )
        return Core(locker, next_user, serial, auth_genuine, pk_genuine, ack_genuine), sent
    key = (ACTOR_LOCKER, locker, serial, frame_id)
    next_locker, sent = memo.get(key) or tables.transition(
        key,
        protocol.locker_on_message(
            world.records, world.h_r, locker, msg, now=0,  # no clock, so no deadline passes
            rng=_QueueRng(world.seed, serial, b"nr", b"seal"),
        ),
    )
    # an equal session leaves the core as it was: a delivery that sends nothing,
    # an id with no record, or the session's own auth request again, whose
    # bytes give the same origin and which finds the flags a reset would set
    if next_locker == locker:
        return core, sent
    # the genuine flags record who built what the locker accepted
    origin = tables.frames[frame_id][1]
    if msg.kind is MessageKind.AUTH_REQUEST:  # a new session: the other flags reset
        return Core(next_locker, user, serial, origin == ACTOR_USER), sent
    if next_locker.phase is LockerPhase.CHALLENGE_SENT:  # a provider key was accepted
        pk_genuine = msg.fields[0] == bytes(world.provider_key)
        serial += 1
    elif next_locker.phase is LockerPhase.OPEN:
        ack_genuine = origin == ACTOR_USER
    return Core(next_locker, user, serial, auth_genuine, pk_genuine, ack_genuine), sent


def _intern(ids: dict, values: list, value) -> int:
    index = ids.get(value)
    if index is None:
        index = ids[value] = len(values)
        values.append(value)
    return index


class _Tables:
    """One search's frame and core ids and its memos, dropped when it returns."""

    def __init__(self, world: _World) -> None:
        self.world = world
        self.frames: list[tuple[bytes, str]] = []
        self.messages: list[Message] = []  # each frame decoded once
        self.frame_ids: dict[tuple[bytes, str], int] = {}
        self.cores: list[Core] = []
        self.core_ids: dict[Core, int] = {}
        self.rows: list[dict[int, tuple[int, int | None]]] = []  # per core id, by frame id
        self.transitions: dict[tuple, tuple] = {}
        self.flips: dict[int, tuple[int, ...]] = {}
        # the empty pool and each core with no known frame are the base entries
        self.pool_moves: dict[int, tuple[int, tuple[tuple, ...]]] = {0: (0, ())}
        self.injects: dict[int, tuple[int, tuple]] = {}
        # per frame id one copy and its known bit; masks of counts, core and known bits
        self.core_bits = _CORE_BITS
        self.core_mask = self.inject_mask = (1 << _CORE_BITS) - 1
        self.count_mask = 0
        self.copies: list[int] = []
        self.known: list[int] = []

    def frame(self, entry: tuple[bytes, str]) -> int:
        frame_id = _intern(self.frame_ids, self.frames, entry)
        if frame_id == len(self.messages):
            self.messages.append(Message.decode(entry[0]))
            copy = 1 << self.core_bits + _WIDTH * frame_id
            self.copies.append(copy)
            self.known.append(copy << _SLOT)
            self.count_mask |= copy * _COUNT
            self.inject_mask |= copy << _SLOT
        return frame_id

    def core(self, core: Core) -> int:
        core_id = _intern(self.core_ids, self.cores, core)
        if core_id == len(self.rows):
            if core_id > self.core_mask:
                raise DepthExceeded(f"core {core_id} outgrows its {self.core_bits}-bit field")
            self.rows.append({})
            self.injects[core_id] = (0, ())
        return core_id

    def transition(self, key: tuple, run: tuple) -> tuple:
        """Memoise `run`, a party's transition (its next session and reply),
        as that session and the sent frame's id. The key is the party, then
        all the transition reads besides the fixed world."""
        session, reply = run
        sent = None if reply is None else self.frame((reply.encode(), key[0]))
        result = self.transitions[key] = (session, sent)
        return result

    def deliver(self, core_id: int, frame_id: int) -> tuple[int, int | None]:
        """`_step` once per distinct (core, frame, origin) in a search, kept in
        the core's row: the next core's id and the sent frame's id (None if
        nothing is sent)."""
        row = self.rows[core_id]
        step = row.get(frame_id)
        if step is None:
            core, sent = _step(self, self.cores[core_id], frame_id)
            # most next cores are interned already; id 0 falls through to
            # `core`, which finds it too
            step = row[frame_id] = (self.core_ids.get(core) or self.core(core), sent)
        return step

    def flipped(self, frame_id: int) -> tuple[int, ...]:
        """The frame with one bit flipped in each field, as adversary frames."""
        flips = self.flips.get(frame_id)
        if flips is None:
            msg = self.messages[frame_id]
            flips = self.flips[frame_id] = tuple(
                self.frame((flip_field_bit(msg, index).encode(), ACTOR_ADVERSARY))
                for index in range(len(msg.fields))
            )
        return flips

    def moves(self, pool: int) -> tuple[int, tuple[tuple, ...]]:
        """Memoise the pool's moves: how many, and per distinct pending
        frame, in frame-id order, its id, one copy of it in the state, whether
        a second copy may be added (not at `_DUP_CAP`) and its flipped frames'
        ids. An entry is that of its one-frame-smaller neighbour, the pool
        without its highest pending frame, plus that frame's part."""
        frame_id = (pool.bit_length() - 1 - self.core_bits) // _WIDTH
        copy = self.copies[frame_id]
        rest = pool & copy - 1
        count, found = self.pool_moves.get(rest) or self.moves(rest)
        doubles = pool >> self.core_bits + _WIDTH * frame_id < _DUP_CAP  # the top frame's count
        flips = self.flipped(frame_id)
        count += 2 + doubles + len(flips)  # deliver, drop, dup, tampers
        moves = self.pool_moves[pool] = (count, found + ((frame_id, copy, doubles, flips),))
        return moves

    def inject(self, key: int) -> tuple[int, tuple]:
        """Memoise delivering each known frame, on the core id and the known
        bits: how many moves, and those among them that change the core or
        send a frame. The rest replay nothing. An entry is that of its
        one-frame-smaller neighbour, the key without its highest known frame,
        plus that frame's delivery."""
        core_id = key & self.core_mask
        frame_id = (key.bit_length() - 1 - self.core_bits - _SLOT) // _WIDTH
        rest = key ^ self.known[frame_id]
        count, changes = self.injects.get(rest) or self.inject(rest)
        step = self.rows[core_id].get(frame_id) or self.deliver(core_id, frame_id)
        if step != (core_id, None):
            changes += (step,)
        injects = self.injects[key] = (count + 1, changes)
        return injects


def _expand(tables: _Tables, state: _State, add: Callable[[_State], object]) -> int:
    """Hand `add` each state one move away, but for the inject moves that
    lead back to `state` itself, and return how many moves there are."""
    core_id = state & tables.core_mask
    row, deliver, copies, known = tables.rows[core_id], tables.deliver, tables.copies, tables.known
    pool, rest = state & tables.count_mask, state - core_id
    count, moves = tables.pool_moves.get(pool) or tables.moves(pool)
    # a delivery lands as the state with its next core, one more copy of the
    # frame sent and that frame's known bit; spelled out at each move, as a
    # call per successor made the depth-6 search about a third slower (2-core
    # host). A memoised delivery is one lookup in the core's row; `deliver`
    # runs only on a miss
    for frame_id, copy, doubles, flips in moves:
        removed = rest - copy
        next_core, sent = row.get(frame_id) or deliver(core_id, frame_id)
        add(
            removed + next_core if sent is None
            else removed + next_core + copies[sent] | known[sent]
        )
        # drop
        add(state - copy)
        # duplicate (bounded; beyond that it's indistinguishable from inject)
        if doubles:
            add(state + copy)
        # tamper: flip one bit in each field, delivered as adversary material
        for bad in flips:
            next_core, sent = row.get(bad) or deliver(core_id, bad)
            add(
                removed + next_core if sent is None
                else removed + next_core + copies[sent] | known[sent]
            )
    # inject: replay anything ever observed, to its natural destination
    key = state & tables.inject_mask
    injects, changes = tables.injects.get(key) or tables.inject(key)
    for next_core, sent in changes:
        add(
            rest + next_core if sent is None
            else rest + next_core + copies[sent] | known[sent]
        )
    return count + injects


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
    tables = _Tables(world)
    initial = _initial_state(tables, old_knowledge, include_honest_user)
    # one level per move, so a state is first reached at its least depth; a
    # dict, not a set, so the next frontier, outcomes and violations keep
    # first-visit order: each level expands the states the one before added
    visited: dict[_State, None] = {initial: None}
    frontier, add, transitions = [initial], visited.setdefault, 0
    for _ in range(depth):
        start = len(visited)
        for state in frontier:
            transitions += _expand(tables, state, add)
            if len(visited) > state_budget:
                raise DepthExceeded(f"visited states exceeded budget {state_budget}")
        frontier = list(islice(visited, start, None))
    # an outcome depends only on the core: one signature per interned core.
    # Only `_initial_state` and `deliver` intern one, each for a state the
    # search adds, so the interned cores are the visited ones, in first-visit order
    outcomes = dict.fromkeys(map(_signature, tables.cores))
    return Enumeration(
        outcomes=set(outcomes),
        states_explored=len(visited),
        transitions=transitions,
        violations=[
            sig for sig in outcomes
            if sig.locker_opened and sig.genuine != (True, True, True)
        ],
    )
