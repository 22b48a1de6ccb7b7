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

The model runs in the simulator's world, `protocol.seeded_world(seed)`,
and the prior session is the one the simulator's honest scenario runs,
its nonces drawn from `SeededRng(seed, b"user")` and
`SeededRng(seed, b"locker")`. The model's own sessions draw theirs from a
fresh `SeededRng(seed, b"user-<serial>")` or `SeededRng(seed,
b"locker-<serial>")` per transition, so a nonce depends only on (seed,
session serial): states reached by different schedules compare equal and
the search space is message scheduling, not nonce entropy; per-session
distinctness, the property the protocol actually relies on, is preserved.

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
reads (the locker's auth check on the frame alone: it reads only the records
and the message), a delivery in its core's row by frame id (keeping the core
id, and interning nothing, when neither session changes), a pool's moves on
the count bits (how many, and each pending frame's flips), and the inject
moves on the core id and known bits: how many, and those that change the
core or send a frame. Each memo is read inline and filled only on a miss. A
pool or inject entry is its one-frame-smaller neighbour's, for the key
without its highest frame, plus that frame's part, so a new key costs one
frame's work. A frame id is made only from a message in hand (the reply, the
flipped copy, the auth request, the prior session's), as `_Tables.frame`
cannot decode, and a locker step gets a nonce source only for a provider
key, the one locker message that can draw nonces. The rest of the inject
moves, and a pool's deliveries and tampers that change and send nothing,
lead back to the state or to its drop's successor: they are counted from the
memo and add nothing. Every other successor goes into `visited` as it is
built, and the next level is the states added during this one. At depth 6,
192 party transitions (5 auth checks, 44 with a nonce source) and 1,608
deliveries serve 21,464 row reads, each inline with no call, 1,249 inject
entries (854 of them neighbours no state reads) serve 3,711 expanded states,
of the 69,371 transitions 13,881 lead back to their own state and 50,060 go
to `visited`, and `_outcome` maps the 143 cores to 45 `OutcomeSignature`
NamedTuples, one per distinct outcome.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import islice
from typing import NamedTuple

from . import protocol
from .crypto import SeededRng
from .protocol import (
    ACTOR_ADVERSARY,
    ACTOR_LOCKER,
    ACTOR_PROVIDER,
    ACTOR_USER,
    TO_USER,
    LockerPhase,
    LockerSession,
    UserSession,
    World,
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


class OutcomeSignature(NamedTuple):
    locker_phase: str
    locker_failure: str | None
    user_phase: str | None
    user_failure: str | None
    locker_opened: bool
    genuine: tuple[bool, bool, bool] | None  # (auth, provider key, ack) when opened


class Enumeration(NamedTuple):
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


def _build_world(seed: int) -> tuple[World, dict[tuple[bytes, str], Message]]:
    world = protocol.seeded_world(seed)
    # one complete prior session, recorded off the wire by the adversary: the
    # frames, each with its sender, that the simulator's honest scenario sends,
    # and each frame's message, so the search interns it with no decode
    _, _, sent = protocol.run_session(
        world.records[world.user_id], world.h_r, world.user_id, world.user_key,
        world.phrase, world.provider_key,
        rng_user=SeededRng(seed, b"user"), rng_locker=SeededRng(seed, b"locker"),
    )
    return world, {(msg.encode(), sender): msg for msg, sender in sent}


def _nonces(seed: int, role: str, serial: int) -> SeededRng:
    """The nonce source of `role`'s session `serial` in the model; its
    context never equals the prior session's, the role alone."""
    return SeededRng(seed, f"{role}-{serial}".encode())


def _initial_state(
    tables: _Tables,
    old_knowledge: dict[tuple[bytes, str], Message],
    include_honest_user: bool,
) -> _State:
    knowledge = 0
    for entry in sorted(old_knowledge):  # sorted: the same ids in every process
        knowledge |= tables.known[tables.frame(entry, old_knowledge[entry])]
    if not include_honest_user:
        return knowledge | tables.core(Core(locker=None, user=None, serial=1))
    world = tables.world
    auth, user_session = protocol.user_begin_session(
        world.user_id, world.user_key, rng=_nonces(world.seed, ACTOR_USER, 1)
    )
    frame_id = tables.frame((auth.encode(), ACTOR_USER), auth)
    core_id = tables.core(Core(locker=None, user=user_session, serial=1))
    return knowledge + core_id + tables.copies[frame_id] | tables.known[frame_id]


def _step(tables: _Tables, core: Core, frame_id: int) -> tuple[Core | None, int | None]:
    """One delivery from the party's memoised transition: the next core, with
    the genuine flags, or None when neither session changes, and the sent
    frame's id."""
    world, msg, memo = tables.world, tables.messages[frame_id], tables.transitions
    locker, user, serial, auth_genuine, pk_genuine, ack_genuine = core
    if msg.kind is MessageKind.PROVIDER_KEY_REQUEST:
        key = (ACTOR_PROVIDER, frame_id)
        _, sent = memo.get(key) or tables.transition(
            key, (None, protocol.provider_on_message(world.provider_key, msg))
        )
        return None, sent
    if msg.kind in TO_USER:
        if user is None:
            return None, None
        key = (ACTOR_USER, user, frame_id)
        next_user, sent = memo.get(key) or tables.transition(
            key, protocol.user_on_message(user, world.user_id, world.user_key, world.phrase, msg)
        )
        if next_user == user:
            return None, sent
        return Core(locker, next_user, serial, auth_genuine, pk_genuine, ack_genuine), sent
    # an auth check reads only the records and the frame, so it is keyed on
    # the frame alone and run with no session; the None session it returns
    # for an id with no record leaves the slot as it was. Only a provider key
    # can build a challenge, the one locker step that draws nonces
    auth = msg.kind is MessageKind.AUTH_REQUEST
    key = (ACTOR_LOCKER, frame_id) if auth else (ACTOR_LOCKER, locker, serial, frame_id)
    next_locker, sent = memo.get(key) or tables.transition(
        key,
        protocol.locker_on_message(
            world.records, world.h_r, None if auth else locker, msg, now=0,  # no clock, no deadline
            rng=_nonces(world.seed, ACTOR_LOCKER, serial)
            if msg.kind is MessageKind.PROVIDER_KEY else None,
        ),
    )
    next_locker = next_locker or locker
    # an equal session leaves the core as it was: a delivery that sends nothing,
    # an id with no record, or the session's own auth request again, whose
    # bytes give the same origin and which finds the flags a reset would set
    if next_locker == locker:
        return None, sent
    # the genuine flags record who built what the locker accepted
    origin = tables.frames[frame_id][1]
    if auth:  # a new session: the other flags reset
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

    def __init__(self, world: World) -> None:
        self.world = world
        self.frames: list[tuple[bytes, str]] = []
        self.messages: list[Message] = []  # each frame's message, by frame id
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

    def frame(self, entry: tuple[bytes, str], msg: Message) -> int:
        """The id of (raw frame, origin); `msg` is the frame's message, kept
        on its first visit, so no frame is decoded."""
        frame_id = _intern(self.frame_ids, self.frames, entry)
        if frame_id == len(self.messages):
            self.messages.append(msg)
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
        sent = None if reply is None else self.frame((reply.encode(), key[0]), reply)
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
            # a no-op delivery interns nothing; most next cores are interned
            # already, and id 0 falls through to `core`, which finds it too
            step = row[frame_id] = (
                core_id if core is None else self.core_ids.get(core) or self.core(core), sent
            )
        return step

    def flipped(self, frame_id: int) -> tuple[int, ...]:
        """The frame with one bit flipped in each field, as adversary frames."""
        flips = self.flips.get(frame_id)
        if flips is None:
            msg = self.messages[frame_id]
            flips = self.flips[frame_id] = tuple(
                self.frame((bad.encode(), ACTOR_ADVERSARY), bad)
                for bad in [flip_field_bit(msg, index) for index in range(len(msg.fields))]
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
    # runs only on a miss. A delivery that changes nothing and sends nothing
    # lands on the drop's successor, added right after it or before the
    # tampers, so it adds nothing and the first-visit order stays the same
    for frame_id, copy, doubles, flips in moves:
        removed = rest - copy
        next_core, sent = row.get(frame_id) or deliver(core_id, frame_id)
        if sent is not None:
            add(removed + next_core + copies[sent] | known[sent])
        elif next_core != core_id:
            add(removed + next_core)
        # drop
        add(state - copy)
        # duplicate (bounded; beyond that it's indistinguishable from inject)
        if doubles:
            add(state + copy)
        # tamper: flip one bit in each field, delivered as adversary material
        for bad in flips:
            next_core, sent = row.get(bad) or deliver(core_id, bad)
            if sent is not None:
                add(removed + next_core + copies[sent] | known[sent])
            elif next_core != core_id:
                add(removed + next_core)
    # inject: replay anything ever observed, to its natural destination
    key = state & tables.inject_mask
    injects, changes = tables.injects.get(key) or tables.inject(key)
    for next_core, sent in changes:
        add(
            rest + next_core if sent is None
            else rest + next_core + copies[sent] | known[sent]
        )
    return count + injects


def _outcome(core: Core) -> OutcomeSignature:
    locker, user = core.locker, core.user
    locker_phase = locker.phase if locker else LockerPhase.IDLE
    opened = locker_phase is LockerPhase.OPEN
    return OutcomeSignature(
        locker_phase.value,
        locker.failure.value if locker and locker.failure else None,
        user.phase.value if user else None,
        user.failure.value if user and user.failure else None,
        opened,
        (core.auth_genuine, core.pk_genuine, core.ack_genuine) if opened else None,
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
    # an outcome depends only on the core: one signature per distinct outcome
    # of the interned cores. Only `_initial_state` and `deliver` intern one,
    # each for a state the search adds, so the interned cores are the visited
    # ones, in first-visit order, and so are the outcomes
    outcomes = list(dict.fromkeys(map(_outcome, tables.cores)))
    return Enumeration(
        outcomes=set(outcomes),
        states_explored=len(visited),
        transitions=transitions,
        violations=[
            sig for sig in outcomes
            if sig.locker_opened and sig.genuine != (True, True, True)
        ],
    )
