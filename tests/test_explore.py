import gc
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from digilock import crypto, explore, protocol, sim
from digilock.explore import (
    DepthExceeded,
    enumerate_small_traces,
)
from digilock.protocol import ACTOR_ADVERSARY, ACTOR_LOCKER, ACTOR_PROVIDER, ACTOR_USER
from digilock.wire import Message, MessageKind, flip_field_bit


def test_explore_imports_neither_the_simulator_nor_the_store():
    # the model checker needs only the protocol, the wire format and crypto
    src = Path(explore.__file__).resolve().parents[1]
    code = (
        "import sys, digilock.explore; "
        "print(sorted({'digilock.sim', 'digilock.store'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_depth_zero_has_no_open():
    enum = enumerate_small_traces(depth=0, seed=0)
    assert enum.states_explored == 1
    assert not enum.opened
    assert enum.sound


def test_depth_cap_enforced():
    with pytest.raises(DepthExceeded):
        enumerate_small_traces(depth=9)


def test_negative_depth_is_refused():
    # a negative depth has no bound at all; the small budget only keeps a
    # search that does not check the depth from running for long
    with pytest.raises(ValueError, match="depth -1"):
        enumerate_small_traces(depth=-1, state_budget=1000)


def test_state_budget_enforced():
    with pytest.raises(DepthExceeded):
        enumerate_small_traces(depth=6, state_budget=50)


@pytest.mark.parametrize("seed", [0, 7])
def test_a_search_that_visits_its_whole_budget_completes(seed):
    # the budget is checked once per expanded state, and it bounds the
    # visited states: depth 6 visits 13,106, so that budget completes and
    # one less raises
    enum = enumerate_small_traces(depth=6, seed=seed, state_budget=13_106)
    assert enum.states_explored == 13_106 and enum.sound
    with pytest.raises(DepthExceeded, match="budget 13105"):
        enumerate_small_traces(depth=6, seed=seed, state_budget=13_105)


def test_shallow_depths_cannot_open():
    # auth, provider key, challenge, and ack each need a delivery: the
    # locker cannot open in fewer than four moves even with replays
    for depth in (1, 2, 3):
        enum = enumerate_small_traces(depth=depth, seed=0)
        assert enum.sound
        assert not enum.opened, depth


def test_depth_four_opens_only_with_genuine_material():
    # shortest opening schedule: the adversary replays the recorded
    # provider key instead of waiting for the request hop; that is still
    # both genuine keys plus genuine consent
    enum = enumerate_small_traces(depth=4, seed=0)
    assert enum.sound
    assert enum.opened
    for outcome in enum.opened:
        assert outcome.genuine == (True, True, True)


def test_depth_five_reaches_open_honestly():
    enum = enumerate_small_traces(depth=5, seed=0)
    assert enum.sound
    assert enum.opened
    for outcome in enum.opened:
        assert outcome.genuine == (True, True, True)


def test_adversary_only_never_opens():
    enum = enumerate_small_traces(depth=6, seed=0, include_honest_user=False)
    assert not enum.opened
    assert enum.sound
    # it does reach a challenge via the replayed auth request
    assert any(o.locker_phase == "challenge-sent" for o in enum.outcomes)


@pytest.mark.parametrize(
    "depth,include_honest_user,counts",
    [
        (4, True, (994, 3946)),
        (6, True, (13_106, 69_371)),
        (6, False, (393, 2408)),
        (7, True, (42_627, 267_092)),
    ],
)
def test_search_space_counts_are_pinned(depth, include_honest_user, counts):
    # the exact size of the searched space: a change to the model's
    # transitions that adds, drops or merges states shows up here
    enum = enumerate_small_traces(
        depth=depth, seed=0, include_honest_user=include_honest_user
    )
    assert (enum.states_explored, enum.transitions) == counts


@pytest.mark.parametrize(
    "include_honest_user,pinned",
    [
        (True, "dc31cc039b5703bc141d0d6e3c0620f6d456724317d275b56ca7ef9fea253586"),
        (False, "06f043190b03e001777f2f8c0dfba161a1dbce613d938c70b13b4022286846de"),
    ],
)
def test_depth_six_outcome_set_is_pinned(include_honest_user, pinned):
    # every distinct outcome the depth-6 search reaches, not only its size:
    # a change that keeps the counts but reaches other outcomes shows up here
    enum = enumerate_small_traces(depth=6, seed=0, include_honest_user=include_honest_user)
    lines = "\n".join(sorted(repr(tuple(o)) for o in enum.outcomes))
    assert hashlib.sha256(lines.encode()).hexdigest() == pinned


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "include_honest_user,counts", [(True, (13_106, 69_371)), (False, (393, 2408))]
)
def test_a_model_search_draws_no_system_entropy(monkeypatch, seed, include_honest_user, counts):
    # every nonce in the model comes from a seeded source: a transition handed
    # no nonce source that drew nonces would fall back to os.urandom, and the
    # memo and the search would differ from run to run
    def refuse(self, n):
        raise AssertionError(f"the model search drew {n} bytes of system entropy")

    monkeypatch.setattr(crypto.SystemRng, "take", refuse)
    enum = enumerate_small_traces(depth=6, seed=seed, include_honest_user=include_honest_user)
    assert (enum.states_explored, enum.transitions) == counts and enum.sound


def test_a_depth_six_search_decodes_no_frame(monkeypatch):
    # each frame gets its id with the message that sent, flipped or recorded
    # it, so the search parses no bytes back into a message
    decode, decoded = Message.decode.__func__, []

    def counted(cls, raw):
        decoded.append(raw)
        return decode(cls, raw)

    monkeypatch.setattr(Message, "decode", classmethod(counted))
    enumerate_small_traces(6, seed=0)
    assert decoded == []
    frame = protocol.PROVIDER_KEY_REQUEST.encode()
    assert Message.decode(frame) == protocol.PROVIDER_KEY_REQUEST and decoded == [frame]
    # a frame id is made only from a message in hand: a bare frame is refused
    tables = explore._Tables(protocol.seeded_world(0))
    with pytest.raises(TypeError):
        tables.frame((frame, ACTOR_LOCKER))
    assert tables.frames == [] and decoded == [frame]


def test_a_planted_ack_fault_is_reported_in_first_visit_order(monkeypatch):
    # a locker that accepts any ack opens on a bit-flipped one: the search
    # must report it, and its violations must be those of the per-core
    # signatures, in the order the search first reached their cores
    searched = []

    class Recorded(explore._Tables):
        def __init__(self, world):
            super().__init__(world)
            searched.append(self)

    def accept_any(session, msg, now):
        return session._replace(phase=protocol.LockerPhase.OPEN)

    monkeypatch.setattr(explore, "_Tables", Recorded)
    monkeypatch.setattr(protocol, "locker_verify_ack", accept_any)
    enum = enumerate_small_traces(depth=6, seed=0)
    [tables] = searched
    per_core = dict.fromkeys(map(explore._outcome, tables.cores))
    expected = [
        sig for sig in per_core if sig.locker_opened and sig.genuine != (True, True, True)
    ]
    assert enum.violations and not enum.sound
    assert enum.violations == expected
    assert enum.outcomes == set(per_core)
    assert all(sig.genuine == (True, True, False) for sig in enum.violations)


@pytest.mark.parametrize("seed", [0, 7])
def test_memoised_delivery_equals_the_uncached_step(monkeypatch, seed):
    # the depth-6 search delivers from every state reached in five moves;
    # each delivery it memoised in its core's row, and each inject memo,
    # read back through the interning tables, must equal the same delivery
    # on fresh tables with empty memos, or a row, party or inject memo or an
    # interned id hands one state another state's successor. In reachable
    # states the origin and the genuine flags follow from the other fields,
    # so each delivery is also checked from the other origin and with each
    # flag flipped: a memo, frame or core key that leaves any of them out
    # then fails too. Each pool's memoised moves must equal those decoded
    # straight from the pool int, and each party transition memo a fresh
    # call to that party's transition
    tables_type, searched = explore._Tables, []

    class Recorded(tables_type):
        def __init__(self, world):
            super().__init__(world)
            searched.append(self)

    monkeypatch.setattr(explore, "_Tables", Recorded)
    enumerate_small_traces(depth=6, seed=seed)
    [tables] = searched
    fresh_steps = {}  # by content: each reference step runs once

    def fresh(core, entry):
        key = (core, entry)
        if key not in fresh_steps:
            empty = tables_type(tables.world)
            next_core, sent = empty.deliver(
                empty.core(core), empty.frame(entry, Message.decode(entry[0]))
            )
            fresh_steps[key] = (
                empty.cores[next_core], None if sent is None else empty.frames[sent]
            )
        return fresh_steps[key]

    def read(step):
        next_core, sent = step
        return tables.cores[next_core], None if sent is None else tables.frames[sent]

    # taken before the variants below add cores, frames and row entries
    memoised = [
        (core_id, frame_id, step)
        for core_id, row in enumerate(tables.rows)
        for frame_id, step in row.items()
    ]
    injects = list(tables.injects.items())
    # 1,249 inject entries: 143 cores with no known frame, the keys the search
    # reads, and their one-frame-smaller neighbours that no state has
    assert len(memoised) >= 1_608 and len(injects) >= 1_249
    assert len(tables.pool_moves) >= 736 and len(tables.transitions) >= 192
    for core_id, frame_id, step in memoised:
        core = tables.cores[core_id]
        raw, origin = tables.frames[frame_id]
        assert read(step) == fresh(core, (raw, origin)), (core, raw)
        other = ACTOR_ADVERSARY if origin == ACTOR_USER else ACTOR_USER
        variants = [(core, other)]
        for flag in ("auth_genuine", "pk_genuine", "ack_genuine"):
            variants.append((core._replace(**{flag: not getattr(core, flag)}), origin))
        for variant, sender in variants:
            step = tables.deliver(
                tables.core(variant), tables.frame((raw, sender), Message.decode(raw))
            )
            assert read(step) == fresh(variant, (raw, sender))
    for key, (moves, changes) in injects:
        core_id, pending, known = _decode(tables, key)
        assert not pending, key  # keyed on the core id and the known bits only
        core = tables.cores[core_id]
        expected = [fresh(core, tables.frames[f]) for f in known]
        assert moves == len(known)
        assert [read(step) for step in changes] == [
            step for step in expected if step != (core, None)
        ]
    cap = explore._DUP_CAP
    for pool, (count, moves) in tables.pool_moves.items():
        core_id, pending, known = _decode(tables, pool)
        assert core_id == 0 and not known, pool  # keyed on the counts only
        expected, total = [], 0
        for frame_id in sorted(set(pending)):
            copies = pending.count(frame_id)
            msg = Message.decode(tables.frames[frame_id][0])
            flips = [
                (flip_field_bit(msg, i).encode(), ACTOR_ADVERSARY)
                for i in range(len(msg.fields))
            ]
            removed = list(pending)
            removed.remove(frame_id)
            doubled = sorted(pending + [frame_id]) if copies < cap else None
            expected.append((frame_id, removed, doubled, flips))
            total += 2 + (copies < cap) + len(flips)
        assert count == total, pool
        # each move's copy, taken from or added to the pool, is one copy of
        # that frame and nothing else
        assert [
            (
                frame_id,
                _decode(tables, pool - copy)[1],
                _decode(tables, pool + copy)[1] if doubles else None,
                [tables.frames[bad] for bad in flips],
            )
            for frame_id, copy, doubles, flips in moves
        ] == expected, pool
    # each entry was built from its one-frame-smaller neighbour, the key
    # without its highest frame, which is memoised too: the neighbour's entry
    # plus the top frame's delivery (inject) or part (pool moves)
    for key, entry in injects:
        core_id, _, known = _decode(tables, key)
        if not known:
            assert entry == (0, ()), key
            continue
        top = known[-1]
        count, changes = tables.injects[key ^ tables.known[top]]
        step = tables.rows[core_id][top]
        if step != (core_id, None):
            changes += (step,)
        assert entry == (count + 1, changes), key
    for pool, entry in tables.pool_moves.items():
        _, pending, _ = _decode(tables, pool)
        if not pending:
            assert entry == (0, ()), pool
            continue
        top, copy = pending[-1], tables.copies[pending[-1]]
        copies, flips = pending.count(top), tables.flips[top]
        count, moves = tables.pool_moves[pool - copies * copy]
        part = (top, copy, copies < cap, flips)
        assert entry == (count + 2 + (copies < cap) + len(flips), moves + (part,)), pool
    world = tables.world
    for key, (session, sent) in tables.transitions.items():
        party, *read_by, frame_id = key
        msg = tables.messages[frame_id]
        if party == ACTOR_PROVIDER:
            assert read_by == [] and session is None
            reply = protocol.provider_on_message(world.provider_key, msg)
        elif party == ACTOR_USER:
            [user] = read_by
            fresh_session, reply = protocol.user_on_message(
                user, world.user_id, world.user_key, world.phrase, msg
            )
            assert session == fresh_session, key
        elif read_by == []:  # an auth request, keyed on the frame alone
            assert party == ACTOR_LOCKER and msg.kind is MessageKind.AUTH_REQUEST, key
            fresh_session, reply = protocol.locker_on_message(
                world.records, world.h_r, None, msg, now=0
            )
            assert session == fresh_session, key
        else:
            locker, serial = read_by
            fresh_session, reply = protocol.locker_on_message(
                world.records, world.h_r, locker, msg, now=0,
                rng=explore._nonces(world.seed, ACTOR_LOCKER, serial),
            )
            assert party == ACTOR_LOCKER and session == fresh_session, key
        assert (None if sent is None else tables.frames[sent]) == (
            None if reply is None else (reply.encode(), party)
        ), key


@pytest.mark.parametrize("seed", [0, 7])
def test_each_memoised_delivery_equals_the_party_transition(monkeypatch, seed):
    # every delivery a depth-6 search kept in its rows, against a direct call
    # of the receiving party's transition in `protocol` on the core's own
    # session, with no memo, `_step` or `deliver` in between: the next
    # sessions and the sent frame must match, so a memo key that leaves out
    # what a transition reads, such as the locker's slot under a refused auth
    # request, fails here
    searched = []

    class Recorded(explore._Tables):
        def __init__(self, world):
            super().__init__(world)
            searched.append(self)

    monkeypatch.setattr(explore, "_Tables", Recorded)
    enumerate_small_traces(depth=6, seed=seed)
    [tables] = searched
    world, checked = tables.world, 0
    for core, row in zip(tables.cores, tables.rows):
        for frame_id, (next_id, sent) in row.items():
            msg = Message.decode(tables.frames[frame_id][0])
            locker, user = core.locker, core.user
            if msg.kind is MessageKind.PROVIDER_KEY_REQUEST:
                party, reply = ACTOR_PROVIDER, protocol.provider_on_message(
                    world.provider_key, msg
                )
            elif msg.kind in protocol.TO_USER:
                party, reply = ACTOR_USER, None
                if user is not None:
                    user, reply = protocol.user_on_message(
                        user, world.user_id, world.user_key, world.phrase, msg
                    )
            else:
                party = ACTOR_LOCKER
                locker, reply = protocol.locker_on_message(
                    world.records, world.h_r, locker, msg, now=0,
                    rng=explore._nonces(seed, ACTOR_LOCKER, core.serial),
                )
            following = tables.cores[next_id]
            assert (following.locker, following.user) == (locker, user), (core, msg)
            assert (None if sent is None else tables.frames[sent]) == (
                None if reply is None else (reply.encode(), party)
            ), (core, msg)
            checked += 1
    assert checked == 1_608


def test_an_entry_holding_every_frame_of_a_depth_eight_search_builds_on_empty_memos(
    monkeypatch,
):
    # an entry is built from its one-frame-smaller neighbour, one call per
    # frame missing from the memo: on fresh tables, a pool pending one copy of
    # every frame the depth-8 search interned and a key knowing them all must
    # build in one call each, through every smaller neighbour, and equal the
    # entries read straight from the frames
    searched = []

    class Recorded(explore._Tables):
        def __init__(self, world):
            super().__init__(world)
            searched.append(self)

    monkeypatch.setattr(explore, "_Tables", Recorded)
    enumerate_small_traces(depth=8, seed=0)
    [tables] = searched
    frames = list(tables.frames)
    count = len(frames)
    assert count >= 38
    for core in (tables.cores[0], tables.cores[-1]):
        fresh = explore._Tables(tables.world)
        for entry in frames:
            fresh.frame(entry, Message.decode(entry[0]))
        core_id = fresh.core(core)
        moves, changes = fresh.inject(core_id | sum(fresh.known))
        steps = [fresh.deliver(core_id, frame_id) for frame_id in range(count)]
        assert moves == count
        assert changes == tuple(step for step in steps if step != (core_id, None))
        assert len(fresh.injects) == count + len(fresh.cores)  # each neighbour too
        total, pool_moves = fresh.moves(sum(fresh.copies[:count]))
        expected = []
        for frame_id, (raw, _) in enumerate(frames):
            msg = Message.decode(raw)
            flips = [
                (flip_field_bit(msg, i).encode(), ACTOR_ADVERSARY)
                for i in range(len(msg.fields))
            ]
            expected.append((frame_id, fresh.copies[frame_id], True, flips))
        assert [
            (frame_id, copy, doubles, [fresh.frames[bad] for bad in flips])
            for frame_id, copy, doubles, flips in pool_moves
        ] == expected
        assert total == sum(3 + len(flips) for *_, flips in expected)
        assert len(fresh.pool_moves) == count + 1  # and the empty pool


def test_search_shape_does_not_depend_on_the_seed():
    # the seed changes the bytes in the messages, not which moves exist:
    # the benchmark checks every seed's search against one pinned pair
    counts = set()
    for seed in (0, 1, 1000, 3000):
        enum = enumerate_small_traces(depth=5, seed=seed)
        counts.add((enum.states_explored, enum.transitions))
    assert len(counts) == 1, counts


def test_a_core_is_immutable_and_interns_by_its_fields():
    # equal cores built apart are one core to the search's tables, and no
    # field of an interned core can change under its id
    world, _ = explore._build_world(0)
    cores = []
    for _ in range(2):
        _, user = protocol.user_begin_session(
            world.user_id, world.user_key, rng=explore._nonces(0, ACTOR_USER, 1)
        )
        cores.append(explore.Core(locker=None, user=user, serial=1))
    core, twin = cores
    assert core.user is not twin.user
    assert core == twin and hash(core) == hash(twin)
    assert core != core._replace(pk_genuine=True)
    tables = explore._Tables(world)
    assert tables.core(core) == tables.core(twin) == 0
    for name in core._fields:
        with pytest.raises(AttributeError):
            setattr(core, name, None)


def _decode(tables, state):
    """A state int read slot by slot: its core id, each pending frame id as
    often as its count says, in frame-id order, and the known frame ids."""
    bits, slot, width = tables.core_bits, explore._SLOT, explore._SLOT + 1
    pending, known = [], []
    for frame_id in range(len(tables.frames)):
        field = state >> bits + width * frame_id & (1 << width) - 1
        pending += [frame_id] * (field & (1 << slot) - 1)
        if field >> slot:
            known.append(frame_id)
    # no bit above the last interned frame's slot
    assert state >> bits + width * len(tables.frames) == 0, state
    return state & (1 << bits) - 1, pending, known


@pytest.mark.parametrize("seed,include_honest_user", [(0, True), (7, False)])
def test_the_interned_cores_are_the_visited_ones_in_first_visit_order(
    monkeypatch, seed, include_honest_user
):
    # the outcome pass reads the search's interned cores, not its visited
    # states: every core interned must be the core of a visited state, and
    # core ids must follow the order in which the search first reached them
    expand, searched, reached = explore._expand, [], []

    def recorded(tables, state, add):
        if not searched:
            searched.append(tables)
            reached.append(state)  # the initial state, expanded first

        def kept(successor):
            reached.append(successor)
            return add(successor)

        return expand(tables, state, kept)

    monkeypatch.setattr(explore, "_expand", recorded)
    enumerate_small_traces(depth=6, seed=seed, include_honest_user=include_honest_user)
    [tables] = searched
    first_visits = dict.fromkeys(state & tables.core_mask for state in reached)
    assert list(first_visits) == list(range(len(tables.cores)))


def test_a_core_id_that_outgrows_its_field_stops_the_search(monkeypatch):
    # depth 6 reaches 143 cores: a 7-bit core field (128 ids) must stop the
    # search rather than let core 128 carry into the first frame's count and
    # alias another state; an 8-bit field holds them all and counts exactly
    monkeypatch.setattr(explore, "_CORE_BITS", 7)
    with pytest.raises(DepthExceeded, match="7-bit"):
        enumerate_small_traces(depth=6, seed=0)
    monkeypatch.setattr(explore, "_CORE_BITS", 8)
    enum = enumerate_small_traces(depth=6, seed=0)
    assert (enum.states_explored, enum.transitions) == (13_106, 69_371)


def _reference_search(seed, depth):
    """The search with a sorted tuple of frame ids as the pending pool and
    every move spelled out, one level at a time. Each delivery runs `_step`
    on fresh tables, once per (core, frame) interned here. Returns each
    depth's (states, transitions, outcomes, violations) and the states in
    first-visit order, by content, each with how many moves it has."""
    world, old_knowledge = explore._build_world(seed)
    frames, frame_ids, cores, core_ids, steps = [], {}, [], {}, {}

    def intern(ids, values, value):
        if value not in ids:
            ids[value] = len(values)
            values.append(value)
        return ids[value]

    def deliver(core_id, frame_id):
        if (core_id, frame_id) not in steps:
            empty = explore._Tables(world)
            next_core, sent = empty.deliver(
                empty.core(cores[core_id]),
                empty.frame(frames[frame_id], Message.decode(frames[frame_id][0])),
            )
            steps[core_id, frame_id] = (
                intern(core_ids, cores, empty.cores[next_core]),
                None if sent is None else intern(frame_ids, frames, empty.frames[sent]),
            )
        return steps[core_id, frame_id]

    def successors(core_id, pending, knowledge):
        out = []

        def land(frame_id, pool):
            next_core, sent = deliver(core_id, frame_id)
            if sent is None:
                out.append((next_core, pool, knowledge))
            else:
                grown = tuple(sorted(pool + (sent,)))
                out.append((next_core, grown, knowledge | 1 << sent))

        for index, frame_id in enumerate(pending):
            if index and pending[index - 1] == frame_id:
                continue
            removed = pending[:index] + pending[index + 1:]
            land(frame_id, removed)
            out.append((core_id, removed, knowledge))
            if pending.count(frame_id) < explore._DUP_CAP:
                doubled = pending[:index] + (frame_id,) + pending[index:]
                out.append((core_id, doubled, knowledge))
            msg = Message.decode(frames[frame_id][0])
            flips = [  # all interned before any is delivered
                intern(frame_ids, frames, (flip_field_bit(msg, i).encode(), ACTOR_ADVERSARY))
                for i in range(len(msg.fields))
            ]
            for bad in flips:
                land(bad, removed)
        for frame_id in range(knowledge.bit_length()):
            if knowledge >> frame_id & 1:
                land(frame_id, pending)
        return out

    knowledge = 0
    for entry in sorted(old_knowledge):
        knowledge |= 1 << intern(frame_ids, frames, entry)
    auth, user = protocol.user_begin_session(
        world.user_id, world.user_key, rng=explore._nonces(seed, ACTOR_USER, 1)
    )
    auth_id = intern(frame_ids, frames, (auth.encode(), ACTOR_USER))
    initial = (
        intern(core_ids, cores, explore.Core(locker=None, user=user, serial=1)),
        (auth_id,),
        knowledge | 1 << auth_id,
    )
    visited, frontier, transitions, levels = {initial: None}, [initial], 0, []
    for level in range(depth + 1):
        outcomes = dict.fromkeys(explore._outcome(cores[c]) for c, _, _ in visited)
        violations = [
            o for o in outcomes if o.locker_opened and o.genuine != (True, True, True)
        ]
        levels.append((len(visited), transitions, set(outcomes), violations))
        if level == depth:
            break
        next_frontier = []
        for state in frontier:
            for nxt in successors(*state):
                transitions += 1
                if nxt not in visited:
                    visited[nxt] = None
                    next_frontier.append(nxt)
        frontier = next_frontier

    def content(state):
        core_id, pending, known = state
        return _content(cores[core_id], [frames[f] for f in pending], frames, known)

    return levels, [(content(state), len(successors(*state))) for state in visited]


def _content(core, pending, frames, knowledge):
    bits = range(knowledge.bit_length())
    return core, tuple(sorted(pending)), frozenset(frames[f] for f in bits if knowledge >> f & 1)


@pytest.mark.parametrize("seed,depth", [(0, 5), (3, 5), (7, 5), (11, 5), (0, 6)])
def test_search_equals_the_tuple_pool_reference(monkeypatch, seed, depth):
    # the same counts, outcomes and violations at every depth up to `depth`,
    # and the same states in the same first-visit order, each with as many
    # moves as the reference spells out, compared by content since the two
    # searches number frames and cores apart. Every state expanded is an int,
    # which the cyclic garbage collector does not track
    levels, reference_order = _reference_search(seed, depth)
    expand = explore._expand
    expanded = []

    def recorded(tables, state, add):
        assert type(state) is int and not gc.is_tracked(state), state
        core_id, pending, known = _decode(tables, state)
        knowledge = sum(1 << f for f in known)
        moves = expand(tables, state, add)
        expanded.append((
            _content(tables.cores[core_id], [tables.frames[f] for f in pending],
                     tables.frames, knowledge),
            moves,
        ))
        return moves

    monkeypatch.setattr(explore, "_expand", recorded)
    for d, (states, transitions, outcomes, violations) in enumerate(levels):
        enum = enumerate_small_traces(depth=d, seed=seed)
        assert (enum.states_explored, enum.transitions) == (states, transitions), d
        assert enum.outcomes == outcomes, d
        assert enum.violations == violations, d
        # a search one move deeper expands, in first-visit order, exactly
        # the states this one visits
        expanded.clear()
        enumerate_small_traces(depth=d + 1, seed=seed)
        assert expanded == reference_order[:states], d


def test_enumeration_is_deterministic():
    a = enumerate_small_traces(depth=4, seed=3)
    b = enumerate_small_traces(depth=4, seed=3)
    assert a.outcomes == b.outcomes
    assert a.states_explored == b.states_explored
    assert a.transitions == b.transitions


@pytest.mark.parametrize(
    "seed,pinned",
    [
        (0, "7dbc1644e6a948fe9deddff0376d4c4491c33f8c0ead075448c2eee0562a1acd"),
        (7, "50183214a877864f3d4197367c16d559c5d871af00e78c493561f807ae150366"),
    ],
)
def test_recorded_prior_session_is_pinned(seed, pinned):
    # the adversary's starting knowledge: every frame of one honest session
    # and the party that sent it, byte for byte
    _, knowledge = explore._build_world(seed)
    assert hashlib.sha256(repr(sorted(knowledge)).encode()).hexdigest() == pinned


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_the_prior_session_is_the_simulated_honest_scenario(seed):
    # the model runs in the simulator's world: the adversary knows exactly
    # the frames the honest scenario's parties send, each with its sender
    _, knowledge = explore._build_world(seed)
    _, trace = sim.run_scenario(sim.ScenarioSpec("honest", seed))
    sends = {(step.payload_sha256, step.origin) for step in trace.steps
             if step.sender == step.origin}
    assert len(sends) == len(knowledge) == 6
    assert {(hashlib.sha256(frame).hexdigest(), sender) for frame, sender in knowledge} == sends
