import hashlib
import os
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import pytest

from digilock import explore
from digilock.explore import (
    DepthExceeded,
    enumerate_small_traces,
)
from digilock.protocol import ACTOR_ADVERSARY, ACTOR_USER


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
    lines = "\n".join(sorted(repr(astuple(o)) for o in enum.outcomes))
    assert hashlib.sha256(lines.encode()).hexdigest() == pinned


@pytest.mark.parametrize("seed", [0, 7])
def test_memoised_delivery_equals_the_uncached_step(monkeypatch, seed):
    # the depth-5 search delivers from every state reached in four moves;
    # each delivery through its memo, read back through the interning
    # tables, must equal a fresh `_step` on the same core and frame, or the
    # memo or an interned id hands one state another state's successor.
    # In reachable states the origin and the genuine flags follow from the
    # other fields, so each delivery is also checked from the other origin
    # and with each flag flipped: a memo, frame or core key that leaves any
    # of them out then fails too
    deliver = explore._Tables.deliver
    calls = 0

    def check(tables, core, raw, origin, step):
        next_core, sent = step
        expected = explore._step(core, tables.world, raw, origin)
        got = (tables.cores[next_core], None if sent is None else tables.frames[sent])
        assert got == expected, (core, raw, origin)

    def checked(tables, core_id, frame_id):
        nonlocal calls
        calls += 1
        core = tables.cores[core_id]
        raw, origin = tables.frames[frame_id]
        other = ACTOR_ADVERSARY if origin == ACTOR_USER else ACTOR_USER
        variants = [(core, other)]
        for flag in ("auth_genuine", "pk_genuine", "ack_genuine"):
            variants.append((replace(core, **{flag: not getattr(core, flag)}), origin))
        for variant, sender in variants:
            step = deliver(tables, tables.core(variant), tables.frame((raw, sender)))
            check(tables, variant, raw, sender, step)
        step = deliver(tables, core_id, frame_id)
        check(tables, core, raw, origin, step)
        return step

    monkeypatch.setattr(explore._Tables, "deliver", checked)
    enumerate_small_traces(depth=5, seed=seed)
    assert calls > 10_000


def test_enumeration_is_deterministic():
    a = enumerate_small_traces(depth=4, seed=3)
    b = enumerate_small_traces(depth=4, seed=3)
    assert a.outcomes == b.outcomes
    assert a.states_explored == b.states_explored
    assert a.transitions == b.transitions


@pytest.mark.parametrize(
    "seed,pinned",
    [
        (0, "e3b7ec1ec6b5df027d44b6f3eef7d62917e1167de3ce18be23cff7e2fc3870bc"),
        (7, "727a172265cc40292317926744fc3d76fc0caefa0fbb8e769db668fd01d77f00"),
    ],
)
def test_recorded_prior_session_is_pinned(seed, pinned):
    # the adversary's starting knowledge: every frame of one honest session
    # and the party that sent it, byte for byte
    _, knowledge = explore._build_world(seed)
    assert hashlib.sha256(repr(sorted(knowledge)).encode()).hexdigest() == pinned
