import hashlib
import json

import pytest

from digilock import protocol, sim, wire
from digilock.crypto import SecretKey, SeededRng
from digilock.sim import (
    HONEST_KIND_SEQUENCE,
    Credentials,
    ScenarioOutcome,
    ScenarioSpec,
    Simulation,
    Trace,
    UserActor,
    outcome_matches_expectation,
    run_honest_session,
    run_impersonation_scenario,
    run_replay_scenario,
    run_repudiation_scenario,
    run_scenario,
    run_tamper_scenario,
    seed_world,
)
from digilock.wire import Message, MessageKind


def test_honest_session_opens_with_canonical_sequence():
    outcome, trace = run_honest_session(seed=7)
    assert outcome.locker_opened
    assert outcome.locker_phase == "open"
    assert outcome.user_phase == "done"
    assert outcome.failure_reason is None
    assert trace.kind_sequence() == HONEST_KIND_SEQUENCE


def test_honest_runs_distinct_nonces_same_shape():
    _, trace_a = run_honest_session(seed=1)
    _, trace_b = run_honest_session(seed=2)
    assert trace_a.kind_sequence() == trace_b.kind_sequence()
    digests_a = [s.payload_sha256 for s in trace_a.steps]
    digests_b = [s.payload_sha256 for s in trace_b.steps]
    assert digests_a != digests_b  # fresh nonces change every payload


def test_trace_determinism_for_fixed_seed():
    _, trace_a = run_honest_session(seed=99)
    _, trace_b = run_honest_session(seed=99)
    assert trace_a.to_jsonl() == trace_b.to_jsonl()
    for name in sim.SCENARIO_NAMES:
        spec = ScenarioSpec(scenario=name, seed=5)
        _, first = run_scenario(spec)
        _, second = run_scenario(spec)
        assert first.to_jsonl() == second.to_jsonl(), name


def test_trace_jsonl_shape():
    _, trace = run_honest_session(seed=3)
    lines = trace.to_jsonl().splitlines()
    assert len(lines) == len(trace.steps)
    keys = ["t", "sender", "receiver", "origin", "kind", "payload_sha256", "verdict"]
    for line, record in zip(lines, trace.steps):
        step = json.loads(line)
        assert list(step) == list(record.to_json()) == keys
        assert record.to_json() == {key: getattr(record, key) for key in keys}
        assert step["verdict"] in ("delivered", "modified", "replayed")


def test_honest_session_frames_each_message_once(monkeypatch):
    # Message.encode is the only caller of wire.encode_fields, so counting the
    # calls through that module name counts frames built
    framed, encoded = [], []
    real_fields, real_encode = wire.encode_fields, Message.encode

    def counting_fields(fields):
        framed.append(tuple(fields))
        return real_fields(fields)

    def recording_encode(msg):
        encoded.append(msg)
        return real_encode(msg)

    monkeypatch.setattr(wire, "encode_fields", counting_fields)
    monkeypatch.setattr(Message, "encode", recording_encode)
    registry, creds, provider_key = seed_world(5)
    run = sim.drive_session(
        registry, creds, provider_key,
        rng_user=SeededRng(5, b"user"), rng_locker=SeededRng(5, b"locker"),
    )
    assert run.trace.kind_sequence() == HONEST_KIND_SEQUENCE
    assert len(run.trace.steps) == 10
    digests = [s.payload_sha256 for s in run.trace.steps]
    assert len(digests) == 10 and all(len(d) == 64 for d in digests)
    # one encode per hop; the four relay hops reuse the frame of the hop before
    assert len(encoded) == 10
    distinct = list({id(m): m for m in encoded}.values())
    assert len(distinct) == 6 and len(set(digests)) == 6
    # the two constant replies were framed when protocol was imported; each
    # of the four messages built in the session is framed once, here
    constants = (protocol.PROVIDER_KEY_REQUEST, protocol.RESULT_OPEN)
    built = [m for m in distinct if not any(m is c for c in constants)]
    assert len(built) == 4
    assert sorted(framed) == sorted(m.fields for m in built)
    for msg in constants:
        before = len(framed)
        msg.encode()
        assert len(framed) == before


def test_trace_contains_no_secret_bytes():
    registry, creds, provider_key = seed_world(11)
    _, trace = run_honest_session(seed=11)
    raw = trace.to_jsonl().encode()
    for secret in (bytes(creds.key), bytes(provider_key)):
        assert secret not in raw
        assert secret.hex().encode() not in raw


def test_no_hop_bypasses_provider():
    for name in sim.SCENARIO_NAMES:
        _, trace = run_scenario(ScenarioSpec(scenario=name, seed=4))
        for step in trace.steps:
            assert {step.sender, step.receiver} != {"user", "locker"}, name


def test_simulation_rejects_direct_user_locker_channel():
    simulation = Simulation({}, trace=Trace())
    msg = Message(MessageKind.RESULT, (b"open",))
    with pytest.raises(ValueError):
        simulation.post("user", "locker", msg, "user")
    with pytest.raises(ValueError):
        simulation.post("locker", "user", msg, "locker")


def test_repudiation_wrong_user_key():
    outcome, _ = run_repudiation_scenario("wrong-user-key", seed=21)
    assert not outcome.locker_opened
    assert outcome.failure_reason == "bad-user-key"
    assert outcome.user_failure == "bad-user-key"


def test_repudiation_wrong_provider_key():
    outcome, _ = run_repudiation_scenario("wrong-provider-key", seed=21)
    assert not outcome.locker_opened
    assert outcome.failure_reason == "bad-provider-key"


def test_repudiation_control_opens():
    outcome, _ = run_honest_session(seed=21)
    assert outcome.locker_opened


def test_repudiation_unknown_variant():
    with pytest.raises(ValueError):
        run_repudiation_scenario("wrong-everything", seed=1)


def test_replay_scenario_end_to_end():
    outcome, trace = run_replay_scenario(seed=13)
    assert not outcome.locker_opened
    assert outcome.failure_reason == "timeout"
    assert outcome.adversary_failure == "challenge-auth-failure"
    # the replayed auth request was accepted: a second challenge was issued
    replay_index = next(
        i for i, s in enumerate(trace.steps) if s.verdict == "replayed"
    )
    later_kinds = [s.kind for s in trace.steps[replay_index:]]
    assert "challenge" in later_kinds
    challenges = [s for s in trace.steps if s.kind == "challenge"]
    assert len(challenges) >= 2  # honest session's and the replay session's


def test_impersonation_scenario_end_to_end():
    outcome, trace = run_impersonation_scenario(seed=17)
    assert not outcome.locker_opened
    assert outcome.failure_reason == "timeout"
    assert outcome.adversary_failure == "challenge-auth-failure"
    assert outcome.user_phase == "awaiting-challenge"  # challenge never arrived
    kinds = [s.kind for s in trace.steps]
    assert "challenge" in kinds  # locker did send it; the rogue seat ate it
    # control: same seed, honest provider
    control, _ = run_honest_session(seed=17)
    assert control.locker_opened


@pytest.mark.parametrize(
    "target,expected_failure,expected_user",
    [
        ("prf-field", "bad-user-key", "bad-user-key"),
        ("challenge-body", "timeout", "challenge-auth-failure"),
        ("ack-digest", "bad-ack", "bad-ack"),
    ],
)
def test_tamper_scenarios(target, expected_failure, expected_user):
    outcome, trace = run_tamper_scenario(target, seed=23)
    assert not outcome.locker_opened
    assert outcome.failure_reason == expected_failure
    assert outcome.user_failure == expected_user
    assert any(s.verdict == "modified" for s in trace.steps)


def test_tamper_challenge_bit_sweep():
    # any single flipped bit in the sealed challenge must sink the session
    registry, creds, provider_key = seed_world(29)
    for bit in (0, 7, 8, 101, 303, 511):
        tap = sim.TamperTap(MessageKind.CHALLENGE, 0, bit)
        run = sim.drive_session(
            registry, creds, provider_key,
            rng_user=SeededRng(29, b"user"), rng_locker=SeededRng(29, b"locker"),
            taps={(protocol.ACTOR_PROVIDER, protocol.ACTOR_USER): tap},
        )
        assert tap.done, bit
        session = run.locker.session_for(creds.user_id)
        assert session.phase is protocol.LockerPhase.FAILED, bit
        assert session.failure is protocol.FailureReason.TIMEOUT, bit
        assert run.user.session.failure is protocol.FailureReason.CHALLENGE_AUTH_FAILURE, bit


def test_tamper_unknown_target():
    with pytest.raises(ValueError):
        run_tamper_scenario("length-field", seed=1)


def test_scenario_spec_json_round_trip():
    spec = ScenarioSpec(scenario="tamper", seed=9, variant="ack-digest")
    again = ScenarioSpec(**json.loads(json.dumps(spec.to_json())))
    assert again == spec
    defaults = ScenarioSpec("honest")
    assert defaults.seed == 0
    with pytest.raises(ValueError):
        ScenarioSpec(scenario="meltdown")
    with pytest.raises(TypeError):  # every driver waits protocol.DEFAULT_TIMEOUT_MS
        ScenarioSpec("honest", timeout_ms=5)
    for name in ("honest", "replay", "repudiation-user"):
        with pytest.raises(ValueError):
            ScenarioSpec(scenario=name, variant="prf-field")


def test_a_default_variant_is_named_in_the_spec():
    # the default tamper row flips the challenge body: its spec names that
    # row, so a printed spec says which row ran and equal runs compare equal
    spec = ScenarioSpec("tamper", seed=3)
    assert spec.variant == "challenge-body"
    assert spec == ScenarioSpec("tamper", 3, "challenge-body")
    assert spec.to_json() == {"scenario": "tamper", "seed": 3, "variant": "challenge-body"}
    assert ScenarioSpec(**spec.to_json()) == spec
    (outcome, trace), (named, named_trace) = (
        run_scenario(s) for s in (spec, ScenarioSpec("tamper", 3, "challenge-body"))
    )
    assert (outcome, trace.to_jsonl()) == (named, named_trace.to_jsonl())
    for name in ("honest", "replay", "repudiation-user"):
        assert ScenarioSpec(name).variant is None


def test_outcome_matches_expectation():
    for name in sim.SCENARIO_NAMES:
        spec = ScenarioSpec(scenario=name, seed=31)
        outcome, _ = run_scenario(spec)
        assert outcome_matches_expectation(spec, outcome), name
    honest = ScenarioSpec(scenario="honest", seed=31)
    denied = ScenarioOutcome(
        scenario="honest",
        locker_phase="failed",
        user_phase="failed",
        locker_opened=False,
        failure_reason="bad-user-key",
    )
    assert not outcome_matches_expectation(honest, denied)


def test_outcome_opened_iff_open_phase():
    for name in sim.SCENARIO_NAMES:
        outcome, _ = run_scenario(ScenarioSpec(scenario=name, seed=37))
        assert outcome.locker_opened == (outcome.locker_phase == "open"), name


def test_adversary_knowledge_excludes_secrets():
    # a tap on the user<->provider wire records frames, never key material:
    # keys cross only the provider<->locker edge (R) or no wire at all (K_i)
    from digilock.crypto import SeededRng as _SeededRng
    from digilock.sim import RecordingTap, drive_session

    registry, creds, provider_key = seed_world(53)
    knowledge = []
    tap = RecordingTap(knowledge)
    drive_session(
        registry,
        creds,
        provider_key,
        rng_user=_SeededRng(53, b"user"),
        rng_locker=_SeededRng(53, b"locker"),
        taps={("user", "provider"): tap, ("provider", "user"): tap},
    )
    assert knowledge  # the wiretap saw the session
    blob = b"".join(m.encode() for m in knowledge)
    assert bytes(creds.key) not in blob
    assert bytes(provider_key) not in blob


def test_replayed_auth_pair_accepted_by_default():
    # by default the stale defense is downstream, at the ack deadline:
    # the exact recorded (PRF, nonce) pair re-verifies fine
    from digilock import protocol

    registry, creds, provider_key = seed_world(41)
    auth, _ = protocol.user_begin_session(creds.user_id, creds.key)
    records = registry.records
    assert protocol.locker_verify_auth(records, auth).phase.value == "user-verified"
    assert protocol.locker_verify_auth(records, auth).phase.value == "user-verified"


def test_locker_refuses_a_blob_resealed_with_two_fields():
    # anyone holding the registry can reseal alice's blob under
    # L = d_u xor h(R); one that opens to two fields is a refused session
    from digilock import protocol
    from digilock.crypto import seal
    from digilock.sim import drive_session
    from digilock.wire import encode_fields

    registry, creds, provider_key = seed_world(43)
    record = registry.records[creds.user_id]
    key_l = protocol.locker_key(record.d_u, registry.h_r)
    fields = encode_fields([creds.phrase.encode(), bytes(creds.key)])
    registry.records[creds.user_id] = record._replace(sealed=seal(key_l, fields))
    run = drive_session(registry, creds, provider_key)
    session = run.locker.session_for(creds.user_id)
    assert session.phase is protocol.LockerPhase.FAILED
    assert session.failure is protocol.FailureReason.BLOB_AUTH_FAILURE
    assert run.user.session.failure is protocol.FailureReason.BLOB_AUTH_FAILURE
    assert run.trace.kind_sequence()[-1] == "error"


def test_user_actor_ignores_stray_messages():
    creds = Credentials("alice", SecretKey(b"k"), "p")
    actor = UserActor(creds, rng=SeededRng(1))
    actor.begin()
    # a result before any ack is meaningless and must not flip the state
    out = actor.handle(Message(MessageKind.RESULT, (b"open",)), "locker", 0)
    assert out == []
    assert actor.session.phase.value == "awaiting-challenge"


# sha256 of the trace's JSON lines followed by the outcome's sorted JSON, for
# every scenario and tamper variant: any change to a message byte, a hop, a
# verdict or a terminal state changes the digest
PINNED_RUNS = {
    ("honest", None, 0): "8a29449501c8b1626e33b69d25ef635863acf8e4355874e60fad521a1c2cf766",
    ("replay", None, 0): "48e7924016b37d3e69e61111132adaa8ff494e5b78cf4d513bea518948dcc44a",
    ("impersonation", None, 0): "8150c5acc23e293897140289b543c44a1f49ce46c2b5645eee1936982b13a945",
    ("repudiation-user", None, 0): "8d79322dbd34bc35bd47cda349fba66d2497687b99ff46d10775da941a52847c",
    ("repudiation-provider", None, 0): "70289844149a90914fc8f481a63bfa696d6c84e3034899d279d9612abce66a8e",
    ("tamper", "prf-field", 0): "0340e5e838c1c67439cb6371d22e30a66be849995f8012bb5cc5bf598b8d2891",
    ("tamper", "challenge-body", 0): "12aab48d61ff5b88f24d39402e7bf48906b5a3989d50fd42e34e7ba2e8acc7a8",
    ("tamper", "ack-digest", 0): "c4957e6d0633849ed78faf4aea65f2a9f64f186e73634603c16ae00c944b10e4",
    ("honest", None, 7): "7a9214fc61ccc0e043e313bed246d6e81323b302eb5fe1b001057f13762aed14",
    ("replay", None, 7): "1f01ab7397701ecf805afa1b0a2fbbd6962c4b0e4f07cd2a8b81cc9150230d31",
    ("impersonation", None, 7): "f26572a02310c33582b61e875c50ac8b614162b6931d4da12d3d384b0dc59a49",
    ("repudiation-user", None, 7): "494384c41d1f4c7f3d4831036b7451c22095410fe6a27a8354f1ca68508fc3d6",
    ("repudiation-provider", None, 7): "3b80384615a88c4a536b16a5fc90fbe9619632e8967ac4f1271f3b46f8461f3c",
    ("tamper", "prf-field", 7): "b2b497e89b7c285b5c3a422d05aba1b99c077ebd3742f245e406de2bc341d385",
    ("tamper", "challenge-body", 7): "7278e2c781592e506ee08076ab7ec1e30baf7f68d071e3dc59f91b919a0e3234",
    ("tamper", "ack-digest", 7): "3f338eaf26a9464cccf74633169c84911de535adf25a8bc8d10ea9f70b8f9e90",
}


@pytest.mark.parametrize("scenario,variant,seed", sorted(PINNED_RUNS, key=str))
def test_seeded_runs_are_pinned(scenario, variant, seed):
    spec = ScenarioSpec(scenario=scenario, seed=seed, variant=variant)
    outcome, trace = run_scenario(spec)
    blob = trace.to_jsonl() + json.dumps(outcome.to_json(), sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    assert digest == PINNED_RUNS[scenario, variant, seed]


def _alice_open_and_bob_registered(seed):
    registry, creds, provider_key = seed_world(seed)
    bob = Credentials("bob", SecretKey(b"bob key material"), "bob phrase")
    registry.register(bob.user_id, bob.key, bob.phrase, rng=SeededRng(seed, b"bob"))
    run = sim.drive_session(registry, creds, provider_key)
    assert run.locker.session_for("alice").phase is protocol.LockerPhase.OPEN
    return run, bob, provider_key


def test_a_second_users_auth_request_replaces_the_one_session():
    # the locker holds one session, as run_session and the model do
    run, bob, _ = _alice_open_and_bob_registered(5)
    auth, _ = protocol.user_begin_session(bob.user_id, bob.key)
    out = run.locker.handle(auth, protocol.ACTOR_USER, run.sim.now + 1)
    assert [msg.kind for _, msg, _ in out] == [MessageKind.PROVIDER_KEY_REQUEST]
    assert run.locker.session_for("alice") is None
    assert run.locker.session_for("bob").phase is protocol.LockerPhase.USER_VERIFIED


def test_one_locker_runs_sequential_sessions_of_two_users():
    # after alice's session, bob's opens on the same locker under his record
    run, bob, provider_key = _alice_open_and_bob_registered(6)
    user = UserActor(bob, rng=SeededRng(6, b"bob-user"))
    trace = Trace()
    network = Simulation(
        {
            protocol.ACTOR_USER: user,
            protocol.ACTOR_PROVIDER: sim.ProviderActor(provider_key),
            protocol.ACTOR_LOCKER: run.locker,
        },
        trace=trace,
    )
    network.now = run.sim.now
    network.send_all(protocol.ACTOR_USER, user.begin())
    network.pump()
    assert run.locker.session_for("bob").phase is protocol.LockerPhase.OPEN
    assert user.session.phase is protocol.UserPhase.DONE
    assert trace.kind_sequence() == HONEST_KIND_SEQUENCE


def test_an_unknown_ids_auth_request_leaves_the_session_alone():
    # the locker still sends the refusal, then drops the refused session, as
    # the model does: an id with no record cannot end a registered user's
    # session, whether it is user-verified or waits for the ack
    registry, creds, provider_key = seed_world(8)
    locker = sim.LockerActor(registry, rng=SeededRng(8, b"locker"))
    user = UserActor(creds, rng=SeededRng(8, b"user"))
    intruder, _ = protocol.user_begin_session("mallory", SecretKey(b"any key"))

    def refused():
        [(_, reply, _)] = locker.handle(intruder, protocol.ACTOR_USER, 1)
        assert reply == protocol.ERRORS[protocol.FailureReason.BAD_USER_KEY]
        assert locker.session_for("mallory") is None

    [(_, auth, _)] = user.begin()
    [(_, request, _)] = locker.handle(auth, protocol.ACTOR_USER, 1)
    refused()
    assert locker.session_for("alice").phase is protocol.LockerPhase.USER_VERIFIED
    key = protocol.provider_on_message(provider_key, request)
    [(_, challenge, _)] = locker.handle(key, protocol.ACTOR_PROVIDER, 2)
    refused()
    assert locker.session_for("alice").phase is protocol.LockerPhase.CHALLENGE_SENT
    [(_, ack, _)] = user.handle(challenge, protocol.ACTOR_LOCKER, 3)
    [(_, result, _)] = locker.handle(ack, protocol.ACTOR_USER, 4)
    assert result == protocol.RESULT_OPEN
    assert locker.session_for("alice").phase is protocol.LockerPhase.OPEN


def test_pump_raises_at_the_first_hop_past_max_hops():
    # two seats that bounce a message back and forth would loop; each gives
    # up after twice the bound, so only the bound makes the pump raise
    class Bouncer:
        def __init__(self, to):
            self.to, self.left = to, 2 * sim.MAX_HOPS

        def handle(self, msg, origin, now):
            self.left -= 1
            return [(self.to, msg, origin)] if self.left else []

    trace = Trace()
    network = Simulation(
        {protocol.ACTOR_PROVIDER: Bouncer("locker"), protocol.ACTOR_LOCKER: Bouncer("provider")},
        trace=trace,
    )
    network.post("provider", "locker", Message(MessageKind.RESULT, (b"open",)), "provider")
    with pytest.raises(RuntimeError, match=f"exceeded {sim.MAX_HOPS} hops"):
        network.pump()
    assert len(trace.steps) == sim.MAX_HOPS
    assert network.now == sim.MAX_HOPS * sim.HOP_MS


# (sha256, prf, seal, unseal) calls of one run_scenario, seeded world included,
# by row; the counts do not depend on the seed
ROW_CRYPTO_CALLS = {
    ("honest", None): (19, 2, 2, 2),
    ("replay", None): (31, 3, 3, 6),
    ("impersonation", None): (14, 2, 2, 4),
    ("repudiation-user", None): (7, 2, 1, 0),
    ("repudiation-provider", None): (10, 2, 1, 0),
    ("tamper", "prf-field"): (7, 2, 1, 0),
    ("tamper", "challenge-body"): (13, 2, 2, 2),
    ("tamper", "ack-digest"): (19, 2, 2, 2),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("row", list(ROW_CRYPTO_CALLS), ids=lambda row: "-".join(filter(None, row)))
def test_each_scenario_row_makes_its_pinned_crypto_calls(monkeypatch, row, seed):
    # every binding of the four primitives is wrapped, wherever a module
    # imported it, so a hash added or dropped on any path of a row shows
    from digilock import crypto, store

    names = ("sha256", "prf", "seal", "unseal")
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        real = getattr(crypto, name)
        for module in (crypto, protocol, sim, store):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted(name, real))
    scenario, variant = row
    outcome, _ = run_scenario(ScenarioSpec(scenario, seed, variant))
    assert outcome.locker_opened == (scenario == "honest")
    assert tuple(calls.values()) == ROW_CRYPTO_CALLS[row]


def test_the_sim_value_types_are_immutable_keyword_built_tuples():
    creds = Credentials(user_id="alice", key=SecretKey(b"secret material"), phrase="p")
    assert creds == Credentials("alice", SecretKey(b"secret material"), "p")
    assert "secret material" not in repr(creds)
    assert "key=SecretKey(<redacted, 15 bytes>)" in repr(creds)
    outcome, _ = run_honest_session(seed=4)
    assert list(outcome.to_json()) == [
        "scenario", "locker_phase", "user_phase", "locker_opened",
        "failure_reason", "user_failure", "adversary_failure",
    ]
    assert outcome.to_json() == {
        "scenario": "honest", "locker_phase": "open", "user_phase": "done",
        "locker_opened": True, "failure_reason": None, "user_failure": None,
        "adversary_failure": None,
    }
    registry, creds, provider_key = seed_world(4)
    run = sim.drive_session(registry, creds, provider_key)
    assert run.trace is run.sim.trace
    for value, name in ((creds, "phrase"), (outcome, "locker_opened"), (run, "trace")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
