import hashlib
import pickle
import random

import pytest

from digilock import protocol, sim
from digilock.crypto import Digest, Nonce, SecretKey, SeededRng, seal, sha256, unseal
from digilock.protocol import (
    ERRORS,
    EncodingError,
    FailureReason,
    LockerPhase,
    OutOfOrder,
    UserPhase,
    ack_digest,
    locker_build_challenge,
    locker_check_timeout,
    locker_key,
    locker_on_message,
    locker_verify_ack,
    locker_verify_auth,
    locker_verify_provider,
    register_user,
    session_key,
    user_begin_session,
    user_digest,
    user_on_message,
    user_process_challenge,
)
from digilock.wire import Message, MessageKind, decode_fields, encode_fields

# SHA-256 of the canonical length-prefixed ("alice", "k1") concatenation,
# computed with openssl and frozen.
D_U_ALICE_K1 = "f558f9c6bc39db0d85409b72e6d07a4f7415ac4925ed053a8f91dc1ea1c853e1"


def _length_prefixed(*fields: bytes) -> bytes:
    # independent re-implementation of the canonical concatenation
    out = b""
    for f in fields:
        out += len(f).to_bytes(4, "big") + f
    return out


def _world(seed=1):
    provider_key = SecretKey(b"provider-master-key")
    h_r = sha256(bytes(provider_key))
    creds = ("alice", SecretKey(b"alice-key"), "summer rain")
    record = register_user(creds[0], creds[1], creds[2], h_r, rng=SeededRng(seed))
    return record, creds, provider_key, h_r


def _run_to_provider_verified(seed=1):
    record, creds, provider_key, h_r = _world(seed)
    auth, user_state = user_begin_session(creds[0], creds[1], rng=SeededRng(seed, b"u"))
    locker_state = locker_verify_auth({record.user_id: record}, auth)
    locker_state = locker_verify_provider(h_r, provider_key, locker_state)
    return record, creds, provider_key, h_r, user_state, locker_state


def test_user_digest_matches_independent_hash():
    d_u = user_digest("alice", SecretKey(b"k1"))
    assert d_u.hex() == D_U_ALICE_K1
    recomputed = hashlib.sha256(_length_prefixed(b"alice", b"k1")).hexdigest()
    assert d_u.hex() == recomputed


def test_register_round_trip_and_key_derivation():
    record, (user_id, key, phrase), provider_key, h_r = _world()
    assert record.user_id == user_id
    assert record.d_u == user_digest(user_id, key)
    # independent oracle for L: hash and XOR recomputed by hand
    d_u = hashlib.sha256(_length_prefixed(user_id.encode(), bytes(key))).digest()
    h_r_raw = hashlib.sha256(bytes(provider_key)).digest()
    l_by_hand = bytes(a ^ b for a, b in zip(d_u, h_r_raw))
    plain = unseal(Digest(l_by_hand), record.sealed)
    m, k_i, uid = decode_fields(plain)
    assert m == phrase.encode()
    assert k_i == bytes(key)
    assert uid == user_id.encode()


def test_register_rejects_bad_user_ids():
    h_r = sha256(b"R")
    with pytest.raises(EncodingError):
        register_user("", SecretKey(b"k"), "m", h_r)
    with pytest.raises(EncodingError):
        register_user("a" * 65, SecretKey(b"k"), "m", h_r)
    with pytest.raises(EncodingError):
        register_user("bad\x1fid", SecretKey(b"k"), "m", h_r)
    with pytest.raises(EncodingError):
        register_user("fine", SecretKey(b"k"), "x" * 257, h_r)
    # argv holds bytes that are not UTF-8 as lone surrogates, which UTF-8
    # cannot encode: the field breaks its rule, as an over-long one does
    with pytest.raises(EncodingError, match="user id must be 1-64 UTF-8 bytes"):
        register_user("a\udcff", SecretKey(b"k"), "m", h_r)
    with pytest.raises(EncodingError, match="phrase must be 1-256 UTF-8 bytes"):
        register_user("fine", SecretKey(b"k"), "m\udcff", h_r)


@pytest.mark.parametrize(
    "user_id,phrase",
    [("u" * 64, "p" * 256), ("\u00e9" * 32, "\u00fc" * 128)],  # é and ü: 2 UTF-8 bytes each
    ids=["ascii", "two-byte"],
)
def test_an_id_and_a_phrase_at_their_byte_limits_register_and_open(user_id, phrase):
    provider_key = SecretKey(b"provider-master-key")
    h_r = sha256(provider_key)
    key = SecretKey(b"limit-key")
    record = register_user(user_id, key, phrase, h_r, rng=SeededRng(4))
    locker, user, sent = protocol.run_session(
        record, h_r, user_id, key, phrase, provider_key,
        rng_user=SeededRng(4, b"user"), rng_locker=SeededRng(4, b"locker"),
    )
    assert locker.phase is LockerPhase.OPEN and user.phase is UserPhase.DONE
    assert len(sent[0][0].fields[0]) == 64  # the auth request carries all 64 id bytes


def test_begin_session_fresh_nonces_and_framing():
    _, (user_id, key, _), _, _ = _world()
    msg1, state1 = user_begin_session(user_id, key)
    msg2, state2 = user_begin_session(user_id, key)
    assert state1.n_a != state2.n_a
    assert msg1.fields[2] == bytes(state1.n_a)
    assert Message.decode(msg1.encode()) == msg1
    assert state1.phase is UserPhase.AWAITING_CHALLENGE


def test_locker_verify_auth_honest():
    record, (user_id, key, _), _, _ = _world()
    auth, _ = user_begin_session(user_id, key)
    state = locker_verify_auth({record.user_id: record}, auth)
    assert state.phase is LockerPhase.USER_VERIFIED
    assert state.n_a == Nonce(auth.fields[2])


def test_locker_verify_auth_flipped_proof_bit():
    record, (user_id, key, _), _, _ = _world()
    auth, _ = user_begin_session(user_id, key)
    fields = list(auth.fields)
    proof = bytearray(fields[1])
    proof[0] ^= 0x01
    fields[1] = bytes(proof)
    state = locker_verify_auth(
        {record.user_id: record}, Message(MessageKind.AUTH_REQUEST, tuple(fields))
    )
    assert state.phase is LockerPhase.FAILED
    assert state.failure is FailureReason.BAD_USER_KEY


def test_locker_verify_auth_wrong_key():
    record, (user_id, _, _), _, _ = _world()
    auth, _ = user_begin_session(user_id, SecretKey(b"not-alices-key"))
    state = locker_verify_auth({record.user_id: record}, auth)
    assert state.phase is LockerPhase.FAILED
    assert state.failure is FailureReason.BAD_USER_KEY


def test_locker_verify_provider_paths():
    record, (user_id, key, _), provider_key, h_r = _world()
    auth, _ = user_begin_session(user_id, key)
    verified = locker_verify_auth({record.user_id: record}, auth)
    good = locker_verify_provider(h_r, provider_key, verified)
    assert good.phase is LockerPhase.PROVIDER_VERIFIED
    bad = locker_verify_provider(h_r, SecretKey(b"interloper"), verified)
    assert bad.phase is LockerPhase.FAILED
    assert bad.failure is FailureReason.BAD_PROVIDER_KEY
    idle = protocol.LockerSession(user_id=user_id, phase=LockerPhase.IDLE)
    with pytest.raises(OutOfOrder):
        locker_verify_provider(h_r, provider_key, idle)


def test_build_challenge_honest_round_trip():
    record, (user_id, key, phrase), provider_key, h_r, user_state, locker_state = (
        _run_to_provider_verified()
    )
    challenge, locker_state = locker_build_challenge(
        record, provider_key, locker_state, now=0
    )
    assert locker_state.phase is LockerPhase.CHALLENGE_SENT
    assert locker_state.deadline == protocol.DEFAULT_TIMEOUT_MS
    # the challenge opens under the user's independently derived key
    k_s = session_key(user_id, key, user_state.n_a)
    plain = unseal(k_s, challenge.fields[0])
    m, n_r = decode_fields(plain)
    assert m == phrase.encode()
    assert n_r == bytes(locker_state.n_r)


def test_build_challenge_forged_state_hits_blob_auth_failure():
    # a provider key that skipped the hash check must still die on the blob
    record, _, _, h_r, _, locker_state = _run_to_provider_verified()
    forged = locker_state._replace()  # already PROVIDER_VERIFIED
    challenge, failed = locker_build_challenge(
        record, SecretKey(b"wrong-master"), forged, now=0
    )
    assert challenge is None
    assert failed.phase is LockerPhase.FAILED
    assert failed.failure is FailureReason.BLOB_AUTH_FAILURE


def test_build_challenge_out_of_order():
    record, _, provider_key, _, _, locker_state = _run_to_provider_verified()
    idle = locker_state._replace(phase=LockerPhase.IDLE)
    with pytest.raises(OutOfOrder):
        locker_build_challenge(record, provider_key, idle, now=0)


def test_user_process_challenge_honest_ack_matches_hand_hash():
    record, (user_id, key, phrase), provider_key, h_r, user_state, locker_state = (
        _run_to_provider_verified()
    )
    challenge, locker_state = locker_build_challenge(
        record, provider_key, locker_state, now=0
    )
    ack, user_state = user_process_challenge(
        user_state, user_id, key, phrase, challenge
    )
    assert user_state.phase is UserPhase.ACK_SENT
    by_hand = hashlib.sha256(
        _length_prefixed(bytes(user_state.n_a), bytes(locker_state.n_r))
    ).digest()
    assert ack.fields[0] == by_hand


def test_user_process_challenge_stale_nonce_replay():
    # challenge sealed under a session key for an older N_a' fails to open
    record, (user_id, key, phrase), provider_key, h_r, user_state, locker_state = (
        _run_to_provider_verified()
    )
    stale = locker_state._replace(n_a=Nonce(b"\x11" * 16))
    challenge, _ = locker_build_challenge(record, provider_key, stale, now=0)
    ack, failed = user_process_challenge(user_state, user_id, key, phrase, challenge)
    assert ack is None
    assert failed.phase is UserPhase.FAILED
    assert failed.failure is FailureReason.CHALLENGE_AUTH_FAILURE


def test_user_process_challenge_phrase_mismatch():
    # a key-holding double re-seals a wrong phrase; the user must refuse
    _, (user_id, key, phrase), _, _, user_state, _ = _run_to_provider_verified()
    k_s = session_key(user_id, key, user_state.n_a)
    forged = seal(k_s, encode_fields([b"not the phrase", b"\x22" * 16]))
    msg = Message(MessageKind.CHALLENGE, (forged,))
    ack, failed = user_process_challenge(user_state, user_id, key, phrase, msg)
    assert ack is None
    assert failed.phase is UserPhase.FAILED
    assert failed.failure is FailureReason.PHRASE_MISMATCH


def test_locker_verify_ack_paths():
    record, (user_id, key, phrase), provider_key, h_r, user_state, locker_state = (
        _run_to_provider_verified()
    )
    challenge, locker_state = locker_build_challenge(
        record, provider_key, locker_state, now=0
    )
    ack, _ = user_process_challenge(user_state, user_id, key, phrase, challenge)

    opened = locker_verify_ack(locker_state, ack, now=10)
    assert opened.phase is LockerPhase.OPEN

    late = locker_verify_ack(locker_state, ack, now=locker_state.deadline + 1)
    assert late.phase is LockerPhase.FAILED
    assert late.failure is FailureReason.TIMEOUT

    swapped = Message(
        MessageKind.ACK,
        (bytes(ack_digest(locker_state.n_r, locker_state.n_a)),),  # wrong order
    )
    rejected = locker_verify_ack(locker_state, swapped, now=10)
    assert rejected.phase is LockerPhase.FAILED
    assert rejected.failure is FailureReason.BAD_ACK

    with pytest.raises(OutOfOrder):
        locker_verify_ack(opened, ack, now=10)


def test_locker_check_timeout():
    record, _, provider_key, _, _, locker_state = _run_to_provider_verified()
    _, locker_state = locker_build_challenge(record, provider_key, locker_state, now=0)
    assert locker_check_timeout(locker_state, now=10) is locker_state
    expired = locker_check_timeout(locker_state, now=locker_state.deadline + 1)
    assert expired.phase is LockerPhase.FAILED
    assert expired.failure is FailureReason.TIMEOUT


def _challenge_sent(now=4):
    # the locker's challenge-sent session, with the user's genuine ack
    record, (user_id, key, phrase), provider_key, _, user_state, locker_state = (
        _run_to_provider_verified()
    )
    challenge, locker_state = locker_build_challenge(
        record, provider_key, locker_state, now=now, rng=SeededRng(1, b"l")
    )
    ack, _ = user_process_challenge(user_state, user_id, key, phrase, challenge)
    return locker_state, ack


def test_an_ack_at_the_deadline_opens_and_one_after_it_times_out():
    # the deadline is the last instant an ack counts, both for the ack check
    # and for the timeout check, and through the locker's whole transition
    locker_state, ack = _challenge_sent(now=4)
    deadline = locker_state.deadline
    assert deadline == 4 + protocol.DEFAULT_TIMEOUT_MS
    assert locker_verify_ack(locker_state, ack, now=deadline).phase is LockerPhase.OPEN
    late = locker_verify_ack(locker_state, ack, now=deadline + 1)
    assert late.phase is LockerPhase.FAILED and late.failure is FailureReason.TIMEOUT
    assert locker_state.phase is LockerPhase.CHALLENGE_SENT
    assert locker_check_timeout(locker_state, now=deadline) is locker_state
    expired = locker_check_timeout(locker_state, now=deadline + 1)
    assert expired.failure is FailureReason.TIMEOUT
    record, _, _, h_r = _world()
    records = {record.user_id: record}
    session, reply = locker_on_message(records, h_r, locker_state, ack, now=deadline)
    assert session.phase is LockerPhase.OPEN and reply is protocol.RESULT_OPEN
    session, reply = locker_on_message(records, h_r, locker_state, ack, now=deadline + 1)
    assert session.failure is FailureReason.TIMEOUT
    assert reply is ERRORS[FailureReason.TIMEOUT]


@pytest.mark.parametrize("missing", ["n_a", "n_r", "deadline"])
def test_a_challenge_sent_session_missing_a_field_raises_and_never_opens(missing):
    # the challenge-sent phase implies both nonces and the deadline, so the
    # ack and timeout checks do not test for them: a hand-built session
    # lacking one raises instead of opening, as neither the consent digest
    # of a missing nonce nor a comparison with a missing deadline exists
    locker_state, ack = _challenge_sent()
    broken = locker_state._replace(**{missing: None})
    assert broken.phase is LockerPhase.CHALLENGE_SENT
    with pytest.raises(TypeError):
        locker_verify_ack(broken, ack, now=10)
    record, _, _, h_r = _world()
    with pytest.raises(TypeError):
        locker_on_message({record.user_id: record}, h_r, broken, ack, now=10)
    if missing == "deadline":
        with pytest.raises(TypeError):
            locker_check_timeout(broken, now=10)


def test_a_provider_verified_session_missing_its_nonce_raises_and_builds_no_challenge():
    # the provider-verified phase implies N_a, so the challenge build does not
    # test for it: a hand-built session lacking it, with a genuine record and
    # provider key, raises instead of returning a challenge
    record, (user_id, key, _), provider_key, h_r = _world()
    records = {record.user_id: record}
    auth, _ = user_begin_session(user_id, key)
    user_verified = locker_verify_auth(records, auth)._replace(n_a=None)
    broken = locker_verify_provider(h_r, provider_key, user_verified)
    assert broken.phase is LockerPhase.PROVIDER_VERIFIED and broken.n_a is None
    with pytest.raises(TypeError):
        locker_build_challenge(record, provider_key, broken, now=0)
    # and through the locker's transition, which builds it on the provider key
    key_msg = Message(MessageKind.PROVIDER_KEY, (provider_key,))
    with pytest.raises(TypeError):
        locker_on_message(records, h_r, user_verified, key_msg, now=0)


def test_every_error_reply_equals_a_freshly_built_one():
    # ERRORS holds one reply per reason, built and framed at
    # import; each equals, and frames to the same bytes as, the error
    # message built from its reason now
    assert len(FailureReason) == 7
    for reason in FailureReason:
        fresh = Message(MessageKind.ERROR, (reason.value.encode("ascii"),))
        shared = ERRORS[reason]
        assert shared is ERRORS[reason]
        assert shared == fresh
        assert shared.encode() == fresh.encode()
        assert Message.decode(shared.encode()) == fresh
        assert protocol.reason_from_wire(shared.fields[0]) is reason


def _value_types():
    # one of each protocol value type, with every optional field set
    record, _, _, _, user_state, _ = _run_to_provider_verified()
    locker_state, _ = _challenge_sent()
    failed = protocol._fail(locker_state, FailureReason.BAD_ACK)
    return [record, locker_state, user_state, failed]


def test_protocol_values_are_immutable():
    for value in _value_types():
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        with pytest.raises(AttributeError):
            value.extra = 1  # no instance dict to hold a new field


def test_fail_keeps_every_field_but_the_phase_and_the_failure():
    _, locker_state, user_state, _ = _value_types()
    for session, reason in (
        (locker_state, FailureReason.BAD_ACK),
        (user_state, FailureReason.PHRASE_MISMATCH),
    ):
        failed = protocol._fail(session, reason)
        assert type(failed) is type(session)
        assert failed._asdict() == {
            **session._asdict(), "phase": type(session.phase).FAILED, "failure": reason
        }


def test_equal_values_hash_equal():
    # values built apart from equal parts are equal and hash alike, as the
    # model's interning and memos need; the phases and reasons they hold
    # hash by identity, which holds as each member is one object
    for value, again in zip(_value_types(), _value_types()):
        assert again is not value
        assert again == value and hash(again) == hash(value)
        assert again != value._replace(user_id="bob")
    for member in (*FailureReason, *LockerPhase, *UserPhase):
        assert pickle.loads(pickle.dumps(member)) is member
        assert type(member)(member.value) is member


def test_a_locker_session_never_equals_a_user_session():
    # both are tuples, but of other lengths and of other phase types; a
    # session does equal a plain tuple of its items, so code compares a
    # session only with sessions
    for reason in (None, *FailureReason):
        for locker_phase in LockerPhase:
            for user_phase in UserPhase:
                locker = protocol.LockerSession("alice", locker_phase, failure=reason)
                user = protocol.UserSession("alice", user_phase, failure=reason)
                assert locker != user and user != locker
    locker_state, _ = _challenge_sent()
    assert locker_state == tuple(locker_state)


def test_session_key_freshness_across_sessions():
    _, (user_id, key, _), _, _ = _world()
    rnd = random.Random(0xF5E5)
    by_nonce = {}
    for _ in range(10_000):
        n_a = Nonce(rnd.randbytes(16))
        by_nonce[bytes(n_a)] = bytes(session_key(user_id, key, n_a))
    # distinct nonces always produced distinct session keys
    assert len(set(by_nonce.values())) == len(by_nonce)


def test_canonical_concat_is_unambiguous():
    # ("ab","c") and ("a","bc") must hash differently
    a = sha256(protocol.encode_fields([b"ab", b"c"]))
    b = sha256(protocol.encode_fields([b"a", b"bc"]))
    assert a != b


@pytest.mark.parametrize("fault", [None, "user-key", "provider-key", "phrase", "user-id"])
def test_run_session_ends_where_the_simulated_session_ends(fault):
    # the direct loop and the simulator's channel model, each at the one ack
    # deadline, reach the same locker session (none for an id with no record)
    # and the same user session on every path; a challenge is sent at hop 4.
    # A session that did not open failed the user's with a reason, which the
    # CLI reports
    for seed in range(50):
        registry, creds, provider_key = sim.seed_world(seed)
        wrong = SecretKey(SeededRng(seed, b"wrong-secret").take(16))
        if fault == "user-key":
            creds = creds._replace(key=wrong)
        elif fault == "provider-key":
            provider_key = wrong
        elif fault == "phrase":
            creds = creds._replace(phrase="not " + creds.phrase)
        elif fault == "user-id":  # no record for this id
            creds = creds._replace(user_id="mallory")
        run = sim.drive_session(
            registry, creds, provider_key,
            rng_user=SeededRng(seed, b"user"), rng_locker=SeededRng(seed, b"locker"),
        )
        session, user, _ = protocol.run_session(
            registry.records.get(creds.user_id), registry.h_r,
            creds.user_id, creds.key, creds.phrase, provider_key,
            rng_user=SeededRng(seed, b"user"), rng_locker=SeededRng(seed, b"locker"),
        )
        if session is None or session.phase is not LockerPhase.OPEN:
            assert user.phase is UserPhase.FAILED and user.failure is not None, seed
        if session is not None and session.deadline is not None:
            assert session.deadline - protocol.DEFAULT_TIMEOUT_MS == 4, seed
        assert session == run.locker.session_for(creds.user_id), seed
        assert user == run.user.session, seed


def test_run_session_honest_transcript():
    registry, creds, provider_key = sim.seed_world(3)
    session, _, sent = protocol.run_session(
        registry.get_record(creds.user_id), registry.h_r,
        creds.user_id, creds.key, creds.phrase, provider_key,
    )
    assert session.phase is LockerPhase.OPEN
    assert [msg.kind.label for msg, _ in sent] == sim.HONEST_KIND_SEQUENCE
    assert [sender for _, sender in sent] == [
        "user", "locker", "provider", "locker", "user", "locker"
    ]


def test_a_genuine_challenge_after_the_ack_is_out_of_order():
    # the session still holds N_a, so only its phase refuses the challenge
    record, (user_id, key, phrase), provider_key, _, user, locker = _run_to_provider_verified()
    challenge, _ = locker_build_challenge(record, provider_key, locker, now=4)
    acked = user._replace(phase=UserPhase.ACK_SENT)
    assert acked.n_a is not None
    with pytest.raises(OutOfOrder, match="ack-sent"):
        user_process_challenge(acked, user_id, key, phrase, challenge)
    ack, _ = user_process_challenge(user, user_id, key, phrase, challenge)
    assert ack is not None  # the same challenge, awaited, is answered


def test_no_session_keeps_the_session_key():
    # K_s is derived where the challenge is sealed and opened, and held by
    # neither session afterwards
    registry, creds, provider_key = sim.seed_world(3)
    locker, user, _ = protocol.run_session(
        registry.get_record(creds.user_id), registry.h_r,
        creds.user_id, creds.key, creds.phrase, provider_key,
    )
    assert locker.phase is LockerPhase.OPEN and user.phase is UserPhase.DONE
    k_s = session_key(creds.user_id, creds.key, user.n_a)
    assert k_s not in locker._asdict().values()
    assert k_s not in user._asdict().values()


def _provider_key_msg(provider_key):
    return Message(MessageKind.PROVIDER_KEY, (bytes(provider_key),))


def _locker_after_auth(record, h_r, user_id, key):
    # the locker's session after a genuine auth request, and the user's
    auth, user = user_begin_session(user_id, key, rng=SeededRng(1, b"u"))
    locker, _ = locker_on_message({record.user_id: record}, h_r, None, auth, now=2)
    return locker, user


def _alices_slot(phase):
    # alice's locker session, driven by locker_on_message to `phase`
    record, creds, provider_key, h_r = _world()
    records = {record.user_id: record}
    locker, user = _locker_after_auth(record, h_r, creds[0], creds[1])
    if phase is not LockerPhase.USER_VERIFIED:
        key = _provider_key_msg(provider_key)
        locker, challenge = locker_on_message(records, h_r, locker, key, now=4)
    if phase is LockerPhase.OPEN:
        _, ack = user_on_message(user, *creds, challenge)
        locker, _ = locker_on_message(records, h_r, locker, ack, now=8)
    assert locker.phase is phase
    return records, h_r, creds, locker


@pytest.mark.parametrize(
    "phase",
    [LockerPhase.USER_VERIFIED, LockerPhase.CHALLENGE_SENT, LockerPhase.OPEN],
    ids=lambda phase: phase.value,
)
def test_an_unknown_ids_auth_request_returns_the_slot_it_was_given(phase):
    # refused as a wrong key is, and the refused session is dropped: the
    # registered user's session comes back as the same object
    records, h_r, creds, slot = _alices_slot(phase)
    intruder, _ = user_begin_session("mallory", creds[1])
    session, reply = locker_on_message(records, h_r, slot, intruder, now=9)
    assert session is slot
    assert reply == ERRORS[FailureReason.BAD_USER_KEY]


def test_id_bytes_that_are_not_utf8_name_no_record():
    # b"a\xff" decoded leniently reads as the registered id "a\ufffd"; sent
    # with that id's genuine proof it is still refused, and the slot kept
    records, h_r, creds, slot = _alices_slot(LockerPhase.OPEN)
    key = SecretKey(b"lookalike-key")
    lookalike = register_user("a\ufffd", key, "its phrase", h_r)
    records = {**records, lookalike.user_id: lookalike}
    auth, _ = user_begin_session(lookalike.user_id, key)
    forged = Message(MessageKind.AUTH_REQUEST, (b"a\xff", *auth.fields[1:]))
    session, reply = locker_on_message(records, h_r, slot, forged, now=9)
    assert session is slot
    assert reply == ERRORS[FailureReason.BAD_USER_KEY]
    assert locker_verify_auth(records, forged).failure is FailureReason.BAD_USER_KEY


def test_an_unknown_id_is_refused_with_the_crypto_calls_of_a_wrong_key(monkeypatch):
    # the two refusals send the same reply and make the same prf, sha256 and
    # ct_equal calls, so counting them does not tell which ids are registered
    record, (user_id, _, _), _, h_r = _world()
    wrong = SecretKey(b"not-alices-key")
    requests = [user_begin_session(uid, wrong)[0] for uid in (user_id, "mallory")]
    calls = []

    def counted(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)
        return wrapper

    for name in ("prf", "sha256", "ct_equal"):
        monkeypatch.setattr(protocol, name, counted(name, getattr(protocol, name)))
    counts, replies = [], []
    for auth in requests:
        calls.clear()
        _, reply = locker_on_message({record.user_id: record}, h_r, None, auth, now=2)
        counts.append(sorted(calls))
        replies.append(reply)
    assert replies[0] is replies[1] is ERRORS[FailureReason.BAD_USER_KEY]
    assert counts[0] == counts[1] == ["ct_equal", "prf"]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: a refused auth request for a registered id "
    "still replaces the session in the locker's one slot",
)
def test_a_refused_request_for_a_registered_id_leaves_an_open_session_alone():
    records, h_r, creds, slot = _alices_slot(LockerPhase.OPEN)
    bob = register_user("bob", SecretKey(b"bob-key"), "bob phrase", h_r)
    records = {**records, bob.user_id: bob}
    auth, _ = user_begin_session(bob.user_id, SecretKey(b"not-bobs-key"))
    session, reply = locker_on_message(records, h_r, slot, auth, now=9)
    assert reply == ERRORS[FailureReason.BAD_USER_KEY]
    assert session is slot


def _refuse_wrong_user_key(record, creds, provider_key, h_r):
    auth, _ = user_begin_session(creds[0], SecretKey(b"not-alices-key"))
    return locker_on_message({record.user_id: record}, h_r, None, auth, now=2)


def _refuse_unknown_id(record, creds, provider_key, h_r):
    auth, _ = user_begin_session("mallory", creds[1])
    return locker_on_message({record.user_id: record}, h_r, None, auth, now=2)


def _refuse_wrong_provider_key(record, creds, provider_key, h_r):
    locker, _ = _locker_after_auth(record, h_r, creds[0], creds[1])
    wrong = _provider_key_msg(SecretKey(b"interloper"))
    return locker_on_message({record.user_id: record}, h_r, locker, wrong, now=4)


def _refuse_wrong_r_past_the_provider_check(record, creds, provider_key, h_r):
    # a stored h(R) swapped for h(R') lets R' through the provider check,
    # so the session reaches the blob as a forged provider-verified one
    wrong = SecretKey(b"wrong-master")
    forged_h_r = sha256(bytes(wrong))
    locker, _ = _locker_after_auth(record, forged_h_r, creds[0], creds[1])
    msg = _provider_key_msg(wrong)
    return locker_on_message({record.user_id: record}, forged_h_r, locker, msg, now=4)


def _refuse_two_field_blob(record, creds, provider_key, h_r):
    # anyone holding the registry can reseal a blob under L = d_u xor h(R);
    # one that opens to two fields must be refused, not raise
    user_id, key, phrase = creds
    sealed = seal(
        locker_key(record.d_u, h_r), encode_fields([phrase.encode(), bytes(key)])
    )
    two_fields = record._replace(sealed=sealed)
    session, _, sent = protocol.run_session(
        two_fields, h_r, user_id, key, phrase, provider_key
    )
    return session, sent[-1][0]


def _refuse_bad_ack(record, creds, provider_key, h_r):
    locker, _ = _locker_after_auth(record, h_r, creds[0], creds[1])
    locker, _ = locker_on_message(
        {record.user_id: record}, h_r, locker, _provider_key_msg(provider_key), now=4
    )
    forged = Message(MessageKind.ACK, (b"\x00" * 32,))
    return locker_on_message({record.user_id: record}, h_r, locker, forged, now=8)


def _refuse_late_ack(record, creds, provider_key, h_r):
    locker, user = _locker_after_auth(record, h_r, creds[0], creds[1])
    locker, challenge = locker_on_message(
        {record.user_id: record}, h_r, locker, _provider_key_msg(provider_key), now=4
    )
    _, ack = user_on_message(user, *creds, challenge)
    return locker_on_message(
        {record.user_id: record}, h_r, locker, ack, now=locker.deadline + 1
    )


def _user_refuses(fields_under, n_a_for_key=None):
    # the user's session fed a challenge sealed under the K_s of
    # `n_a_for_key` (default: the user's own N_a) around `fields_under`
    def refuse(record, creds, provider_key, h_r):
        user_id, key, phrase = creds
        _, user = _locker_after_auth(record, h_r, user_id, key)
        k_s = session_key(user_id, key, n_a_for_key or user.n_a)
        body = seal(k_s, encode_fields(fields_under(phrase.encode())))
        return user_on_message(
            user, *creds, Message(MessageKind.CHALLENGE, (body,))
        )

    return refuse


@pytest.mark.parametrize(
    "reason,refuse",
    [
        pytest.param("bad-user-key", _refuse_wrong_user_key, id="locker-wrong-key"),
        pytest.param("bad-user-key", _refuse_unknown_id, id="locker-unknown-id"),
        pytest.param(
            "bad-provider-key", _refuse_wrong_provider_key, id="locker-wrong-r"
        ),
        pytest.param(
            "blob-auth-failure",
            _refuse_wrong_r_past_the_provider_check,
            id="locker-forged-provider-verified",
        ),
        pytest.param(
            "blob-auth-failure", _refuse_two_field_blob, id="locker-two-field-blob"
        ),
        pytest.param("bad-ack", _refuse_bad_ack, id="locker-forged-ack"),
        pytest.param("timeout", _refuse_late_ack, id="locker-late-ack"),
        pytest.param(
            "challenge-auth-failure",
            _user_refuses(lambda m: [m, b"\x22" * 16], Nonce(b"\x11" * 16)),
            id="user-stale-session-key",
        ),
        pytest.param(
            "phrase-mismatch",
            _user_refuses(lambda m: [b"not the phrase", b"\x22" * 16]),
            id="user-other-phrase",
        ),
        pytest.param(
            "phrase-mismatch",
            _user_refuses(lambda m: [m, b"\x22" * 15]),
            id="user-15-byte-nonce",
        ),
        pytest.param(
            "phrase-mismatch", _user_refuses(lambda m: [m]), id="user-one-field"
        ),
    ],
)
def test_every_refusal_fails_the_session_and_names_its_reason(reason, refuse):
    # a locker refusal replies with the error naming the reason; the user
    # agent refuses by failing its session and sending nothing
    record, creds, provider_key, h_r = _world()
    session, reply = refuse(record, creds, provider_key, h_r)
    reason = FailureReason(reason)
    if refuse is _refuse_unknown_id:  # its session is dropped: the slot stays empty
        assert session is None
    else:
        assert session.phase.value == "failed"
        assert session.failure is reason
    if isinstance(session, protocol.UserSession):
        assert reply is None
    else:
        assert reply == ERRORS[reason]
