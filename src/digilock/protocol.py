"""Actor state machines for the user / provider / locker access protocol.

The locker stores, per user, the digest of (user id, user key) and a blob
sealed under the dual-derived key L, so that reopening the blob proves both
the user's and the provider's secrets were supplied. A session then runs:

    user      -> locker : AuthRequest  [user id, PRF_D(N_a), N_a]
    locker    -> provider: ProviderKeyRequest
    provider  -> locker : ProviderKey  [R]
    locker    -> user   : Challenge    [seal(K_s, (m, N_r))]
    user      -> locker : Ack          [h(N_a || N_r)]
    locker    -> user   : Result

All step functions are pure given (state, message, now); time enters only
through an explicit clock value, and randomness through an explicit rng.
States are immutable NamedTuples; transitions return new states. Only a
FAILED state carries a failure, so an honest-path step builds the next
state with its constructor from the fields it keeps. A state or record
equals any plain tuple of its items, so compare it only with its own type,
never with a raw tuple such as a database row.

`user_on_message`, `provider_on_message` and `locker_on_message` are each
role's whole transition, and the only code that knows what a role replies
or refuses. Three drivers deliver messages to them and hold no copy of the
session order: `run_session` here (one session with no adversary, which the
CLI runs and `explore` records as the adversary's prior session), the
simulator (`sim`) and the model checker (`explore`). So the search checks
the code the scenarios and the CLI run. The simulator and the model run in
one world, which `seeded_world` draws from a seed.

The locker has one session slot, and `locker_on_message` alone decides what
goes in it. It takes the locker's records by user id: `sim` passes its
whole registry, `run_session` and the model one record. An auth request
names its user; the request is checked against that user's record and its
session replaces the one in the slot. A request naming an id with no record
is checked against an all-zero key, so it is refused with the reply and the
`prf`, `sha256` and `ct_equal` calls of a wrong key, and the slot stays as it
was. The CLI's `lookup` still decodes the row for a found id only, so timing
shows that work, and a refused registered id replaces the slot.

A refusal is never an exception. A step that refuses returns its session
FAILED with a `FailureReason` (and no message where it would build one),
and the locker replies with that reason's entry in `ERRORS`, framed once.
Exceptions are for caller errors only: `OutOfOrder` for a step called in a
phase that does not permit it, `EncodingError` for a user id or phrase to
register or send that the wire cannot carry, and `ValueError` for a step
handed the wrong message kind.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from typing import NamedTuple

from .crypto import (
    DIGEST_LEN,
    AuthFailure,
    Digest,
    Nonce,
    Rng,
    SecretKey,
    SeededRng,
    ct_equal,
    fresh_nonce,
    prf,
    seal,
    sha256,
    unseal,
    xor_digests,
)
from .wire import USER_ID_MAX, Message, MessageKind, WireError, decode_fields, encode_fields

PHRASE_MAX = 256
SEPARATOR_BYTE = 0x1F  # reserved separator; user ids must not contain it
DEFAULT_TIMEOUT_MS = 5000  # the one ack deadline, in ms after the challenge, for every driver

ACTOR_USER = "user"
ACTOR_PROVIDER = "provider"
ACTOR_LOCKER = "locker"
ACTOR_ADVERSARY = "adversary"


class ProtocolError(Exception):
    """Base class for protocol-level failures."""


class OutOfOrder(ProtocolError):
    """A step function was called in a state that does not permit it."""


class EncodingError(ProtocolError):
    """A field violates its encoding constraints (length, separator byte)."""


class FailureReason(enum.Enum):
    __hash__ = object.__hash__  # members are singletons; Enum hashes its name in Python
    BAD_USER_KEY = "bad-user-key"
    BAD_PROVIDER_KEY = "bad-provider-key"
    BLOB_AUTH_FAILURE = "blob-auth-failure"
    TIMEOUT = "timeout"
    BAD_ACK = "bad-ack"
    CHALLENGE_AUTH_FAILURE = "challenge-auth-failure"
    PHRASE_MISMATCH = "phrase-mismatch"


class LockerPhase(enum.Enum):
    __hash__ = object.__hash__  # members are singletons; Enum hashes its name in Python
    IDLE = "idle"
    USER_VERIFIED = "user-verified"
    PROVIDER_VERIFIED = "provider-verified"
    CHALLENGE_SENT = "challenge-sent"
    OPEN = "open"
    FAILED = "failed"


class UserPhase(enum.Enum):
    __hash__ = object.__hash__  # members are singletons; Enum hashes its name in Python
    AWAITING_CHALLENGE = "awaiting-challenge"
    ACK_SENT = "ack-sent"
    DONE = "done"
    FAILED = "failed"


class LockerRecord(NamedTuple):
    """Per-user stored tuple: user id, digest of (id, key), sealed blob."""

    user_id: str
    d_u: Digest
    sealed: bytes


class LockerSession(NamedTuple):
    user_id: str
    phase: LockerPhase
    n_a: Nonce | None = None
    n_r: Nonce | None = None
    deadline: int | None = None
    failure: FailureReason | None = None


class UserSession(NamedTuple):
    user_id: str
    phase: UserPhase
    n_a: Nonce | None = None
    failure: FailureReason | None = None


def _fail(session, reason: FailureReason):
    """`session` (a LockerSession or UserSession) ended by `reason`."""
    return session._replace(phase=type(session.phase).FAILED, failure=reason)


def _utf8(text: str, most: int, what: str) -> bytes:
    try:  # argv holds non-UTF-8 bytes as lone surrogates, which UTF-8 cannot encode
        raw = text.encode("utf-8")
    except UnicodeEncodeError:
        raw = b""
    if not 1 <= len(raw) <= most:
        raise EncodingError(f"{what} must be 1-{most} UTF-8 bytes")
    return raw


def user_id_bytes(user_id: str) -> bytes:
    raw = _utf8(user_id, USER_ID_MAX, "user id")
    if SEPARATOR_BYTE in raw:
        raise EncodingError("user id must not contain byte 0x1f")
    return raw


def phrase_bytes(phrase: str) -> bytes:
    return _utf8(phrase, PHRASE_MAX, "secret phrase")


def user_digest(user_id: str, key: SecretKey) -> Digest:
    """Digest binding a user id to its key: h(U_i || K_i), canonical concat."""
    return sha256(encode_fields([user_id_bytes(user_id), key]))


def locker_key(d_u: Digest, h_r: Digest) -> Digest:
    """Blob-sealing key L: requires both the user digest and h(R)."""
    return xor_digests(d_u, h_r)


def session_key(user_id: str, key: SecretKey, n_a: Nonce) -> Digest:
    """Per-session key K_s = h(U_i || K_i || N_a), fresh per user nonce."""
    return sha256(encode_fields([user_id_bytes(user_id), key, n_a]))


def ack_digest(n_a: Nonce, n_r: Nonce) -> Digest:
    """The user's consent token h(N_a || N_r)."""
    return sha256(encode_fields([n_a, n_r]))


def register_user(
    user_id: str,
    key: SecretKey,
    phrase: str,
    h_r: Digest,
    *,
    rng: Rng | None = None,
) -> LockerRecord:
    """Build a user's stored record inside the locker trust boundary.

    The blob holds (phrase, key, user id) sealed under L; the plaintext key
    is not retained anywhere else.
    """
    uid = user_id_bytes(user_id)
    m = phrase_bytes(phrase)
    d_u = user_digest(user_id, key)
    blob = seal(locker_key(d_u, h_r), encode_fields([m, key, uid]), rng)
    return LockerRecord(user_id=user_id, d_u=d_u, sealed=blob)


def user_begin_session(
    user_id: str, key: SecretKey, *, rng: Rng | None = None
) -> tuple[Message, UserSession]:
    """Open a session: fresh N_a plus a PRF proof of key knowledge."""
    uid = user_id_bytes(user_id)
    n_a = fresh_nonce(rng)
    proof = prf(user_digest(user_id, key), n_a)
    msg = Message(MessageKind.AUTH_REQUEST, (uid, proof, n_a))
    state = UserSession(user_id=user_id, phase=UserPhase.AWAITING_CHALLENGE, n_a=n_a)
    return msg, state


def locker_verify_auth(
    records: Mapping[str, LockerRecord], msg: Message
) -> LockerSession:
    """Check the PRF proof (constant-time) against the named user's record,
    or an all-zero key for an id with no record, which is always refused."""
    if msg.kind is not MessageKind.AUTH_REQUEST:
        raise ValueError(f"expected auth-request, got {msg.kind.label}")
    uid_raw, proof, n_a_raw = msg.fields
    n_a = Nonce(n_a_raw)
    try:
        user_id = uid_raw.decode("utf-8")
    except UnicodeDecodeError:  # not UTF-8, so no registered id: kept byte for byte
        user_id = uid_raw.decode("utf-8", errors="surrogateescape")
    record = records.get(user_id)
    session = LockerSession(user_id, LockerPhase.USER_VERIFIED, n_a)
    d_u = bytes(DIGEST_LEN) if record is None else record.d_u
    if ct_equal(prf(d_u, n_a), proof) and record is not None:
        return session
    return _fail(session, FailureReason.BAD_USER_KEY)


def locker_verify_provider(
    stored_h_r: Digest, provider_key: SecretKey, session: LockerSession
) -> LockerSession:
    """Match h(provider key) against the provisioned digest."""
    if session.phase is not LockerPhase.USER_VERIFIED:
        raise OutOfOrder(f"provider check in phase {session.phase.value}")
    if ct_equal(sha256(provider_key), stored_h_r):
        return LockerSession(session.user_id, LockerPhase.PROVIDER_VERIFIED, session.n_a)
    return _fail(session, FailureReason.BAD_PROVIDER_KEY)


def locker_build_challenge(
    record: LockerRecord,
    provider_key: SecretKey,
    session: LockerSession,
    *,
    now: int,
    rng: Rng | None = None,
) -> tuple[Message | None, LockerSession]:
    """Derive L, open the blob, and seal (m, N_r) under the session key.

    Opening the blob is the non-repudiation pivot: it succeeds only when
    both the stored user digest and the supplied provider key are genuine.
    A blob that does not open under L to a (phrase, key, user id) triple
    fails the session with blob-auth-failure and builds no challenge.
    """
    if session.phase is not LockerPhase.PROVIDER_VERIFIED:
        raise OutOfOrder(f"challenge build in phase {session.phase.value}")
    key_l = locker_key(record.d_u, sha256(provider_key))
    try:
        m, key_raw, uid = decode_fields(unseal(key_l, record.sealed))
        k_s = session_key(uid.decode("utf-8"), SecretKey(key_raw), session.n_a)
    except (AuthFailure, WireError, ValueError, EncodingError):
        return None, _fail(session, FailureReason.BLOB_AUTH_FAILURE)
    n_r = fresh_nonce(rng)
    body = seal(k_s, encode_fields([m, n_r]), rng)
    msg = Message(MessageKind.CHALLENGE, (body,))
    state = LockerSession(
        session.user_id, LockerPhase.CHALLENGE_SENT, session.n_a, n_r, now + DEFAULT_TIMEOUT_MS
    )
    return msg, state


def user_process_challenge(
    session: UserSession,
    user_id: str,
    key: SecretKey,
    held_phrase: str,
    msg: Message,
) -> tuple[Message | None, UserSession]:
    """Open the challenge, verify the phrase, and emit the consent digest.

    A challenge sealed under another session key (stale nonce,
    impersonator) fails the session with challenge-auth-failure; one that
    opens to anything but this user's phrase and a nonce fails it with
    phrase-mismatch. A failed session gets no ack.
    """
    if msg.kind is not MessageKind.CHALLENGE:
        raise ValueError(f"expected challenge, got {msg.kind.label}")
    if session.phase is not UserPhase.AWAITING_CHALLENGE or session.n_a is None:
        raise OutOfOrder(f"challenge received in phase {session.phase.value}")
    k_s = session_key(user_id, key, session.n_a)
    try:
        plain = unseal(k_s, msg.fields[0])
    except AuthFailure:
        return None, _fail(session, FailureReason.CHALLENGE_AUTH_FAILURE)
    try:  # a held phrase no registration could hold matches nothing
        m, n_r_raw = decode_fields(plain)
        matched = m == phrase_bytes(held_phrase)
        n_r = Nonce(n_r_raw)
    except (WireError, ValueError, EncodingError):
        matched = False
    if not matched:
        return None, _fail(session, FailureReason.PHRASE_MISMATCH)
    ack = Message(MessageKind.ACK, (ack_digest(session.n_a, n_r),))
    state = UserSession(session.user_id, UserPhase.ACK_SENT, session.n_a)
    return ack, state


def locker_verify_ack(
    session: LockerSession, msg: Message, now: int
) -> LockerSession:
    """Open the locker iff the consent digest matches within the deadline."""
    if msg.kind is not MessageKind.ACK:
        raise ValueError(f"expected ack, got {msg.kind.label}")
    if session.phase is not LockerPhase.CHALLENGE_SENT:
        raise OutOfOrder(f"ack received in phase {session.phase.value}")
    if now > session.deadline:
        return _fail(session, FailureReason.TIMEOUT)
    if ct_equal(msg.fields[0], ack_digest(session.n_a, session.n_r)):
        return LockerSession(
            session.user_id, LockerPhase.OPEN, session.n_a, session.n_r, session.deadline
        )
    return _fail(session, FailureReason.BAD_ACK)


def locker_check_timeout(session: LockerSession, now: int) -> LockerSession:
    """End a challenge-sent session whose ack deadline has passed."""
    if session.phase is LockerPhase.CHALLENGE_SENT and now > session.deadline:
        return _fail(session, FailureReason.TIMEOUT)
    return session


PROVIDER_KEY_REQUEST = Message(MessageKind.PROVIDER_KEY_REQUEST, ())
RESULT_OPEN = Message(MessageKind.RESULT, (b"open",))
ERRORS = {  # the one error reply naming each reason
    reason: Message(MessageKind.ERROR, (reason.value.encode("ascii"),))
    for reason in FailureReason
}
for _reply in (PROVIDER_KEY_REQUEST, RESULT_OPEN, *ERRORS.values()):
    _reply.encode()  # framed at import, in no session


def reason_from_wire(raw: bytes) -> FailureReason | None:
    try:
        return FailureReason(raw.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        return None


def provider_on_message(provider_key: SecretKey, msg: Message) -> Message | None:
    """The provider's transition: it answers a key request with R, nothing else."""
    if msg.kind is MessageKind.PROVIDER_KEY_REQUEST:
        return Message(MessageKind.PROVIDER_KEY, (provider_key,))
    return None


def locker_on_message(
    records: Mapping[str, LockerRecord],
    h_r: Digest,
    session: LockerSession | None,
    msg: Message,
    *,
    now: int,
    rng: Rng | None = None,
) -> tuple[LockerSession | None, Message | None]:
    """The locker's transition for one inbound message: the session now in
    its slot, and the reply.

    An auth request for a user in `records` starts a new session (the old
    one is replaced) and asks for the provider key; one for an id with no
    record is refused and leaves the slot as it was. A provider key for a
    user-verified session yields the challenge; an ack for a challenge-sent
    session opens the locker. Every refusal fails the session and replies
    with the error naming its reason. A message the session is not waiting
    for changes nothing and gets no reply.
    """
    if msg.kind is MessageKind.AUTH_REQUEST:
        verified = locker_verify_auth(records, msg)
        if verified.user_id not in records:  # the refused session is dropped
            return session, ERRORS[FailureReason.BAD_USER_KEY]
        session, reply = verified, PROVIDER_KEY_REQUEST
    elif session is None:
        return session, None
    elif (
        msg.kind is MessageKind.PROVIDER_KEY
        and session.phase is LockerPhase.USER_VERIFIED
    ):
        provider_key = SecretKey(msg.fields[0])
        session = locker_verify_provider(h_r, provider_key, session)
        reply = None
        if session.phase is LockerPhase.PROVIDER_VERIFIED:
            reply, session = locker_build_challenge(
                records[session.user_id], provider_key, session, now=now, rng=rng
            )
    elif msg.kind is MessageKind.ACK and session.phase is LockerPhase.CHALLENGE_SENT:
        session = locker_verify_ack(session, msg, now)
        reply = RESULT_OPEN
    else:
        return session, None
    if session.phase is LockerPhase.FAILED:
        return session, ERRORS[session.failure]
    return session, reply


def user_on_message(
    session: UserSession,
    user_id: str,
    key: SecretKey,
    phrase: str,
    msg: Message,
) -> tuple[UserSession, Message | None]:
    """The user agent's transition for one inbound message.

    A challenge awaited is answered with the ack, or fails the session when
    it does not open or carries another phrase; a result after the ack ends
    the session; an error ends an unfinished session with its reason.
    Anything else changes nothing and gets no reply.
    """
    if (
        msg.kind is MessageKind.CHALLENGE
        and session.phase is UserPhase.AWAITING_CHALLENGE
    ):
        ack, session = user_process_challenge(session, user_id, key, phrase, msg)
        return session, ack
    if msg.kind is MessageKind.RESULT and session.phase is UserPhase.ACK_SENT:
        return UserSession(session.user_id, UserPhase.DONE, session.n_a), None
    if msg.kind is MessageKind.ERROR and session.phase not in (
        UserPhase.DONE,
        UserPhase.FAILED,
    ):
        return _fail(session, reason_from_wire(msg.fields[0])), None
    return session, None


TO_USER = (MessageKind.CHALLENGE, MessageKind.RESULT, MessageKind.ERROR)  # locker -> user


def run_session(
    record: LockerRecord | None,
    h_r: Digest,
    user_id: str,
    key: SecretKey,
    phrase: str,
    provider_key: SecretKey,
    *,
    rng_user: Rng | None = None,
    rng_locker: Rng | None = None,
) -> tuple[LockerSession | None, UserSession, list[tuple[Message, str]]]:
    """Run one session of `user_id` with the provider answering `provider_key`.

    `record` is None when the locker has no record for `user_id`. Time is
    the simulator's hop clock: the auth request lands at 2, the provider
    key at 4 and the ack at 8, against the one ack deadline,
    `DEFAULT_TIMEOUT_MS`. Returns the locker's final session (None when it
    refused an id with no record), timed out at its deadline + 1 if the user
    stopped before the ack, the user agent's final session, and every
    message sent with its sender, in order.
    """
    msg, user = user_begin_session(user_id, key, rng=rng_user)
    records = {} if record is None else {record.user_id: record}
    sent = []
    locker = None
    now = 0
    sender = ACTOR_USER
    while msg is not None:
        sent.append((msg, sender))
        now += 2  # two 1 ms hops: across the provider seat, or to it and back
        reply = provider_on_message(provider_key, msg)
        if reply is not None:  # the provider answers; the rest it relays
            msg = reply
            sent.append((msg, ACTOR_PROVIDER))
        if msg.kind in TO_USER:
            user, msg = user_on_message(user, user_id, key, phrase, msg)
            sender = ACTOR_USER
        else:
            locker, msg = locker_on_message(records, h_r, locker, msg, now=now, rng=rng_locker)
            sender = ACTOR_LOCKER
    if locker is not None and locker.deadline is not None:
        locker = locker_check_timeout(locker, locker.deadline + 1)
    return locker, user, sent


class World(NamedTuple):
    """A deployment drawn from a seed: the provider key R and h(R), and the
    one registered user's id, key, phrase and record."""

    seed: int
    provider_key: SecretKey
    h_r: Digest
    user_id: str
    user_key: SecretKey
    phrase: str
    records: dict[str, LockerRecord]  # the one user's record, by user id


def seeded_world(seed: int) -> World:
    """The world both drivers run in: R, then alice's key and phrase, from
    `SeededRng(seed, b"setup")`, and alice's record sealed with
    `SeededRng(seed, b"register")`. Each call builds a new records dict, so
    a caller may register more users in it."""
    setup = SeededRng(seed, b"setup")
    provider_key = SecretKey(setup.take(16))
    user_key = SecretKey(setup.take(16))
    phrase = setup.take(8).hex()
    h_r = sha256(provider_key)
    record = register_user("alice", user_key, phrase, h_r, rng=SeededRng(seed, b"register"))
    return World(seed, provider_key, h_r, "alice", user_key, phrase, {"alice": record})
