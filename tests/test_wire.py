import random

import pytest

from digilock.crypto import Digest, Nonce, SecretKey
from digilock.wire import (
    BadFrame,
    Message,
    MessageKind,
    TrailingBytes,
    TruncatedEncoding,
    decode_fields,
    encode_fields,
    flip_field_bit,
)

SAMPLES = {
    MessageKind.AUTH_REQUEST: (b"alice", b"\x01" * 32, b"\x02" * 16),
    MessageKind.PROVIDER_KEY_REQUEST: (),
    MessageKind.PROVIDER_KEY: (b"master-key",),
    MessageKind.CHALLENGE: (b"\x03" * 64,),
    MessageKind.ACK: (b"\x04" * 32,),
    MessageKind.RESULT: (b"open",),
    MessageKind.ERROR: (b"bad-user-key",),
}


def test_encode_empty():
    assert encode_fields([]) == b""
    assert decode_fields(b"") == []


def _encode_reference(fields) -> bytes:
    out = b""
    for field in fields:
        out += len(field).to_bytes(4, "big") + bytes(field)
    return out


@pytest.mark.parametrize(
    "fields",
    [
        [],
        [b""],
        [b"", b""],
        [Digest(b"\x01" * 32), Nonce(b"\x02" * 16), b"alice", b""],
        (SecretKey(b"k"), bytearray(b"ba"), b"\x00" * 300),
    ],
    ids=["none", "one-empty", "two-empty", "digest-nonce-bytes", "key-bytearray-long"],
)
def test_encode_fields_matches_a_reference(fields):
    encoded = encode_fields(fields)
    assert type(encoded) is bytes
    assert encoded == _encode_reference(fields)
    assert decode_fields(encoded) == [bytes(f) for f in fields]


def test_encode_decode_round_trip_random():
    rnd = random.Random(0xF1E1D)
    for _ in range(500):
        fields = [rnd.randbytes(rnd.randrange(0, 64)) for _ in range(rnd.randrange(0, 6))]
        assert decode_fields(encode_fields(fields)) == fields


def test_fields_may_contain_any_bytes():
    fields = [b"\x1f\x00\xff", b"", bytes(range(256))]
    assert decode_fields(encode_fields(fields)) == fields


def test_decode_trailing_byte():
    with pytest.raises(TrailingBytes):
        decode_fields(encode_fields([b"a"]) + b"\x00")


def test_decode_truncated_field():
    encoded = encode_fields([b"abcdef"])
    with pytest.raises(TruncatedEncoding):
        decode_fields(encoded[:-2])


def test_message_encode_layout():
    msg = Message(MessageKind.ACK, (b"\x07" * 32,))
    for raw in (msg.encode(), msg.encode()):  # the second call returns the kept frame
        assert raw[0] == 0x01  # version
        assert raw[1] == 0x05  # ack kind tag
        assert raw[2:4] == b"\x00\x01"  # field count
        assert raw[4:8] == b"\x00\x00\x00\x20"  # field length
        assert raw[8:] == b"\x07" * 32


def test_message_round_trip_all_kinds():
    for kind, fields in SAMPLES.items():
        msg = Message(kind, fields)
        raw = msg.encode()
        decoded = Message.decode(raw)
        assert decoded == msg
        assert decoded.encode() == raw


def test_flipped_copy_encodes_its_own_bytes():
    raw = b"\x01\x05\x00\x01\x00\x00\x00\x20" + b"\x07" * 32
    for msg in (Message(MessageKind.ACK, (b"\x07" * 32,)), Message.decode(raw)):
        assert msg.encode() == raw  # framed before the copy is made
        flipped = flip_field_bit(msg, 0, 3)
        assert flipped.encode() == raw[:8] + b"\x0f" + b"\x07" * 31
        assert Message.decode(flipped.encode()) == flipped
        assert msg.encode() == raw


def test_frame_memo_takes_no_part_in_equality_hash_or_repr():
    framed = Message(MessageKind.RESULT, (b"open",))
    raw = framed.encode()
    plain = Message(MessageKind.RESULT, (b"open",))
    decoded = Message.decode(raw)
    assert framed == plain == decoded
    assert hash(framed) == hash(plain) == hash(decoded)
    assert len({framed, plain, decoded}) == 1
    assert repr(framed) == repr(plain) == repr(decoded)
    assert "frame" not in repr(framed) and repr(raw) not in repr(framed)


def test_message_round_trip_random_auth_requests():
    rnd = random.Random(0xAB)
    for _ in range(200):
        msg = Message(
            MessageKind.AUTH_REQUEST,
            (rnd.randbytes(rnd.randrange(1, 65)), rnd.randbytes(32), rnd.randbytes(16)),
        )
        assert Message.decode(msg.encode()) == msg


def test_decode_rejects_bad_version():
    raw = bytearray(Message(MessageKind.RESULT, (b"open",)).encode())
    raw[0] = 0x02
    with pytest.raises(BadFrame):
        Message.decode(bytes(raw))


def test_decode_rejects_unknown_kind():
    raw = bytearray(Message(MessageKind.RESULT, (b"open",)).encode())
    raw[1] = 0x42
    with pytest.raises(BadFrame):
        Message.decode(bytes(raw))


def test_decode_rejects_wrong_count():
    raw = bytearray(Message(MessageKind.RESULT, (b"open",)).encode())
    raw[3] = 2  # declare two fields while one is present
    with pytest.raises(BadFrame):
        Message.decode(bytes(raw))


def test_decode_rejects_trailing_garbage():
    raw = Message(MessageKind.RESULT, (b"open",)).encode() + b"\x00"
    with pytest.raises(TrailingBytes):
        Message.decode(raw)


def test_decode_rejects_short_frame():
    with pytest.raises(TruncatedEncoding):
        Message.decode(b"\x01\x05")


def test_field_count_enforced_on_build():
    with pytest.raises(BadFrame):
        Message(MessageKind.ACK, ())
    with pytest.raises(BadFrame):
        Message(MessageKind.ACK, (b"\x00" * 32, b"extra"))


def test_field_length_limits_enforced():
    with pytest.raises(BadFrame):
        Message(MessageKind.ACK, (b"\x00" * 31,))
    with pytest.raises(BadFrame):
        Message(MessageKind.AUTH_REQUEST, (b"", b"\x00" * 32, b"\x00" * 16))
    with pytest.raises(BadFrame):
        Message(MessageKind.CHALLENGE, (b"\x00" * 27,))


def test_kind_labels():
    assert MessageKind.AUTH_REQUEST.label == "auth-request"
    assert MessageKind.PROVIDER_KEY_REQUEST.label == "provider-key-request"
    assert MessageKind.ERROR.label == "error"
