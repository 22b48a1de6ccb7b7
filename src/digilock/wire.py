"""Wire framing for protocol messages.

Frame layout, bit-exact: version byte 0x01, kind byte, 2-byte big-endian
field count, then each field as a 4-byte big-endian length prefix followed
by the field bytes. The same length-prefixed field encoding doubles as the
canonical way to concatenate values before hashing, which keeps digests
unambiguous for adjacent variable-length inputs. A message is framed
once: `encode` keeps its frame, and a decoded message keeps the bytes it
came from, so a relay hop reuses the frame of the message it forwards.
`flip_field_bit` is the tamper move the simulator and the model checker
share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from .crypto import DIGEST_LEN, MAX_KEY_LEN, NONCE_LEN, SEALED_MIN_LEN

VERSION = 0x01
USER_ID_MAX = 64  # UTF-8 bytes
_LABEL_MAX = 64  # a result or error label

_LEN_PREFIX = 4
_COUNT_PREFIX = 2
_HEADER = 2  # version + kind


class WireError(Exception):
    """Base class for framing failures."""


class TruncatedEncoding(WireError):
    """A declared length runs past the end of the buffer."""


class TrailingBytes(WireError):
    """Leftover bytes after the declared content was consumed."""


class BadFrame(WireError):
    """Version, kind, field count, or field length out of contract."""


class MessageKind(enum.IntEnum):
    AUTH_REQUEST = 0x01
    PROVIDER_KEY_REQUEST = 0x02
    PROVIDER_KEY = 0x03
    CHALLENGE = 0x04
    ACK = 0x05
    RESULT = 0x06
    ERROR = 0x7F

    def __init__(self, value: int) -> None:
        self.label = self.name.lower().replace("_", "-")  # a plain attribute, read per hop


# (min, max) length per field, by kind. AuthRequest carries
# [user id, PRF proof digest, nonce]; Challenge carries one opaque sealed
# blob, at least as long as crypto.seal's shortest output.
_FIELD_LIMITS: dict[MessageKind, tuple[tuple[int, int], ...]] = {
    MessageKind.AUTH_REQUEST: ((1, USER_ID_MAX), (DIGEST_LEN, DIGEST_LEN), (NONCE_LEN, NONCE_LEN)),
    MessageKind.PROVIDER_KEY_REQUEST: (),
    MessageKind.PROVIDER_KEY: ((1, MAX_KEY_LEN),),
    MessageKind.CHALLENGE: ((SEALED_MIN_LEN, 1 << 20),),
    MessageKind.ACK: ((DIGEST_LEN, DIGEST_LEN),),
    MessageKind.RESULT: ((1, _LABEL_MAX),),
    MessageKind.ERROR: ((1, _LABEL_MAX),),
}


def encode_fields(fields: Iterable[bytes]) -> bytes:
    """Length-prefix and concatenate a field list (arbitrary bytes allowed)."""
    parts: list[bytes] = []
    append = parts.append
    for field in fields:
        append(len(field).to_bytes(_LEN_PREFIX, "big"))
        append(field)
    return b"".join(parts)


def decode_fields(data: bytes) -> list[bytes]:
    """Inverse of encode_fields; recovers the exact field list."""
    fields: list[bytes] = []
    pos = 0
    end = len(data)
    while pos < end:
        if end - pos < _LEN_PREFIX:
            raise TrailingBytes(f"{end - pos} stray byte(s) after last field")
        length = int.from_bytes(data[pos : pos + _LEN_PREFIX], "big")
        pos += _LEN_PREFIX
        if end - pos < length:
            raise TruncatedEncoding(
                f"field declares {length} bytes, only {end - pos} remain"
            )
        fields.append(data[pos : pos + length])
        pos += length
    return fields


@dataclass(frozen=True)
class Message:
    """A tagged, framed protocol message."""

    kind: MessageKind
    fields: tuple[bytes, ...]
    _frame = None  # set by the first encode; not a field, so not in ==, hash or repr

    def __post_init__(self) -> None:
        fields = tuple(map(bytes, self.fields))
        object.__setattr__(self, "fields", fields)
        _check_fields(self.kind, fields)

    def encode(self) -> bytes:
        frame = self._frame
        if frame is None:
            head = bytes((VERSION, self.kind))
            count = len(self.fields).to_bytes(_COUNT_PREFIX, "big")
            frame = head + count + encode_fields(self.fields)
            object.__setattr__(self, "_frame", frame)
        return frame

    @classmethod
    def decode(cls, raw: bytes) -> "Message":
        if len(raw) < _HEADER + _COUNT_PREFIX:
            raise TruncatedEncoding("frame shorter than header")
        if raw[0] != VERSION:
            raise BadFrame(f"unsupported version byte 0x{raw[0]:02x}")
        try:
            kind = MessageKind(raw[1])
        except ValueError:
            raise BadFrame(f"unknown message kind 0x{raw[1]:02x}") from None
        count = int.from_bytes(raw[_HEADER : _HEADER + _COUNT_PREFIX], "big")
        body = raw[_HEADER + _COUNT_PREFIX :]
        fields = decode_fields(body)
        if len(fields) != count:
            raise BadFrame(f"declared {count} fields, found {len(fields)}")
        msg = cls(kind, tuple(fields))
        object.__setattr__(msg, "_frame", bytes(raw))  # the only frame of these fields
        return msg


def _check_fields(kind: MessageKind, fields: Sequence[bytes]) -> None:
    limits = _FIELD_LIMITS[kind]
    if len(fields) != len(limits):
        raise BadFrame(
            f"{kind.label} takes {len(limits)} field(s), got {len(fields)}"
        )
    for i, (lo, hi) in enumerate(limits):
        if not lo <= len(fields[i]) <= hi:
            raise BadFrame(
                f"{kind.label} field {i} length {len(fields[i])} outside [{lo}, {hi}]"
            )


def flip_field_bit(msg: Message, field_index: int, bit: int = 0) -> Message:
    """Return a copy of msg with one bit of one field inverted."""
    fields = list(msg.fields)
    mutated = bytearray(fields[field_index])
    mutated[bit // 8] ^= 1 << (bit % 8)
    fields[field_index] = bytes(mutated)
    return Message(msg.kind, tuple(fields))
