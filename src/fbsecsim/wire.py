"""Bit-exact tagged payload encoding shared by publishers, subscribers and
the attack harness.

Per value: one tag byte, then the payload.
  0x40  BOOL false (no payload)
  0x41  BOOL true  (no payload)
  0x43  INT, 8 bytes big-endian two's complement
  0x50  STRING, 2-byte big-endian length then the bytes
A packet payload is the concatenation of value encodings; decoding must
consume the whole input.
"""

from __future__ import annotations

from .errors import MalformedPayload, StringTooLong
from .values import FALSE, TRUE, DataValue, Int, Str, Variant

TAG_FALSE = 0x40
TAG_TRUE = 0x41
TAG_INT = 0x43
TAG_STRING = 0x50


def encode(values: list[DataValue]) -> bytes:
    out = bytearray()
    for v in values:
        if v.variant is Variant.BOOL:
            out.append(TAG_TRUE if v.raw else TAG_FALSE)
        elif v.variant is Variant.INT:
            out.append(TAG_INT)
            out += v.raw.to_bytes(8, "big", signed=True)
        else:
            if len(v.raw) > 0xFFFF:
                raise StringTooLong(f"{len(v.raw)} bytes exceeds 65535")
            out.append(TAG_STRING)
            out += len(v.raw).to_bytes(2, "big")
            out += v.raw
    return bytes(out)


def try_decode(data: bytes) -> list[DataValue] | None:
    """`decode` for callers that only need accept or reject: None on
    malformed input, and no exception built."""
    values = _walk(data)
    return values if type(values) is list else None


def decode(data: bytes) -> list[DataValue]:
    """Inverse of encode; raises MalformedPayload on anything else."""
    values = _walk(data)
    if type(values) is list:
        return values
    offset, reason = values
    raise MalformedPayload(offset, reason if type(reason) is str else f"unknown tag 0x{reason:02x}")


def _walk(data: bytes) -> list[DataValue] | tuple[int, str | int]:
    """The decoded values, or (offset, reason or unknown tag byte) of the
    first malformed byte."""
    values: list[DataValue] = []
    i = 0
    n = len(data)
    while i < n:
        tag = data[i]
        if tag == TAG_FALSE:
            values.append(FALSE)
            i += 1
        elif tag == TAG_TRUE:
            values.append(TRUE)
            i += 1
        elif tag == TAG_INT:
            if i + 9 > n:
                return i + 1, "truncated INT"
            values.append(Int(int.from_bytes(data[i + 1:i + 9], "big", signed=True)))
            i += 9
        elif tag == TAG_STRING:
            if i + 3 > n:
                return i + 1, "truncated STRING length"
            length = int.from_bytes(data[i + 1:i + 3], "big")
            if i + 3 + length > n:
                return i + 3, "truncated STRING body"
            values.append(Str(data[i + 3:i + 3 + length]))
            i += 3 + length
        else:
            return i, tag
    return values
