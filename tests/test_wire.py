"""Payload codec: fixed vectors, round-trip property, decode totality."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsecsim.errors import MalformedPayload, StringTooLong
from fbsecsim.values import Bool, Int, Str
from fbsecsim.wire import decode, encode, try_decode


class TestFixedVectors:
    def test_bool_true(self):
        assert encode([Bool(True)]) == b"\x41"

    def test_bool_false(self):
        assert encode([Bool(False)]) == b"\x40"

    def test_int_then_bool(self):
        # hand-assembled: tag 0x43, 8-byte big-endian 1, then true
        assert encode([Int(1), Bool(True)]) == b"\x43\x00\x00\x00\x00\x00\x00\x00\x01\x41"

    def test_empty_list(self):
        assert encode([]) == b""
        assert decode(b"") == []

    def test_decode_single_true(self):
        assert decode(b"\x41") == [Bool(True)]


class TestErrors:
    def test_truncated_int_offset(self):
        with pytest.raises(MalformedPayload) as exc:
            decode(b"\x43\x00\x01")
        assert exc.value.offset == 1

    def test_unknown_tag(self):
        with pytest.raises(MalformedPayload) as exc:
            decode(b"\xff")
        assert exc.value.offset == 0

    def test_trailing_garbage_rejected(self):
        with pytest.raises(MalformedPayload):
            decode(b"\x41\xff")

    def test_truncated_string_body(self):
        with pytest.raises(MalformedPayload):
            decode(b"\x50\x00\x05ab")

    def test_string_too_long(self):
        with pytest.raises(StringTooLong):
            encode([Str(b"x" * 65536)])

    def test_string_at_limit_roundtrips(self):
        vs = [Str(b"x" * 65535)]
        assert decode(encode(vs)) == vs


def random_values(rng, max_len=6):
    out = []
    for _ in range(rng.randrange(max_len + 1)):
        pick = rng.random()
        if pick < 0.4:
            out.append(Bool(rng.random() < 0.5))
        elif pick < 0.7:
            out.append(Int(rng.randrange(-2**63, 2**63)))
        else:
            out.append(Str(rng.randbytes(rng.randrange(32))))
    return out


class TestProperties:
    def test_roundtrip_seeded(self):
        rng = random.Random(0xC0DEC)
        for _ in range(1000):
            vs = random_values(rng)
            assert decode(encode(vs)) == vs

    def test_decode_totality_fuzz(self):
        """Arbitrary bytes either decode (and re-encode identically) or
        raise MalformedPayload; nothing else may escape."""
        rng = random.Random(0xF00D)
        ok = bad = 0
        for _ in range(10_000):
            blob = rng.randbytes(rng.randrange(64))
            try:
                vs = decode(blob)
            except MalformedPayload:
                bad += 1
            else:
                ok += 1
                assert encode(vs) == blob
        assert ok + bad == 10_000
        assert bad > 0  # fuzz actually exercised the reject path


# Arbitrary bytes, and runs of tagged values that may be cut short anywhere.
_blobs = st.one_of(
    st.binary(max_size=40),
    st.lists(st.one_of(
        st.sampled_from([b"\x40", b"\x41"]),
        st.binary(max_size=10).map(lambda b: b"\x43" + b),
        st.binary(max_size=6).map(lambda b: b"\x50\x00" + bytes([len(b)]) + b),
        st.binary(max_size=4).map(lambda b: b"\x50" + b),
    ), max_size=6).map(b"".join),
)


class TestTryDecode:
    @settings(max_examples=500, deadline=None)
    @given(_blobs)
    def test_none_exactly_when_decode_raises(self, blob):
        try:
            want = decode(blob)
        except MalformedPayload:
            want = None
        assert try_decode(blob) == want

    def test_decode_keeps_offset_and_reason(self):
        cases = {
            b"\x41\x43\x00": (2, "truncated INT"),
            b"\x50\x00": (1, "truncated STRING length"),
            b"\x50\x00\x02a": (3, "truncated STRING body"),
            b"\x40\x07": (1, "unknown tag 0x07"),
        }
        for blob, (offset, reason) in cases.items():
            assert try_decode(blob) is None
            with pytest.raises(MalformedPayload) as exc:
                decode(blob)
            assert (exc.value.offset, exc.value.reason) == (offset, reason)
