"""Publisher/subscriber and client/server service blocks."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbsecsim import csifb
from fbsecsim.csifb import make_client, make_publisher, make_server, make_subscriber
from fbsecsim.errors import MalformedPayload
from fbsecsim.fbnet import FBNetwork, Scheduler, Trace
from fbsecsim.transport import (
    DeviceModel,
    Endpoint,
    GroupAddress,
    PacketView,
    Proto,
    Transport,
    ip_to_int,
)
from fbsecsim.values import Bool, DataValue, Str, Variant
from fbsecsim.wire import decode, try_decode

US = 1_000_000
GROUP = "239.192.0.2:61499"


class SendLog:
    """Stands in for the run's `metrics.Recorder`: keeps each sent packet."""

    publisher_id = "plc1"

    def __init__(self):
        self.sent = []

    def on_send(self, packet):
        self.sent.append(packet)

    def on_presented(self, origin, view, verdict, now):
        pass

    def on_delivered(self, packet, now):
        pass


class Harness:
    def __init__(self):
        self.sched = Scheduler()
        self.tr = Transport(self.sched, latency_us=500)
        self.plc1 = self.tr.add_device(DeviceModel("plc1", ip_to_int("192.168.1.1")))
        self.plc2 = self.tr.add_device(DeviceModel("plc2", ip_to_int("192.168.1.2")))
        self.net1 = FBNetwork(self.sched, Trace(), services={"transport": self.tr})
        self.net2 = FBNetwork(self.sched, Trace(), services={"transport": self.tr})
        self.tr.recorder = SendLog()
        self.sent = self.tr.recorder.sent

    def with_publisher(self):
        self.net1.add(make_publisher("PUB", self.tr, "plc1", self.plc1.address, 40001))
        self.net1.set_data_in("PUB", "QI", Bool(True))
        self.net1.set_data_in("PUB", "ID", Str(GROUP))
        return self

    def with_subscriber(self):
        self.net2.add(make_subscriber("SUB", self.net2, self.tr, "plc2"))
        self.net2.set_data_in("SUB", "QI", Bool(True))
        self.net2.set_data_in("SUB", "ID", Str(GROUP))
        return self


class TestPublisher:
    def test_req_before_init_sends_nothing(self):
        h = Harness().with_publisher()
        h.net1.set_data_in("PUB", "SD_1", Bool(True))
        h.net1.dispatch("PUB", "REQ")
        assert h.sent == []
        assert h.net1.data_out("PUB", "QO").raw is False

    def test_one_packet_per_req_with_encoded_value(self):
        h = Harness().with_publisher()
        h.net1.dispatch("PUB", "INIT")
        h.net1.set_data_in("PUB", "SD_1", Bool(True))
        h.net1.dispatch("PUB", "REQ")
        assert len(h.sent) == 1
        pkt = h.sent[0]
        assert pkt.proto is Proto.UDP and pkt.payload == b"\x41"
        assert pkt.dst == GroupAddress(ip_to_int("239.192.0.2"), 61499)
        assert pkt.src == Endpoint("plc1", h.plc1.address, 40001)

    def test_two_reqs_strictly_increasing_send_time(self):
        h = Harness().with_publisher()
        h.net1.dispatch("PUB", "INIT")
        h.net1.set_data_in("PUB", "SD_1", Bool(True))
        h.sched.now = 100
        h.net1.dispatch("PUB", "REQ")
        h.sched.now = 2_000
        h.net1.dispatch("PUB", "REQ")
        assert [p.send_time for p in h.sent] == [100, 2_000]

    def test_qi_false_blocks_init(self):
        h = Harness().with_publisher()
        h.net1.set_data_in("PUB", "QI", Bool(False))
        h.net1.dispatch("PUB", "INIT")
        h.net1.set_data_in("PUB", "QI", Bool(True))
        h.net1.set_data_in("PUB", "SD_1", Bool(True))
        h.net1.dispatch("PUB", "REQ")
        assert h.sent == []


class TestSubscriber:
    def deliver(self, h, payload, origin="plc1"):
        src = Endpoint(origin, 1234, 40001)
        pkt = h.tr.make_packet(Proto.UDP, src, GroupAddress(ip_to_int("239.192.0.2"), 61499),
                               payload, origin)
        h.tr.send(pkt)
        h.sched.run_until(h.sched.now + 10_000)

    def test_valid_payload_fires_ind_once(self):
        h = Harness().with_subscriber()
        h.net2.dispatch("SUB", "INIT")
        self.deliver(h, b"\x41")
        assert h.net2.data_out("SUB", "RD_1").raw is True
        inds = [e for e in h.net2.trace.entries if e[0] == "emit" and e[3] == "IND"]
        assert len(inds) == 1
        assert h.net2.instances["SUB"].state.accepted == 1

    def test_malformed_counted_no_ind(self):
        h = Harness().with_subscriber()
        h.net2.dispatch("SUB", "INIT")
        self.deliver(h, b"\xff")
        assert h.net2.instances["SUB"].state.malformed == 1
        inds = [e for e in h.net2.trace.entries if e[0] == "emit" and e[3] == "IND"]
        assert inds == []
        assert h.net2.data_out("SUB", "QO").raw is False

    def test_spoofed_packet_with_valid_payload_fires_ind(self):
        """The subscriber cannot tell a forged publish from the real one."""
        h = Harness().with_subscriber()
        h.net2.dispatch("SUB", "INIT")
        self.deliver(h, b"\x41", origin="attacker1")
        assert h.net2.instances["SUB"].state.accepted == 1
        assert h.net2.data_out("SUB", "RD_1").raw is True

    def test_output_insensitive_to_origin(self):
        results = []
        for origin in ("plc1", "attacker1"):
            h = Harness().with_subscriber()
            h.net2.dispatch("SUB", "INIT")
            self.deliver(h, b"\x40", origin=origin)
            results.append((h.net2.instances["SUB"].state,
                            h.net2.data_out("SUB", "RD_1"),
                            h.net2.data_out("SUB", "QO")))
        assert results[0] == results[1]

    def test_wrong_arity_counts_malformed(self):
        h = Harness().with_subscriber()
        h.net2.dispatch("SUB", "INIT")
        self.deliver(h, b"\x41\x40")  # two values, one RD port
        assert h.net2.instances["SUB"].state.malformed == 1


def decodes_to_one_bool(payload: bytes) -> bool:
    try:
        values = decode(payload)
    except MalformedPayload:
        return False
    return len(values) == 1 and values[0].variant is Variant.BOOL


# Well-formed encodings of every variant and arity, and arbitrary bytes.
payloads = st.one_of(
    st.sampled_from([b"\x40", b"\x41", b"\x41\x40", b"\x43" + bytes(8), b"\x50\x00\x00", b""]),
    st.binary(max_size=12),
)


class TestSubscriberProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(payloads, max_size=25))
    def test_every_delivery_accepted_or_malformed(self, batch):
        h = Harness().with_subscriber()
        h.net2.dispatch("SUB", "INIT")
        handler = h.tr.sockets[("plc2", 61499)]
        state = h.net2.instances["SUB"].state
        inds = 0
        for payload in batch:
            accepted = state.accepted
            handler(PacketView(Proto.UDP, 1234, 40001, ip_to_int("239.192.0.2"), 61499, payload))
            fired = sum(1 for e in h.net2.trace.entries if e[0] == "emit" and e[3] == "IND")
            assert state.accepted - accepted == fired - inds == decodes_to_one_bool(payload)
            inds = fired
        assert state.accepted + state.malformed == len(batch)


class TestRxLatch:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=30))
    @example([3, 0, 3])            # valid, junk, valid
    @example([1, 2, 1, 2])         # equal junk in distinct objects, alternating
    @example([3, 5, 0, 5, 3, 4])   # equal valid in distinct objects, junk between
    def test_latch_holds_each_payload_delivered(self, picks):
        """Floods alternate a few payload objects; RX equals each packet's
        payload after its delivery, whether or not the object repeats, and
        the counts and RD_1 are those of decoding every packet afresh."""
        junk, junk_copy = b"\x00\x00", bytes(bytearray(b"\x00\x00"))
        true, true_copy = b"\x41", bytes(bytearray(b"\x41"))
        assert junk == junk_copy and junk is not junk_copy
        assert true == true_copy and true is not true_copy
        pool = [b"\x00", junk, junk_copy, true, b"\x40", true_copy, b"\x41\x40"]
        h = Harness().with_subscriber()
        h.net2.dispatch("SUB", "INIT")
        state = h.net2.instances["SUB"].state
        ep = Endpoint("plc2", h.plc2.address, 61499)
        group = GroupAddress(ip_to_int("239.192.0.2"), 61499)
        views = {}  # one view per payload object, as a flood shares one
        rd_1 = h.net2.data_out("SUB", "RD_1")
        for n in picks:
            payload = pool[n]
            pkt = h.tr.make_packet(Proto.UDP, Endpoint("attacker1", 1234, 40000), group,
                                   payload, "attacker1")
            h.tr.deliver(pkt, ep, views.setdefault(n, pkt.view()))
            assert h.net2.data_in("SUB", "RX") == DataValue(Variant.STRING, payload)
            if decodes_to_one_bool(payload):
                rd_1 = decode(payload)[0]
            assert h.net2.data_out("SUB", "RD_1") == rd_1
        accepted = sum(decodes_to_one_bool(pool[n]) for n in picks)
        assert (state.accepted, state.malformed) == (accepted, len(picks) - accepted)


def fresh_rd_1(payload: bytes) -> DataValue | None:
    """The value a fresh `try_decode` of the payload latches on RD_1, or
    None when the subscriber must count it malformed."""
    values = try_decode(payload)
    if values is not None and len(values) == 1 and values[0].variant is Variant.BOOL:
        return values[0]
    return None


# Payloads of every kind; a pick of (n, True) delivers a new but equal object.
_POOL = [b"\x40", b"\x41", b"\x43" + (-5).to_bytes(8, "big", signed=True), b"\x41\x40",
         b"\x50\x00\x01A", b"\x00", b"\x43\x00", b""]


class TestDecodeMemo:
    def test_interleaved_floods_decode_each_payload_once(self, monkeypatch):
        """Junk and replay floods alternate on one subscriber; each payload,
        one object per flood, is decoded once however they interleave."""
        decoded = []
        monkeypatch.setattr(csifb, "try_decode", lambda raw: decoded.append(raw) or try_decode(raw))
        h = Harness().with_subscriber()
        h.net2.dispatch("SUB", "INIT")
        handler = h.tr.sockets[("plc2", 61499)]
        dst = ip_to_int("239.192.0.2")
        junk = PacketView(Proto.UDP, 1234, 40000, dst, 61499, b"\x00")
        replay = PacketView(Proto.UDP, 1235, 40000, dst, 61499, b"\x40")
        for _ in range(500):
            handler(junk)
            handler(replay)
        state = h.net2.instances["SUB"].state
        assert (state.accepted, state.malformed) == (500, 500)
        assert decoded == [b"\x00", b"\x40"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(_POOL) - 1), st.booleans()), max_size=40)
           | st.lists(st.tuples(st.binary(max_size=4), st.booleans()), max_size=40),
           st.sampled_from([1, 2, 256]))
    def test_counts_and_rd_1_match_a_fresh_decode(self, picks, memo_size):
        """Any payload sequence, whatever the memo's size: the counts and
        RD_1 after each packet are those of decoding it afresh."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(csifb, "_DECODED_MAX", memo_size)
            h = Harness().with_subscriber()
            h.net2.dispatch("SUB", "INIT")
            handler = h.tr.sockets[("plc2", 61499)]
            state = h.net2.instances["SUB"].state
            rd_1 = h.net2.data_out("SUB", "RD_1")
            accepted = 0
            for n, (payload, copy) in enumerate(picks, start=1):
                if type(payload) is int:
                    payload = _POOL[payload]
                if copy:
                    payload = bytes(bytearray(payload))
                handler(PacketView(Proto.UDP, 1234, 40001, ip_to_int("239.192.0.2"), 61499,
                                   payload))
                value = fresh_rd_1(payload)
                if value is not None:
                    accepted += 1
                    rd_1 = value
                assert h.net2.data_in("SUB", "RX") == DataValue(Variant.STRING, payload)
                assert h.net2.data_out("SUB", "RD_1") == rd_1
                assert (state.accepted, state.malformed) == (accepted, n - accepted)


class TestJunkWithoutDispatch:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(_POOL) - 1),
                              st.sampled_from(["", "", "suspend", "resume", "down", "up"])),
                    max_size=30))
    def test_untraced_receipts_match_traced_ones(self, steps):
        """An untraced subscriber takes junk without dispatching `RCV`; after
        every receipt it holds the latches, counts and suppressed count of
        a traced one, which dispatches each, whatever came before and
        whether the block is suspended or its host down."""
        seen = []
        for traced in (True, False):
            h = Harness().with_subscriber()
            h.net2.host = h.plc2
            h.net2.trace = Trace() if traced else None
            h.net2.dispatch("SUB", "INIT")
            handler = h.tr.sockets[("plc2", 61499)]
            sub = h.net2.instances["SUB"]
            states = []
            for pick, how in steps:
                if how == "suspend":
                    h.net2.suspended.add("SUB")
                elif how == "resume":
                    h.net2.suspended.discard("SUB")
                else:
                    h.plc2.down = how == "down" or (h.plc2.down and how != "up")
                handler(PacketView(Proto.UDP, 1234, 40001, ip_to_int("239.192.0.2"), 61499,
                                   _POOL[pick]))
                states.append((sub.din.copy(), sub.dout.copy(), dataclasses.astuple(sub.state),
                               h.net2.suppressed))
            seen.append(states)
        assert seen[0] == seen[1]


class TestCountOnlyAnswer:
    """The subscriber's socket handler names its `malformed` counter only
    when receiving the view now would change nothing else."""

    JUNK = PacketView(Proto.UDP, 1234, 40000, ip_to_int("239.192.0.2"), 61499, b"\xff\x01")
    VALID = JUNK._replace(payload=b"\x41")

    def primed(self):
        """An untraced subscriber that has just received JUNK."""
        h = Harness().with_subscriber()
        h.net2.trace = None
        h.net2.host = h.plc2
        h.net2.dispatch("SUB", "INIT")
        handler = h.tr.sockets[("plc2", 61499)]
        handler(self.JUNK)
        return h, handler

    def test_counts_junk_it_has_just_received(self):
        h, handler = self.primed()
        count = handler.count_only(self.JUNK)
        count(3)
        assert h.net2.instances["SUB"].state.malformed == 4
        assert h.tr._seq == 0  # the transport takes the sequence numbers

    def spoil(self, h, handler, how):
        if how == "traced":
            h.net2.trace = Trace()
        elif how == "suspended":
            h.net2.suspended.add("SUB")
        elif how == "host down":
            h.plc2.down = True
        elif how == "QO true":  # a valid payload last, or INIT, set it
            h.net2.set_data_out("SUB", "QO", Bool(True))
        elif how == "RX holds other junk":  # a receive would latch RX again
            handler(self.JUNK._replace(payload=b"\x00"))
        elif how == "valid payload":  # RX holds it while QO still reads false
            h.net2.suspended.add("SUB")
            handler(self.VALID)
            h.net2.suspended.discard("SUB")
            return self.VALID
        return self.JUNK

    @pytest.mark.parametrize("how", ["traced", "suspended", "host down", "valid payload"])
    def test_no_counter_when_a_receive_would_do_more(self, how):
        h, handler = self.primed()
        view = self.spoil(h, handler, how)
        assert h.net2.data_out("SUB", "QO") == Bool(False)
        assert handler.count_only(view) is None

    @pytest.mark.parametrize("how", ["QO true", "RX holds other junk"])
    def test_counter_latches_what_a_receive_would(self, how):
        """Junk received when the latches hold something else: counting k
        receipts leaves the subscriber as k receipts through the handler
        do, and counting none changes nothing."""
        seen = []
        for counted in (True, False):
            h, handler = self.primed()
            view = self.spoil(h, handler, how)
            sub = h.net2.instances["SUB"]
            if counted:
                count = handler.count_only(view)
                before = (sub.din.copy(), sub.dout.copy(), sub.state.malformed)
                count(0)
                assert (sub.din, sub.dout, sub.state.malformed) == before
                count(3)
            else:
                for _ in range(3):
                    handler(view)
            seen.append((sub.din.copy(), sub.dout.copy(), sub.state.malformed, h.net2.suppressed))
        assert seen[0] == seen[1]
        assert seen[0][1]["QO"] == Bool(False)


class TestClientServer:
    def wire(self, h):
        h.net2.add(make_server("SRV", h.net2, h.tr, "plc2", 61500))
        h.net2.set_data_in("SRV", "QI", Bool(True))
        h.net2.dispatch("SRV", "INIT")
        cli_dev = h.tr.add_device(DeviceModel("cli", ip_to_int("192.168.1.30")))
        net_c = FBNetwork(h.sched, services={"transport": h.tr})
        client = make_client("CLIENT", net_c, h.tr, "cli", cli_dev.address, 53000)
        net_c.add(client)
        net_c.set_data_in("CLIENT", "ID", Str("plc2@192.168.1.2:61500"))
        return net_c, client

    def test_handshake_then_data(self):
        h = Harness()
        net_c, client = self.wire(h)
        net_c.dispatch("CLIENT", "INIT")
        h.sched.run_until(5_000)
        assert client.state.connected
        assert client.state.attempts[0].established == 1_000  # two hops
        net_c.set_data_in("CLIENT", "SD_1", Bool(True))
        net_c.dispatch("CLIENT", "REQ")
        h.sched.run_until(10_000)
        assert h.net2.instances["SRV"].state.received == 1

    def test_server_ignores_unestablished_data(self):
        h = Harness()
        self.wire(h)
        stray_src = Endpoint("cli", ip_to_int("192.168.1.30"), 53000)
        pkt = h.tr.make_packet(Proto.TCP_DATA, stray_src,
                               Endpoint("plc2", h.plc2.address, 61500), b"\x41", "cli")
        h.tr.send(pkt)
        h.sched.run_until(5_000)
        assert h.net2.instances["SRV"].state.received == 0
        assert h.plc2.stray_data == 1

    def test_req_before_connect_refused_locally(self):
        h = Harness()
        net_c, client = self.wire(h)
        net_c.set_data_in("CLIENT", "SD_1", Bool(True))
        net_c.dispatch("CLIENT", "REQ")
        assert not client.state.connected
        assert h.plc2.offered == 0
