"""Publisher/subscriber and client/server service blocks."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
from fbsecsim.values import Bool, Str, Variant
from fbsecsim.wire import decode

US = 1_000_000
GROUP = "239.192.0.2:61499"


class Harness:
    def __init__(self):
        self.sched = Scheduler()
        self.tr = Transport(self.sched, latency_us=500)
        self.plc1 = self.tr.add_device(DeviceModel("plc1", ip_to_int("192.168.1.1")))
        self.plc2 = self.tr.add_device(DeviceModel("plc2", ip_to_int("192.168.1.2")))
        self.net1 = FBNetwork(self.sched, Trace(enabled=True), services={"transport": self.tr})
        self.net2 = FBNetwork(self.sched, Trace(enabled=True), services={"transport": self.tr})
        self.sent = []
        self.tr.on_send = self.sent.append

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


class TestClientServer:
    def wire(self, h):
        h.net2.add(make_server("SRV", h.net2, h.tr, "plc2", 61500))
        h.net2.set_data_in("SRV", "QI", Bool(True))
        h.net2.dispatch("SRV", "INIT")
        cli_dev = h.tr.add_device(DeviceModel("cli", ip_to_int("192.168.1.30")))
        net_c = FBNetwork(h.sched, Trace(enabled=False), services={"transport": h.tr})
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
