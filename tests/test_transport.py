"""Device capacity model, half-open table, delivery ordering, spoof opacity."""

import random

import pytest

from fbsecsim.fbnet import Scheduler
from fbsecsim.transport import (
    DeviceModel,
    DeviceState,
    Endpoint,
    GroupAddress,
    HalfOpenTable,
    IngestResult,
    Packet,
    PacketView,
    Proto,
    Transport,
    int_to_ip,
    ip_to_int,
)

US = 1_000_000


def make_transport(latency=500):
    sched = Scheduler()
    return Transport(sched, latency_us=latency), sched


def plain_device(dev_id="plc2", addr="192.168.1.2", **kw):
    return DeviceModel(dev_id, ip_to_int(addr), **kw)


class TestAddressing:
    def test_roundtrip(self):
        for a in ("0.0.0.0", "192.168.1.1", "255.255.255.255", "239.192.0.2"):
            assert int_to_ip(ip_to_int(a)) == a

    @pytest.mark.parametrize("dotted,value", [
        ("0.0.0.0", 0),
        ("255.255.255.255", 0xFFFFFFFF),
        ("10.0.0.66", 0x0A000042),
    ])
    def test_pinned_values(self, dotted, value):
        assert ip_to_int(dotted) == value
        assert int_to_ip(value) == dotted

    def test_render(self):
        assert Endpoint("attacker1", ip_to_int("10.0.0.66"), 40000).render() == "10.0.0.66:40000"
        assert Endpoint("x", 0, 0).render() == "0.0.0.0:0"
        assert GroupAddress(0xFFFFFFFF, 61499).render() == "255.255.255.255:61499"

    def test_bad_address(self):
        with pytest.raises(ValueError):
            ip_to_int("192.168.1")
        with pytest.raises(ValueError):
            ip_to_int("300.0.0.1")


class TestMulticast:
    def test_join_and_idempotence(self):
        tr, _ = make_transport()
        sub = Endpoint("plc2", ip_to_int("192.168.1.2"), 61499)
        g = ip_to_int("239.192.0.2")
        tr.join_group(g, sub)
        assert tr.members(g) == [sub]
        tr.join_group(g, sub)
        assert tr.members(g) == [sub]

    def test_attacker_admitted_by_design(self):
        tr, _ = make_transport()
        g = ip_to_int("239.192.0.2")
        sub = Endpoint("plc2", ip_to_int("192.168.1.2"), 61499)
        evil = Endpoint("attacker1", ip_to_int("10.0.0.66"), 61499)
        tr.join_group(g, sub)
        tr.join_group(g, evil)
        assert tr.members(g) == [sub, evil]


class TestSendDeliver:
    def test_unicast_latency(self):
        tr, sched = make_transport(latency=500)
        dev = tr.add_device(plain_device())
        got = []
        tr.bind("plc2", 61499, lambda view: got.append(sched.now))
        src = Endpoint("plc1", ip_to_int("192.168.1.1"), 40001)
        dst = Endpoint("plc2", dev.address, 61499)
        tr.add_device(plain_device("plc1", "192.168.1.1"))
        sched.at(100, lambda: tr.send(tr.make_packet(Proto.UDP, src, dst, b"\x41", "plc1")))
        sched.run_until(10_000)
        assert got == [600]

    def test_multicast_two_members_same_instant(self):
        tr, sched = make_transport()
        d1 = tr.add_device(plain_device("plc2", "192.168.1.2"))
        d2 = tr.add_device(plain_device("hmi", "192.168.1.9"))
        tr.add_device(plain_device("plc1", "192.168.1.1"))
        g = GroupAddress(ip_to_int("239.192.0.2"), 61499)
        order = []
        tr.bind("plc2", 61499, lambda v: order.append(("plc2", sched.now)))
        tr.bind("hmi", 61499, lambda v: order.append(("hmi", sched.now)))
        tr.join_group(g.address, Endpoint("plc2", d1.address, 61499))
        tr.join_group(g.address, Endpoint("hmi", d2.address, 61499))
        src = Endpoint("plc1", ip_to_int("192.168.1.1"), 40001)
        tr.send(tr.make_packet(Proto.UDP, src, g, b"\x41", "plc1"))
        sched.run_until(10_000)
        assert order == [("plc2", 500), ("hmi", 500)]  # join order, one instant

    def test_simultaneous_arrivals_order_by_source_id(self):
        tr, sched = make_transport()
        dev = tr.add_device(plain_device())
        tr.add_device(plain_device("zeta", "10.0.0.9"))
        tr.add_device(plain_device("alpha", "10.0.0.8"))
        got = []
        tr.bind("plc2", 7, lambda v: got.append(int_to_ip(v.src_address)))
        dst = Endpoint("plc2", dev.address, 7)
        # zeta sends first; alpha's packet must still deliver first at the tie
        tr.send(tr.make_packet(Proto.UDP, Endpoint("zeta", ip_to_int("10.0.0.9"), 1), dst, b"", "zeta"))
        tr.send(tr.make_packet(Proto.UDP, Endpoint("alpha", ip_to_int("10.0.0.8"), 1), dst, b"", "alpha"))
        sched.run_until(10_000)
        assert got == ["10.0.0.8", "10.0.0.9"]

    def test_sender_down_counted(self):
        tr, sched = make_transport()
        dev = tr.add_device(plain_device("plc1", "192.168.1.1"))
        dev.state = DeviceState.UNRESPONSIVE
        ok = tr.send(tr.make_packet(
            Proto.UDP, Endpoint("plc1", dev.address, 1),
            Endpoint("plc2", 2, 2), b"", "plc1"))
        assert not ok and dev.sender_down == 1

    def test_icmp_is_device_load_only(self):
        """Echo packets never reach a bound socket, even on a matching port."""
        tr, sched = make_transport()
        dev = tr.add_device(plain_device())
        tr.add_device(plain_device("atk", "10.0.0.66"))
        hits = []
        tr.bind("plc2", 7, hits.append)
        src = Endpoint("atk", ip_to_int("10.0.0.66"), 7)
        tr.send(tr.make_packet(Proto.ICMP_ECHO, src, Endpoint("plc2", dev.address, 7), b"", "atk"))
        sched.run_until(10_000)
        assert hits == []
        assert dev.icmp_received == 1 and dev.ingested == 1


class TestIngest:
    def test_below_capacity_always_ingests(self):
        dev = plain_device(capacity=10_000)
        for i in range(100):
            assert dev.ingest(i * 10_000) is IngestResult.INGESTED

    def test_drop_fraction_matches_fluid_limit(self):
        """capacity 10k, offered 40k/s: expected drop fraction 1 - C/L = 0.75,
        measured over the steady window with +-0.02 tolerance."""
        dev = plain_device(capacity=10_000, seed=17)
        interval = US // 40_000
        drops = offered = 0
        t = 0
        while t < 3 * US:
            res = dev.ingest(t)
            if t >= US:  # skip the ramp-up second
                offered += 1
                drops += res is IngestResult.DROPPED_CAPACITY
            t += interval
        assert offered >= 79_000
        assert abs(drops / offered - 0.75) < 0.02

    def test_critical_rate_trips_unresponsive_within_one_second(self):
        dev = plain_device(capacity=10_000, critical_rate=1_000_000)
        t0 = 1_000
        t = t0
        while dev.state is not DeviceState.UNRESPONSIVE:
            dev.ingest(t)
            t += 1
        assert (t - 1) - t0 <= US
        assert dev.transitions[-1][1] is DeviceState.UNRESPONSIVE

    def test_unresponsive_is_absorbing(self):
        dev = plain_device(capacity=10, critical_rate=100)
        t = 0
        while dev.state is not DeviceState.UNRESPONSIVE:
            dev.ingest(t)
            t += 1
        before = dev.ingested
        for dt in (1, US, 50 * US):
            assert dev.ingest(t + dt) is IngestResult.DROPPED_UNRESPONSIVE
        assert dev.ingested == before

    def test_degraded_recovers_after_clean_window(self):
        dev = plain_device(capacity=100)
        for i in range(500):
            dev.ingest(i)  # burst far over capacity
        assert dev.state is DeviceState.DEGRADED
        assert dev.state_at(499 + US + 1) is DeviceState.RESPONSIVE

    def test_conservation_identity(self):
        dev = plain_device(capacity=1_000, critical_rate=30_000, seed=5)
        rng = random.Random(9)
        t = 0
        for _ in range(50_000):
            t += rng.randrange(1, 200)
            dev.ingest(t)
        c = dev.counters()
        assert c["offered"] == c["ingested"] + c["dropped_capacity"] + c["dropped_unresponsive"]

    def test_monotone_degradation_spearman(self):
        """Drop fraction non-decreasing in offered rate: Spearman rho > 0.99
        over 8 rates (hand-rolled rank correlation, no ties expected)."""
        rates = [20_000, 40_000, 60_000, 80_000, 100_000, 120_000, 140_000, 160_000]
        fractions = []
        for rate in rates:
            dev = plain_device(capacity=10_000, critical_rate=10**9, seed=23)
            interval = US // rate
            drops = offered = 0
            t = 0
            while t < 2 * US:
                res = dev.ingest(t)
                if t >= US:
                    offered += 1
                    drops += res is not IngestResult.INGESTED
                t += interval
            fractions.append(drops / offered)
        ranks = {v: i for i, v in enumerate(sorted(fractions))}
        rho = 1 - 6 * sum((ranks[f] - i) ** 2 for i, f in enumerate(fractions)) / (
            len(rates) * (len(rates) ** 2 - 1))
        assert rho > 0.99


class TestHalfOpen:
    def test_tipping_point_is_exact(self):
        """With the table full of live entries, acceptance probability is 0."""
        table = HalfOpenTable(capacity=128, timeout_us=3 * US)
        for i in range(128):
            assert table.syn(1000 + i, 1, 80, now=i)
        for attempt in range(50):
            assert not table.syn(5000 + attempt, 1, 80, now=1_000 + attempt)

    def test_ack_completes_and_clears(self):
        table = HalfOpenTable(capacity=4, timeout_us=3 * US)
        assert table.syn(7, 1234, 80, now=0)
        assert table.ack(7, 1234, 80)
        assert table.live(now=1) == 0

    def test_expired_slot_reclaimed(self):
        table = HalfOpenTable(capacity=1, timeout_us=3 * US)
        assert table.syn(1, 1, 80, now=0)
        assert not table.syn(2, 1, 80, now=2 * US)
        assert table.syn(2, 1, 80, now=3 * US)  # first entry aged out

    def test_syn_handshake_via_transport(self):
        tr, sched = make_transport()
        victim = tr.add_device(plain_device("plc2", "192.168.1.2"))
        client = tr.add_device(plain_device("cli", "192.168.1.30"))
        synacks = []
        tr.bind("cli", 5000, lambda v: synacks.append(v.proto))
        me = Endpoint("cli", client.address, 5000)
        srv = Endpoint("plc2", victim.address, 80)
        tr.send(tr.make_packet(Proto.TCP_SYN, me, srv, b"", "cli"))
        sched.run_until(10_000)
        assert synacks == [Proto.TCP_SYNACK]
        assert victim.syn_accepted == 1
        tr.send(tr.make_packet(Proto.TCP_ACK, me, srv, b"", "cli"))
        sched.run_until(20_000)
        assert victim.established_count == 1

    def test_stray_ack_counted(self):
        tr, sched = make_transport()
        victim = tr.add_device(plain_device("plc2", "192.168.1.2"))
        tr.add_device(plain_device("cli", "192.168.1.30"))
        me = Endpoint("cli", ip_to_int("192.168.1.30"), 5000)
        tr.send(tr.make_packet(Proto.TCP_ACK, me, Endpoint("plc2", victim.address, 80), b"", "cli"))
        sched.run_until(10_000)
        assert victim.stray_acks == 1

    def test_spoofed_synack_vanishes(self):
        tr, sched = make_transport()
        victim = tr.add_device(plain_device("plc2", "192.168.1.2"))
        tr.add_device(plain_device("atk", "10.0.0.66"))
        ghost = Endpoint("ghost-1", ip_to_int("10.66.0.1"), 1024)
        tr.send(tr.make_packet(Proto.TCP_SYN, ghost, Endpoint("plc2", victim.address, 80), b"", "atk"))
        sched.run_until(10_000)
        assert victim.syn_accepted == 1
        assert tr.undeliverable == 1  # the SYN-ACK had nowhere to go


class TestSpoofOpacity:
    def test_view_has_no_ground_truth(self):
        pkt = Packet(Proto.UDP, Endpoint("a", 1, 2), Endpoint("b", 3, 4),
                     b"", 0, "attacker1", 1)
        view = pkt.view()
        assert not hasattr(view, "true_origin")
        assert "true_origin" not in PacketView._fields

    def test_detection_and_csifb_sources_never_read_ground_truth(self):
        import fbsecsim.csifb, fbsecsim.idps
        for mod in (fbsecsim.idps, fbsecsim.csifb):
            with open(mod.__file__, "r", encoding="utf-8") as f:
                assert "true_origin" not in f.read(), mod.__name__

    def test_view_identical_across_origins(self):
        src = Endpoint("plc1", ip_to_int("192.168.1.1"), 40001)
        dst = GroupAddress(ip_to_int("239.192.0.2"), 61499)
        genuine = Packet(Proto.UDP, src, dst, b"\x41", 10, "plc1", 1)
        forged = Packet(Proto.UDP, src, dst, b"\x41", 10, "attacker1", 2)
        assert genuine.view() == forged.view()
