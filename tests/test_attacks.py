"""Attack generators: exact counts, phase splitting, crafting."""

import dataclasses
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbsecsim import attacks
from fbsecsim.attacks import (
    GHOST_ID,
    AttackKind,
    AttackSpec,
    attacker_device,
    craft_spoofed_publish,
    flood_clock,
    flood_count,
    schedule_flood,
)
from fbsecsim.config import AttackConfig, ScenarioConfig, validate
from fbsecsim.csifb import make_subscriber
from fbsecsim.errors import ConfigError, EventBudgetExceeded
from fbsecsim.fbnet import LANE_FB, LANE_NET, US, FBNetwork, Scheduler, Trace
from fbsecsim.idps import EngineMode, IdpsEngine, parse_rules
from fbsecsim.transport import (
    BUCKET_US,
    DeviceModel,
    DeviceState,
    Endpoint,
    GroupAddress,
    Packet,
    Proto,
    Transport,
    ip_to_int,
)
from fbsecsim.values import Bool, Str


def send_instant(first, per_rate, i):
    """Send instant of an attacker's packet `i`, from its `flood_clock`."""
    return first + i * US // per_rate


def iter_flood_times(s, attacker_index):
    """Send instants of one attacker, each computed when it is taken."""
    first, per_rate = flood_clock(s, attacker_index)
    for i in range(flood_count(s)):
        yield send_instant(first, per_rate, i)


def spec(kind=AttackKind.UDP_FLOOD, rate=1000, start=0, stop=US, count=1,
         target=None, **kw):
    if target is None:
        target = Endpoint("plc2", ip_to_int("192.168.1.2"), 61499)
    return AttackSpec(name="a", kind=kind, attacker_id="attacker1", target=target,
                      rate=rate, start=start, stop=stop, attacker_count=count, **kw)


class TestExactness:
    @pytest.mark.parametrize("rate,dur_s", [(1000, 1), (7, 3), (100, 2), (333, 1)])
    def test_count_is_floor_rate_times_duration(self, rate, dur_s):
        s = spec(rate=rate, stop=dur_s * US)
        assert flood_count(s) == rate * dur_s
        assert len(list(iter_flood_times(s, 0))) == rate * dur_s

    def test_fractional_duration_floors(self):
        s = spec(rate=2, stop=900_000)  # 0.9 s at 2/s
        assert flood_count(s) == 1

    def test_all_sends_inside_window(self):
        s = spec(rate=777, stop=2 * US)
        times = list(iter_flood_times(s, 0))
        assert times[0] >= s.start and times[-1] < s.stop
        assert times == sorted(times)

    def test_ddos_equivalence_per_whole_second(self):
        """k attackers at rate/k with phase offsets offer the aggregate rate."""
        s = spec(rate=1000, stop=3 * US, count=4)
        merged = sorted(t for j in range(4) for t in iter_flood_times(s, j))
        assert len(merged) == 3000
        per_second = Counter(t // US for t in merged)
        assert per_second == {0: 1000, 1: 1000, 2: 1000}

    def test_phase_offsets_distinct(self):
        s = spec(rate=100, stop=US, count=4)
        firsts = [next(iter_flood_times(s, j)) for j in range(4)]
        assert len(set(firsts)) == 4


class TestArmingMemory:
    @staticmethod
    def arm_peak(count):
        """Peak bytes allocated while arming a flood of `count` packets."""
        s = spec(rate=count, stop=US)
        sched = Scheduler()
        tr = Transport(sched)
        tr.add_device(DeviceModel("plc2", ip_to_int("192.168.1.2")))
        tracemalloc.start()
        try:
            schedule_flood(s, tr, sched, ip_to_int("10.0.0.66"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_arming_does_not_grow_with_flood_length(self):
        small = self.arm_peak(10**3)
        big = self.arm_peak(10**6)
        assert big < 1.5 * small + 1024, (small, big)

    def test_pumped_times_match_flood_times(self):
        s = spec(rate=300, stop=US, count=3)
        sched = Scheduler()
        tr = Transport(sched, latency_us=500)
        tr.add_device(DeviceModel("plc2", ip_to_int("192.168.1.2")))
        tr.bind("plc2", 61499, lambda v: None)
        sent = []
        for j in range(3):
            tr.watch_delivery(f"attacker1.{j}",
                              lambda pkt, now: sent.append((pkt.true_origin, pkt.send_time)))
        schedule_flood(s, tr, sched, ip_to_int("10.0.0.66"))
        sched.run_until(2 * US)
        for j in range(3):
            assert [t for o, t in sent if o == f"attacker1.{j}"] == list(iter_flood_times(s, j))


class TestValidation:
    def test_spoof_needs_times(self):
        cfg = ScenarioConfig(seed=1, attacks=[
            AttackConfig(name="s", kind=AttackKind.SPOOF_PUBLISH)])
        with pytest.raises(ConfigError) as exc:
            validate(cfg)
        assert exc.value.path == "attacks[0].at_s"


class TestCrafting:
    def test_spoof_wears_claimed_header_keeps_truth(self):
        sched = Scheduler()
        tr = Transport(sched)
        claimed = Endpoint("plc1", ip_to_int("192.168.1.1"), 40001)
        group = GroupAddress(ip_to_int("239.192.0.2"), 61499)
        pkt = craft_spoofed_publish(tr, "attacker1", claimed, group, b"\x41")
        assert pkt.src == claimed
        assert pkt.true_origin == "attacker1"
        assert pkt.proto is Proto.UDP and pkt.payload == b"\x41"

    def test_false_value_spoof_same_mechanism(self):
        sched = Scheduler()
        tr = Transport(sched)
        pkt = craft_spoofed_publish(
            tr, "attacker1", Endpoint("plc1", 1, 2),
            GroupAddress(ip_to_int("239.192.0.2"), 61499), b"\x40")
        assert pkt.payload == b"\x40"


class TestFloodRuns:
    def run_flood(self, s, victim=None):
        sched = Scheduler()
        tr = Transport(sched, latency_us=500)
        victim = victim or DeviceModel("plc2", ip_to_int("192.168.1.2"))
        tr.add_device(victim)
        devs = schedule_flood(s, tr, sched, ip_to_int("10.0.0.66"))
        sched.run_until(s.stop + US)
        return tr, victim, devs

    def test_udp_flood_offered_count_exact(self):
        s = spec(rate=5_000, stop=2 * US)
        _tr, victim, _devs = self.run_flood(s)
        assert victim.offered == 10_000

    def test_syn_flood_rotates_sources_and_fills_table(self):
        s = spec(kind=AttackKind.SYN_FLOOD, rate=1000, stop=US,
                 target=Endpoint("plc2", ip_to_int("192.168.1.2"), 61500))
        tr, victim, _devs = self.run_flood(s)
        assert victim.syn_accepted == 128          # table capacity
        assert victim.syn_refused == 1000 - 128
        assert tr.undeliverable == 128             # SYN-ACKs into the void
        # a legitimate connect during the flood is refused
        table = victim.halfopen
        assert not table.syn(ip_to_int("192.168.1.30"), 53000, 61500, now=500_000)

    def test_attacker_never_degrades(self):
        sched = Scheduler()
        tr = Transport(sched)
        dev = attacker_device(tr, "attacker1", ip_to_int("10.0.0.66"))
        for i in range(100_000):
            dev.ingest(i)
        assert dev.state is DeviceState.RESPONSIVE

    def test_bulk_accounting_after_collapse(self):
        victim = DeviceModel("plc2", ip_to_int("192.168.1.2"),
                             capacity=10_000, critical_rate=50_000)
        s = spec(kind=AttackKind.ICMP_FLOOD, rate=100_000, stop=3 * US,
                 target=Endpoint("plc2", ip_to_int("192.168.1.2"), 0))
        _tr, victim, _devs = self.run_flood(s, victim)
        assert victim.state is DeviceState.UNRESPONSIVE
        c = victim.counters()
        assert c["offered"] == 300_000  # bulk path keeps conservation exact
        assert c["offered"] == c["ingested"] + c["dropped_capacity"] + c["dropped_unresponsive"]

    def test_multi_attacker_ids_distinct(self):
        s = spec(rate=1000, stop=US, count=2)
        _tr, victim, devs = self.run_flood(s)
        assert [d.device_id for d in devs] == ["attacker1.0", "attacker1.1"]
        assert victim.offered == 1000

    def test_attribution_per_attacker_origin(self):
        """Every flood packet's ground truth names its actual sender."""
        sched = Scheduler()
        tr = Transport(sched, latency_us=500)
        victim = tr.add_device(DeviceModel("plc2", ip_to_int("192.168.1.2")))
        origins = []
        tr.bind("plc2", 61499, lambda v: None)
        for j in range(2):
            tr.watch_delivery(f"attacker1.{j}", lambda pkt, now: origins.append(pkt.true_origin))
        s = spec(rate=100, stop=US, count=2)
        schedule_flood(s, tr, sched, ip_to_int("10.0.0.66"))
        sched.run_until(2 * US)
        assert set(origins) == {"attacker1.0", "attacker1.1"}
        assert len(origins) == 100


class _HeapOnlyScheduler(Scheduler):
    """Reference scheduler: declines every inline run, so each flood packet
    makes the heap round trip."""

    def inline_bound(self):
        return -1, 0


class _LoggingDevice(DeviceModel):
    """Logs every arrival's fate with the event count, state and counters it
    left behind; a flood pump asks `ingest` (or `ingest_span`, for a segment
    of count-only arrivals) before it builds any packet."""

    def __init__(self, log, scheduler, *args, **kw):
        super().__init__(*args, **kw)
        self.log, self.scheduler = log, scheduler

    def fate_counters(self):
        return self.offered, self.ingested, self.dropped_capacity, self.dropped_unresponsive

    def ingest(self, now):
        return self.logged(now, self.scheduler.processed, super().ingest)

    def ingest_span(self, base, per_rate, lo, hi):
        """Takes each arrival in a one-arrival call and logs it with the
        event count it runs as on the per-packet path: a segment's first
        arrival is the event running now, and each next one a further event.
        Spans of many arrivals are pinned by `test_transport.TestIngestSpan`."""
        span = super().ingest_span
        taken = ingested = 0
        for m in range(lo, hi):
            ingested += self.logged(base + m * US // per_rate, self.scheduler.processed + taken,
                                    lambda _: span(base, per_rate, m, m + 1) == (1, 1))
            taken += 1
            if self.down:
                break
        return taken, ingested

    def logged(self, now, processed, ingest):
        before = self.fate_counters()
        ok = ingest(now)
        after = self.fate_counters()
        # one offer and exactly one fate counter moved, by one; True just for `ingested`
        delta = tuple(a - b for a, b in zip(after, before))
        assert delta in ((1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)) and ok is (delta[1] == 1)
        self.log.append((now, processed, self.device_id, ok, delta, self.state, *after))
        return ok


class _LoggingTransport(Transport):
    """Logs every ingested packet as `arrive` gets it; with its devices'
    ingest log, every arrival crosses the log whatever path it took."""

    def __init__(self, scheduler, latency_us, seqs=True):
        super().__init__(scheduler, latency_us)
        self.log = []
        self.seqs = seqs  # False: log packets without their sequence numbers

    def device(self, device_id, address, **kw):
        return self.add_device(_LoggingDevice(self.log, self.scheduler, device_id, address, **kw))

    def arrive(self, device, packet, ep, view, now):
        self.log.append((now, ep.device_id, packet if self.seqs else packet._replace(seq=None)))
        super().arrive(device, packet, ep, view, now)


def run_flood_case(sched, s, latency, critical_rate, group, timers, horizons):
    """Run flood `s` on `sched` up to each horizon in turn, with timers (some
    of which send a packet) keyed as given and one more timer set after each
    horizon; return everything an observer could tell apart."""
    tr = _LoggingTransport(sched, latency)
    victim = tr.device("plc2", ip_to_int("192.168.1.2"), capacity=20, critical_rate=critical_rate)
    peer = tr.device("plc3", ip_to_int("192.168.1.3"))
    sender = tr.device("plc1", ip_to_int("192.168.1.1"))
    if group:
        tr.join_group(s.target.address, Endpoint("plc2", victim.address, 61499))
        tr.join_group(s.target.address, Endpoint("plc3", peer.address, 61499))
    src = Endpoint("plc1", sender.address, 40001)

    def tick(n, sends):
        tr.log.append((sched.now, "tick", n))
        if sends:
            tr.send(tr.make_packet(Proto.UDP, src, s.target, b"\x41", "plc1"))

    for n, (t, lane, key, sends) in enumerate(timers):
        sched.at(t, lambda n=n, sends=sends: tick(n, sends), lane=lane, key=key)
    schedule_flood(s, tr, sched, ip_to_int("10.0.0.66"))
    try:
        for n, until in enumerate(horizons):
            sched.run_until(until)
            # between horizons, something new falls due right after this one
            sched.at(until + 1, lambda n=n: tick(-1 - n, False))
        ending = "drained"
    except EventBudgetExceeded:
        ending = "budget"
    return (tr.log, sched.processed, sched.now, ending, victim.counters(),
            peer.counters(), tr.undeliverable)


@st.composite
def coalescing_cases(draw):
    """A `run_flood_case` case (a flood, timers on its arrival instants and
    run_until horizons) and an event budget."""
    group = draw(st.booleans())
    target = GroupAddress(ip_to_int("239.192.0.2"), 61499) if group else None
    start = draw(st.integers(0, 2_000))
    s = spec(kind=draw(st.sampled_from([AttackKind.UDP_FLOOD, AttackKind.ICMP_FLOOD,
                                         AttackKind.SYN_FLOOD])),
             rate=draw(st.integers(2_000, 40_000)), start=start,
             stop=start + draw(st.integers(2_000, 15_000)),
             count=draw(st.integers(1, 3)), target=target)
    latency = draw(st.sampled_from([1, 500]))
    # (time, lane, key) of every flood packet's arrival; timers reuse
    # them, so they fall due on the same instants and even tie on key
    arrivals = sorted((t + latency, LANE_NET, ("attacker1" if s.attacker_count == 1
                                               else f"attacker1.{j}", i))
                      for j in range(s.attacker_count)
                      for i, t in enumerate(iter_flood_times(s, j)))
    slots = draw(st.lists(st.tuples(st.sampled_from(arrivals),
                                    st.sampled_from([LANE_FB, LANE_NET]), st.booleans()),
                          max_size=8))
    timers = [(t, lane, key if lane == LANE_NET else "", sends)
              for (t, _, key), lane, sends in slots]
    horizons = sorted(draw(st.lists(st.sampled_from([a[0] for a in arrivals]),
                                    max_size=3))) + [s.stop + US]
    # the victim may collapse, and the budget may trip, anywhere in the flood
    critical_rate = draw(st.integers(21, len(arrivals) + 40))
    budget = draw(st.one_of(st.just(10**6), st.integers(1, len(arrivals) + 20)))
    return (s, latency, critical_rate, group, timers, horizons), budget


# A lone 50-packet flood, one packet per 100 us arriving 1 us after it is sent.
_LONE = (spec(rate=10_000, stop=5_000), 1, 10**6, False)


class TestCoalescing:
    @settings(max_examples=150, deadline=None)
    @given(coalescing_cases())
    # a sending LANE_NET timer on packet 3's arrival instant, keyed after
    # the pump's key: packet 3 ties the heap head, sorts first and is armed
    @example(((*_LONE, [(301, LANE_NET, ("attacker1", 4), True)], [5_000 + US]), 10**6))
    # the budget runs out at packet 10, which would run inline
    @example(((*_LONE, [], [5_000 + US]), 10))
    def test_inline_packets_match_the_heap_round_trip(self, drawn):
        """A flood run with inline packets is indistinguishable from one
        where every packet goes through the heap."""
        case, budget = drawn
        got = run_flood_case(Scheduler(max_events=budget), *case)
        assert got == run_flood_case(_HeapOnlyScheduler(max_events=budget), *case)

    def test_lone_flood_is_armed_once(self):
        class CountingScheduler(Scheduler):
            armed = 0

            def at(self, *args, **kw):
                self.armed += 1
                super().at(*args, **kw)

        sched = CountingScheduler()
        tr = Transport(sched, latency_us=500)
        victim = tr.add_device(DeviceModel("plc2", ip_to_int("192.168.1.2")))
        schedule_flood(spec(rate=1000, stop=US), tr, sched, ip_to_int("10.0.0.66"))
        sched.run_until(2 * US)
        assert victim.offered == 1000
        assert sched.armed == 1 and sched.processed == 1000


class _ViewCheckingTransport(Transport):
    """Checks every view an ingested packet carries against the packet it
    was made from: the one given to `arrive`, the engine's and the socket's."""

    def __init__(self, scheduler, latency_us):
        super().__init__(scheduler, latency_us)
        self.packet = None
        self.checked = {"arrive": 0, "engine": 0, "socket": 0}
        self.shared = Counter()  # flood packets that arrived with a view, by proto

    def arrive(self, device, packet, ep, view, now):
        if view is not None:
            assert view == packet.view()
            self.checked["arrive"] += 1
            if packet.true_origin.startswith("attacker1"):
                self.shared[packet.proto] += 1
        self.packet = packet
        super().arrive(device, packet, ep, view, now)

    def check(self, where, view):
        assert view == self.packet.view()
        self.checked[where] += 1


class TestSharedViews:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_view_is_its_packets_view(self, data):
        """Floods share one view across packets and receivers, a group send
        one across its members; each still equals its own packet's view."""
        draw = data.draw
        kind = draw(st.sampled_from([AttackKind.UDP_FLOOD, AttackKind.ICMP_FLOOD,
                                     AttackKind.SYN_FLOOD]))
        group = draw(st.booleans())
        engine_on = draw(st.booleans())
        sched = Scheduler()
        tr = _ViewCheckingTransport(sched, 500)
        victim = tr.add_device(DeviceModel("plc2", ip_to_int("192.168.1.2"), capacity=10**6))
        peer = tr.add_device(DeviceModel("plc3", ip_to_int("192.168.1.3"), capacity=10**6))
        sender = tr.add_device(DeviceModel("plc1", ip_to_int("192.168.1.1")))
        gaddr = GroupAddress(ip_to_int("239.192.0.2"), 61499)
        for dev in (victim, peer):
            tr.join_group(gaddr.address, Endpoint(dev.device_id, dev.address, 61499))
            tr.bind(dev.device_id, 61499, lambda view: tr.check("socket", view))
        if engine_on:
            engine = IdpsEngine(inspection_capacity=10**6)
            engine.start(parse_rules('alert any any any -> any any msg "all"\n'), EngineMode.IDS)
            inspect = engine.inspect
            engine.inspect = lambda view, now: (tr.check("engine", view), inspect(view, now))[1]
            victim.engine = engine
        start = draw(st.integers(0, 2_000))
        s = spec(kind=kind, rate=draw(st.integers(1_000, 20_000)), start=start,
                 stop=start + draw(st.integers(1_000, 10_000)),
                 count=draw(st.integers(1, 3)), target=gaddr if group else None,
                 payload=draw(st.sampled_from([b"\x00", b"\x41", b""])))
        src = Endpoint("plc1", sender.address, 40001)
        for t in draw(st.lists(st.integers(0, s.stop), max_size=5)):
            dst = gaddr if draw(st.booleans()) else Endpoint("plc2", victim.address, 61499)
            sched.at(t, lambda dst=dst: tr.send(tr.make_packet(Proto.UDP, src, dst, b"\x41", "plc1")))
        schedule_flood(s, tr, sched, ip_to_int("10.0.0.66"))
        sched.run_until(s.stop + US)

        # at this capacity every flood packet is ingested and arrives
        offered = flood_count(s) * s.attacker_count * (2 if group else 1)
        if kind is AttackKind.SYN_FLOOD:
            assert not tr.shared  # its header rotates: a view per packet
        else:
            proto = Proto.UDP if kind is AttackKind.UDP_FLOOD else Proto.ICMP_ECHO
            assert sum(tr.shared.values()) == tr.shared[proto] == offered
            assert tr.checked["socket"] >= (offered if kind is AttackKind.UDP_FLOOD else 0)
        if engine_on:
            assert tr.checked["engine"] == engine.presented == victim.ingested


class _DeliverEveryPacketPump(attacks._FloodPump):
    """Reference pump: every flood packet is built and numbered, ingested or
    not, and goes through `Transport.deliver` on its own heap entry."""

    def _pump(self):
        spec, i, dev, tr = self.spec, self.i, self.target_device, self.transport
        if dev is not None and dev.down:
            dev.bulk_unresponsive_drop(self.count - i)
            return
        src = self.src
        if self.syn_rotate:
            src = Endpoint(GHOST_ID, (src.address & 0xFFFF0000) | (i % 0xFFFE + 1),
                           1024 + i % 60000)
        pkt = Packet(self.proto, src, spec.target, spec.payload,
                     send_instant(self.first, self.per_rate, i), self.origin, tr.next_seq())
        for ep in tr.members(self.group) if self.group is not None else [spec.target]:
            tr.deliver(pkt, ep, self.view)
        self.i = i = i + 1
        if i < self.count:
            self.scheduler.at(send_instant(self.first, self.per_rate, i) + tr.latency_us,
                              self._pump, lane=LANE_NET, key=(self.origin, i))


_CASE_RULES = parse_rules(
    'block udp any any -> any 61499 payload "00" msg "junk"\n'
    'alert udp any any -> any any rate 40/1 msg "udp rate"\n'
    'block tcp any any -> any any rate 30/1 msg "syn rate"\n'
    'alert icmp any any -> any any msg "ping"\n')


def run_pump_case(s, capacity, critical_rate, engine_cfg, sends):
    """Flood `s` against a subscriber PLC (plc2) and a group peer (plc3),
    with legitimate publishes from plc1; return what every layer saw."""
    sched = Scheduler()
    tr = _LoggingTransport(sched, 500, seqs=False)
    victim = tr.device("plc2", ip_to_int("192.168.1.2"), capacity=capacity,
                       critical_rate=critical_rate)
    peer = tr.device("plc3", ip_to_int("192.168.1.3"))
    sender = tr.device("plc1", ip_to_int("192.168.1.1"))
    engine = None
    if engine_cfg is not None:
        mode, inspection_capacity = engine_cfg
        engine = victim.engine = IdpsEngine(inspection_capacity)
        engine.start(_CASE_RULES, mode)
    net = FBNetwork(sched, Trace(), services={"transport": tr})
    net.host = victim
    net.add(make_subscriber("SUB", net, tr, "plc2"))
    net.set_data_in("SUB", "QI", Bool(True))
    net.set_data_in("SUB", "ID", Str("239.192.0.2:61499"))
    net.dispatch("SUB", "INIT")
    gaddr = GroupAddress(ip_to_int("239.192.0.2"), 61499)
    tr.join_group(gaddr.address, Endpoint("plc3", peer.address, 61499))
    src = Endpoint("plc1", sender.address, 40001)
    for t, to_group, payload in sends:
        dst = gaddr if to_group else Endpoint("plc2", victim.address, 61499)
        sched.at(t, lambda dst=dst, payload=payload:
                 tr.send(tr.make_packet(Proto.UDP, src, dst, payload, "plc1")))
    schedule_flood(s, tr, sched, ip_to_int("10.0.0.66"))
    sched.run_until(s.stop + US)
    sub = net.instances["SUB"].state
    seen = (engine.presented, engine.inspected, engine.dropped_by_engine,
            [dataclasses.astuple(a) for a in engine.alerts]) if engine else None
    return (tr.log, victim.counters(), victim.transitions, peer.counters(),
            tr.undeliverable, seen, (sub.accepted, sub.malformed), net.trace.entries,
            net.suppressed, sched.processed), tr._seq


class TestIngestFirst:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_a_pump_that_delivers_every_packet(self, data):
        """Deciding a flood arrival's fate before its packet is built changes
        nothing any layer sees; only dropped packets take no sequence number."""
        draw = data.draw
        group = draw(st.booleans())
        start = draw(st.integers(0, 2_000))
        s = spec(kind=draw(st.sampled_from([AttackKind.UDP_FLOOD, AttackKind.ICMP_FLOOD,
                                             AttackKind.SYN_FLOOD])),
                 rate=draw(st.integers(2_000, 40_000)), start=start,
                 stop=start + draw(st.integers(2_000, 30_000)),
                 count=draw(st.integers(1, 3)),
                 target=GroupAddress(ip_to_int("239.192.0.2"), 61499) if group else None,
                 payload=draw(st.sampled_from([b"\x00", b"\x41", b""])))
        packets = flood_count(s) * s.attacker_count
        capacity = draw(st.integers(1, packets + 50))  # overloaded or not
        critical_rate = draw(st.one_of(st.just(10**6),  # or collapse at some point
                                       st.integers(capacity + 1, capacity + packets)))
        engine_cfg = draw(st.one_of(st.none(), st.tuples(
            st.sampled_from([EngineMode.IDS, EngineMode.IPS]), st.integers(5, 2_000))))
        sends = draw(st.lists(st.tuples(st.integers(0, s.stop), st.booleans(),
                                        st.sampled_from([b"\x40", b"\x41"])), max_size=6))
        case = (s, capacity, critical_rate, engine_cfg, sends)
        got, seqs = run_pump_case(*case)
        with mock.patch.object(attacks, "_FloodPump", _DeliverEveryPacketPump):
            want, reference_seqs = run_pump_case(*case)
        assert got == want
        assert seqs <= reference_seqs

    def test_dropped_flood_packets_take_no_sequence_number(self):
        """A 5x-capacity unicast flood numbers only the packets its target ingests."""
        sched = Scheduler()
        tr = Transport(sched, latency_us=500)
        victim = tr.add_device(DeviceModel("plc2", ip_to_int("192.168.1.2"), capacity=1_000))
        seqs = []
        tr.watch_delivery("attacker1", lambda pkt, now: seqs.append(pkt.seq))
        schedule_flood(spec(rate=5_000, stop=US), tr, sched, ip_to_int("10.0.0.66"))
        sched.run_until(2 * US)
        assert victim.offered == 5_000
        assert 0 < victim.ingested < victim.offered and victim.dropped_capacity > 0
        assert seqs == list(range(1, victim.ingested + 1))
        assert tr._seq == victim.ingested


def subscriber_net(sched, tr, victim, trace):
    """A network on `victim` (plc2) holding one initialised subscriber SUB
    bound to port 61499."""
    net = FBNetwork(sched, trace, services={"transport": tr})
    net.host = victim
    net.add(make_subscriber("SUB", net, tr, "plc2"))
    net.set_data_in("SUB", "QI", Bool(True))
    net.set_data_in("SUB", "ID", Str("239.192.0.2:61499"))
    net.dispatch("SUB", "INIT")
    return net


def run_count_case(floods, capacity, critical_rate, engine_cfg, traced, watch_attacker,
                   suspend, sends, max_events=10**8, horizons=(), plain=False):
    """Floods `floods` against a subscriber PLC (plc2) that may be suspended
    and resumed, with legitimate publishes from plc1, run up to each horizon
    in turn and then past the floods' end, or until the event budget runs
    out; return what every layer and observer saw, the sequence counter
    included.  `plain` makes plc2 a `DeviceModel` that logs nothing, so a
    count-only segment reaches its `ingest_span` whole."""
    sched = Scheduler(max_events)
    tr = Transport(sched, 500)
    log = []
    kw = dict(capacity=capacity, critical_rate=critical_rate)
    victim = tr.add_device(DeviceModel("plc2", ip_to_int("192.168.1.2"), **kw) if plain else
                           _LoggingDevice(log, sched, "plc2", ip_to_int("192.168.1.2"), **kw))
    sender = tr.add_device(_LoggingDevice(log, sched, "plc1", ip_to_int("192.168.1.1")))
    engine = None
    if engine_cfg is not None:
        mode, inspection_capacity = engine_cfg
        engine = victim.engine = IdpsEngine(inspection_capacity)
        engine.start(_CASE_RULES, mode)
    seen = []
    tr.on_send = lambda pkt: seen.append(("send", sched.now, pkt))
    tr.on_presented = lambda dev, pkt, view, verdict, now: seen.append(
        ("presented", now, dev.device_id, pkt, verdict))
    tr.watch_delivery("plc1", lambda pkt, now: seen.append(("plc1", now, pkt)))
    if watch_attacker:
        tr.watch_delivery("attacker1", lambda pkt, now: seen.append(("attacker1", now, pkt)))
    net = subscriber_net(sched, tr, victim, Trace() if traced else None)
    for t, action in zip(suspend, (net.suspended.add, net.suspended.discard)):
        sched.at(t, lambda action=action: action("SUB"))
    gaddr = GroupAddress(ip_to_int("239.192.0.2"), 61499)
    src = Endpoint("plc1", sender.address, 40001)
    for t, to_group, payload in sends:
        dst = gaddr if to_group else Endpoint("plc2", victim.address, 61499)
        sched.at(t, lambda dst=dst, payload=payload:
                 tr.send(tr.make_packet(Proto.UDP, src, dst, payload, "plc1")))
    for n, s in enumerate(floods):
        schedule_flood(s, tr, sched, ip_to_int("10.0.0.66") + 16 * n)
    ending = "drained"
    try:
        for until in (*horizons, max(s.stop for s in floods) + US):
            sched.run_until(until)
            # something new falls due right after each horizon
            sched.at(until + 1, lambda: log.append(("tick", sched.now, sched.processed)))
    except EventBudgetExceeded:
        ending = "budget"
    sub = net.instances["SUB"]
    stats = (engine.presented, engine.inspected, engine.dropped_by_engine,
             [dataclasses.astuple(a) for a in engine.alerts]) if engine else None
    return (log, victim.counters(), victim.transitions, victim.window._buckets,
            sender.counters(), tr.undeliverable,
            ending, sched.now, stats, seen, (sub.state.accepted, sub.state.malformed), sub.din, sub.dout,
            net.trace.entries if traced else None, net.suppressed, tr._seq, sched.processed)


@st.composite
def count_cases(draw):
    """A `run_count_case` case; most draws lean to what a count-only
    arrival needs, and each of the others turns it off."""
    floods = []
    # by default a lone UDP junk flood at the bound port
    for attacker in ["attacker1", "attacker2"][:draw(st.sampled_from([1, 1, 1, 2]))]:
        start = draw(st.integers(0, 2_000))
        floods.append(AttackSpec(
            name=attacker, kind=draw(st.sampled_from([AttackKind.UDP_FLOOD] * 5
                                                     + [AttackKind.ICMP_FLOOD])),
            attacker_id=attacker, target=Endpoint("plc2", ip_to_int("192.168.1.2"),
                                                  draw(st.sampled_from([61499] * 5
                                                                       + [61500]))),
            rate=draw(st.integers(2_000, 40_000)), start=start,
            stop=start + draw(st.integers(2_000, 30_000)),
            attacker_count=draw(st.sampled_from([1, 1, 1, 2])),
            payload=draw(st.sampled_from([b"\x00", b"\x00", b"\xff\x01", b"", b"\x41"]))))
    packets = sum(flood_count(s) * s.attacker_count for s in floods)
    capacity = draw(st.integers(1, packets + 50))  # overloaded or not
    critical_rate = draw(st.one_of(st.just(10**6),  # or collapse at some point
                                   st.integers(capacity + 1, capacity + packets)))
    engine_cfg = draw(st.sampled_from([None, None, None, EngineMode.OFF, EngineMode.IDS,
                                       EngineMode.IPS]))
    if engine_cfg is not None:
        engine_cfg = (engine_cfg, draw(st.integers(5, 2_000)))
    stop = max(s.stop for s in floods)
    # other events fall anywhere, or tie with a flood arrival
    arrivals = [send_instant(*flood_clock(s, 0), n) + 500
                for s in floods for n in range(flood_count(s))]
    instant = st.one_of(st.integers(0, stop), st.sampled_from(arrivals))
    suspend = sorted(draw(st.lists(instant, max_size=2)))
    sends = draw(st.lists(st.tuples(instant, st.booleans(),
                                    st.sampled_from([b"\x40", b"\x41", b"\x00"])),
                          max_size=6))
    traced, watch_attacker = (draw(st.sampled_from([False, False, True])) for _ in "tw")
    # a segment ends at the event budget or at a run_until horizon
    max_events = draw(st.one_of(st.just(10**8), st.integers(1, packets + 20)))
    horizons = sorted(draw(st.lists(instant, max_size=3)))
    return (floods, capacity, critical_rate, engine_cfg, traced, watch_attacker,
            suspend, sends, max_events, horizons)


class TestCountOnly:
    @staticmethod
    def flood_peak(seconds):
        """Peak bytes traced while a lone untraced junk flood at 10^6 pkt/s
        runs for `seconds` against an engine-off subscriber on plc2, and the
        devices handed each segment.  The flood starts once plc2's window
        holds a full second of buckets, so the window keeps its size."""
        segments = []
        span = DeviceModel.ingest_span

        def segment(dev, *args):
            segments.append(dev.device_id)
            return span(dev, *args)

        tracemalloc.start()
        try:
            sched = Scheduler()
            tr = Transport(sched, 500)
            victim = tr.add_device(DeviceModel("plc2", ip_to_int("192.168.1.2")))
            for t in range(US, 2 * US, BUCKET_US):
                victim.window.add(t)
            subscriber_net(sched, tr, victim, None)
            stop = 2 * US + int(seconds * US)
            schedule_flood(spec(rate=10**6, start=2 * US, stop=stop), tr, sched,
                           ip_to_int("10.0.0.66"))
            with mock.patch.object(DeviceModel, "ingest_span", segment):
                sched.run_until(stop + US)
            return tracemalloc.get_traced_memory()[1], segments
        finally:
            tracemalloc.stop()

    def test_segment_memory_does_not_grow_with_flood_length(self):
        """Nothing else is due, so one segment spans the whole flood; it is
        handed as an index range and worked out bucket by bucket, so ten
        times the arrivals take no more memory."""
        (short, short_segments), (long, long_segments) = (self.flood_peak(0.02),
                                                          self.flood_peak(0.2))
        assert short_segments == long_segments == ["plc2"]
        assert long < 1.1 * short, (short, long)

    @staticmethod
    def matches_the_per_packet_path(case, plain):
        got = run_count_case(*case, plain=plain)
        with mock.patch.object(Transport, "count_only", lambda *args: None):
            want = run_count_case(*case, plain=plain)
        assert got == want

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(count_cases())
    def test_matches_the_per_packet_path(self, case):
        """Counting an ingested junk arrival without building its packet
        changes nothing any layer or observer sees."""
        self.matches_the_per_packet_path(case, plain=False)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(count_cases())
    def test_whole_segments_match_the_per_packet_path(self, case):
        """The same with a victim that takes each count-only segment in one
        `ingest_span` call, so spans of many arrivals and buckets run."""
        self.matches_the_per_packet_path(case, plain=True)

    def test_junk_flood_builds_one_packet_per_pump_call(self):
        """An untraced engine-off junk flood at a subscriber counts every
        ingested arrival as malformed but routes only a pump call's first."""
        routed = Counter()
        arrive = Transport.arrive

        def counted(tr, device, packet, ep, view, now):
            routed[packet.true_origin] += 1
            arrive(tr, device, packet, ep, view, now)

        with mock.patch.object(Transport, "arrive", counted):
            (log, victim, *_, (accepted, malformed), _din, _dout, _trace, _supp,
             seq, processed) = run_count_case(
                [spec(rate=10_000, stop=US // 10, payload=b"\x00")], 10**6, 10**6,
                None, False, False, [], [])
        assert victim["ingested"] == malformed == seq == 1_000 and accepted == 0
        assert routed == {"attacker1": 1}  # one pump call: nothing else is due
