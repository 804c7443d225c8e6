"""Attack generators: exact counts, phase splitting, crafting."""

import dataclasses
import gc
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
from fbsecsim.fbnet import (
    LANE_FB,
    LANE_NET,
    US,
    FBInstance,
    FBNetwork,
    PortKind,
    PortSpec,
    Scheduler,
    Trace,
)
from fbsecsim.idps import EngineMode, IdpsEngine, parse_rules
from fbsecsim.transport import (
    BUCKET_US,
    DeviceModel,
    DeviceState,
    Endpoint,
    GroupAddress,
    Packet,
    PacketView,
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

    @pytest.mark.parametrize("rate, count", [(1000, 1), (1000, 2)])
    def test_attackers_of_one_syn_flood_claim_distinct_sources(self, rate, count):
        """Attacker j of k sends the flood's SYNs j, k + j, 2k + j, ...: two
        attackers at 500/s fill the table as one at 1000/s does, and no SYN
        refreshes an entry another attacker's SYN opened."""
        s = spec(kind=AttackKind.SYN_FLOOD, rate=rate, stop=US, count=count,
                 target=Endpoint("plc2", ip_to_int("192.168.1.2"), 61500))
        tr, victim, _devs = self.run_flood(s)
        assert (victim.syn_accepted, tr.undeliverable) == (128, 128)
        assert victim.syn_refused == 1000 - 128

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


def events_by(scheduler, now):
    """Events run so far, with the tallied ones due by `now` that an inline
    run has passed but not yet counted."""
    return scheduler.processed + sum(due <= now for due in scheduler.tallies)


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
        return self.logged(now, events_by(self.scheduler, now), super().ingest)

    def ingest_span(self, base, per_rate, lo, hi):
        """Takes each arrival in a one-arrival call and logs it with the
        event count it runs as on the per-packet path: a segment's first
        arrival is the event running now, and each next one a further event.
        Spans of many arrivals are pinned by `test_transport.TestIngestSpan`."""
        span = super().ingest_span
        taken = ingested = 0
        for m in range(lo, hi):
            now = base + m * US // per_rate
            ingested += self.logged(now, events_by(self.scheduler, now) + taken,
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
    """Logs every ingested arrival as `arrive` gets it: origin, claimed
    source, view and sequence number; with its devices' ingest log, every
    arrival crosses the log whatever path it took.  An arrival a segment
    takes (`count_only`, `fresh_syns`) is logged as if it had reached
    `arrive`, right after its device log entry.  A SYN's view is logged
    without its payload, which a segment does not carry and nothing past
    the device reads."""

    def __init__(self, scheduler, latency_us, seqs=True):
        super().__init__(scheduler, latency_us)
        self.log = []
        self.seqs = seqs  # False: log arrivals without their sequence numbers

    def device(self, device_id, address, **kw):
        return self.add_device(_LoggingDevice(self.log, self.scheduler, device_id, address, **kw))

    def arrive(self, device, origin, src_id, view, ep, now, packet=None):
        # a unicast flood arrival has no packet: its number is the one it took just before
        seq = self._seq if packet is None else packet.seq
        self.logged(now, ep, origin, src_id, view[:5] if view.proto is Proto.TCP_SYN else view, seq)
        super().arrive(device, origin, src_id, view, ep, now, packet)

    def logged(self, now, ep, origin, src_id, view, seq):
        self.log.append((now, ep.device_id, origin, src_id, view, seq if self.seqs else None))

    def count_only(self, device, ep, view, origin, base, per_rate):
        return self.logged_span(super().count_only(device, ep, view, origin, base, per_rate),
                                device, ep, origin, origin, base, per_rate, lambda m: view)

    def fresh_syns(self, device, ep, origin, base, per_rate, source):
        return self.logged_span(super().fresh_syns(device, ep, origin, base, per_rate, source),
                                device, ep, origin, GHOST_ID, base, per_rate,
                                lambda m: (Proto.TCP_SYN, *source(m), ep.address, ep.port))

    def logged_span(self, span, device, ep, origin, src_id, base, per_rate, view):
        """`span`, logging each arrival its device logs as ingested, as
        `arrive` would have logged it; `view(m)` is arrival m's view.  A
        segment's SYNs are all admitted or all refused, and an admitted
        one's SYN-ACK takes the sequence number after its own."""
        if span is None:
            return None

        def logged(lo, hi):
            start, seq, accepted = len(self.log), self._seq, device.syn_accepted
            taken = span(lo, hi)
            fates, self.log[start:] = self.log[start:], []
            assert len(fates) == taken  # one `_LoggingDevice` entry per arrival taken
            admitted = device.syn_accepted - accepted
            assert admitted in (0, taken)
            for m, fate in enumerate(fates, lo):
                self.log.append(fate)
                if fate[3]:  # ingested: it takes the next sequence number
                    seq += 1
                    self.logged(base + m * US // per_rate, ep, origin, src_id, view(m), seq)
                    seq += admitted > 0
            assert seq == self._seq
            return taken

        return logged


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


class _HeapDeliveryTransport(Transport):
    """Reference transport: every SYN takes the per-packet path, and a
    unicast packet to a device id with no device takes a heap entry, which
    `deliver` counts undeliverable when it pops; no event is tallied."""

    def fresh_syns(self, *args):
        return None

    def send(self, packet):
        dst = packet.dst
        if isinstance(dst, GroupAddress) or dst.device_id in self.devices:
            return super().send(packet)
        sender = self.devices.get(packet.true_origin)
        if sender is not None and sender.state is DeviceState.UNRESPONSIVE:
            sender.sender_down += 1
            return False
        if self.on_send is not None:
            self.on_send(packet)
        self.scheduler.at(self.scheduler.now + self.latency_us, self._delivery(packet, dst),
                          lane=LANE_NET, key=(packet.true_origin, packet.seq))
        return True


def run_tally_case(transport_cls, budget, latency, floods, halfopen, timers, horizons):
    """Run floods `floods` into plc2, whose half-open table has the
    (capacity, timeout) `halfopen` and whose UDP socket leaves a same-instant
    child in the FIFO that sends a packet to a device id with no device,
    with timers keyed as given, each of which sends some packets there and
    maybe a SYN to plc2, up to each horizon in turn; return (processed,
    undeliverable, now) at each horizon and, if the budget runs out, `now`
    then."""
    sched = Scheduler(max_events=budget)
    tr = transport_cls(sched, latency)
    victim = tr.add_device(DeviceModel("plc2", ip_to_int("192.168.1.2"),
                                       halfopen_capacity=halfopen[0],
                                       halfopen_timeout_us=halfopen[1]))
    sender = tr.add_device(DeviceModel("plc1", ip_to_int("192.168.1.1")))
    src = Endpoint("plc1", sender.address, 40001)
    nowhere = Endpoint("nobody", ip_to_int("10.9.0.1"), 7)

    def fire(ghosts, real):
        for _ in range(ghosts):
            tr.send(tr.make_packet(Proto.UDP, src, nowhere, b"", "plc1"))
        if real:
            tr.send(tr.make_packet(Proto.TCP_SYN, src, Endpoint("plc2", victim.address, 61500),
                                   b"", "plc1"))

    tr.bind("plc2", 61499, lambda view: sched.at(sched.now, lambda: fire(1, False)))
    for t, lane, key, ghosts, real in timers:
        sched.at(t, lambda ghosts=ghosts, real=real: fire(ghosts, real), lane=lane, key=key)
    for n, s in enumerate(floods):
        schedule_flood(s, tr, sched, ip_to_int("10.0.0.66") + 16 * n)
    seen = []
    try:
        for until in horizons:
            sched.run_until(until)
            seen.append((sched.processed, tr.undeliverable, sched.now))
    except EventBudgetExceeded:
        return seen, sched.now
    return seen, victim.counters()


@st.composite
def tally_cases(draw):
    """A `run_tally_case` case: zero to two SYN or UDP floods, timers on
    drawn instants (some on flood arrival instants, where they tie) that
    send to nowhere, horizons and an event budget that may run out
    anywhere."""
    latency = draw(st.sampled_from([1, 500]))
    floods = []
    for n in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, 3_000))
        kind = draw(st.sampled_from([AttackKind.SYN_FLOOD] * 2 + [AttackKind.UDP_FLOOD]))
        port = 61500 if kind is AttackKind.SYN_FLOOD else 61499
        floods.append(spec(kind=kind, rate=draw(st.integers(2_000, 40_000)),
                           start=start, stop=start + draw(st.integers(1_000, 10_000)),
                           count=draw(st.integers(1, 2)),
                           target=Endpoint("plc2", ip_to_int("192.168.1.2"), port)))
    arrivals = sorted(t + latency for s in floods for j in range(s.attacker_count)
                      for t in iter_flood_times(s, j))
    instant = st.sampled_from(arrivals) if arrivals else st.integers(0, 15_000)
    timers = draw(st.lists(st.tuples(
        st.one_of(instant, st.integers(0, 15_000)), st.sampled_from([LANE_FB, LANE_NET]),
        st.sampled_from([("a", 0), ("plc1", 10**6), ("z", 0)]), st.integers(0, 3), st.booleans()),
        max_size=8))
    timers = [(t, lane, key if lane == LANE_NET else "", ghosts, real)
              for t, lane, key, ghosts, real in timers]
    horizons = sorted(draw(st.lists(st.one_of(instant, st.integers(0, 15_000)),
                                    max_size=3))) + [20_000]
    halfopen = draw(st.sampled_from([(4, 1_000), (16, 5_000), (128, 3 * US)]))
    events = len(arrivals) * 3 + 4 * len(timers) + 20
    budget = draw(st.one_of(st.just(10**6), st.integers(1, events)))
    return budget, latency, floods, halfopen, timers, horizons


class TestTalliedDeliveries:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(tally_cases())
    # each junk arrival's FIFO child sends to nowhere; the budget runs out on
    # a child, with the deliveries due by then not yet counted by the pump
    @example((44, 1, [spec(rate=2_000, stop=7_500)], (4, 1_000),
              [(1, LANE_FB, "", 0, False), (1, LANE_FB, "", 2, False)], [20_000]))
    def test_match_one_heap_entry_per_delivery(self, case):
        """Deliveries to a device id with no device, tallied, leave
        `processed`, `undeliverable` and `now` at every `run_until` end, and
        the instant the budget runs out, as one heap entry per delivery
        does; a SYN flood's admitted SYNs send such deliveries a segment at
        a time, the reference's one at a time."""
        assert run_tally_case(Transport, *case) == run_tally_case(_HeapDeliveryTransport, *case)


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

            def at_seq(self, *args, **kw):
                self.armed += 1
                return super().at_seq(*args, **kw)

        sched = CountingScheduler()
        tr = Transport(sched, latency_us=500)
        victim = tr.add_device(DeviceModel("plc2", ip_to_int("192.168.1.2")))
        schedule_flood(spec(rate=1000, stop=US), tr, sched, ip_to_int("10.0.0.66"))
        sched.run_until(2 * US)
        assert victim.offered == 1000
        assert sched.armed == 1 and sched.processed == 1000


class _ViewCheckingTransport(Transport):
    """Checks every view an ingested arrival carries against the packet it
    stands for: the one `send` made or, for a unicast flood arrival, which
    has none, the one a pump that builds every packet makes
    (`flood_packet`); the view given to `arrive`, the engine's and the
    socket's.  Every target ingests every arrival, so a flood's arrivals at
    one target come in packet order."""

    def __init__(self, scheduler, latency_us):
        super().__init__(scheduler, latency_us)
        self.packet = None
        self.streams = {}  # origin -> its flood stream
        self.checked = {"arrive": 0, "engine": 0, "socket": 0}
        self.views = {}  # flood origin -> the view of each of its arrivals

    def arrive(self, device, origin, src_id, view, ep, now, packet=None):
        views = self.views.setdefault(origin, []) if origin.startswith("attacker1") else []
        if packet is None:
            packet = flood_packet(self.streams[origin], len(views), self._seq)
            assert packet.dst == ep
        assert (origin, src_id) == (packet.true_origin, packet.src.device_id)
        assert view == packet.view()
        views.append(view)
        self.checked["arrive"] += 1
        self.packet = packet
        super().arrive(device, origin, src_id, view, ep, now, packet)

    def count_only(self, device, ep, view, origin, base, per_rate):
        return self.checked_span(super().count_only(device, ep, view, origin, base, per_rate),
                                 ep, origin, lambda m: view)

    def fresh_syns(self, device, ep, origin, base, per_rate, source):
        payload = self.streams[origin].spec.payload
        return self.checked_span(super().fresh_syns(device, ep, origin, base, per_rate, source),
                                 ep, origin, lambda m: PacketView(Proto.TCP_SYN, *source(m),
                                                                  ep.address, ep.port, payload))

    def checked_span(self, span, ep, origin, view):
        """`span`, checking the view `view(m)` a segment stands for against
        its packet's, as `arrive` checks it, for each arrival m it takes (at
        this capacity, every one is ingested)."""
        if span is None:
            return None

        def checked(lo, hi):
            seq = self._seq
            taken = span(lo, hi)
            step = (self._seq - seq) // taken if taken else 1  # 2: SYN-ACKs numbered too
            views = self.views.setdefault(origin, [])
            for m in range(lo, lo + taken):
                seq += 1
                packet = flood_packet(self.streams[origin], m, seq)
                assert len(views) == m and packet.dst == ep and view(m) == packet.view()
                views.append(view(m))
                seq += step - 1
            assert seq == self._seq
            self.checked["arrive"] += taken
            return taken

        return checked

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
        tr.streams = {entry[-1].origin: entry[-1] for entry in tr.flood_pump.parked}
        sched.run_until(s.stop + US)

        # at this capacity every flood packet is ingested and arrives, with
        # one view for the whole flood or, as its header rotates, one per SYN
        # (shared by the group's members)
        assert len(tr.views) == (s.attacker_count if flood_count(s) else 0)
        for views in tr.views.values():
            assert len(views) == flood_count(s) * (2 if group else 1)
            assert len(set(map(id, views))) == (
                flood_count(s) if kind is AttackKind.SYN_FLOOD else 1)
        offered = flood_count(s) * s.attacker_count * (2 if group else 1)
        assert tr.checked["socket"] >= (offered if kind is AttackKind.UDP_FLOOD else 0)
        if engine_on:
            assert tr.checked["engine"] == engine.presented == victim.ingested


def flood_packet(stream, i, seq):
    """Packet `i` of a flood stream, numbered `seq`, built the per-packet way."""
    src = stream.src
    if stream.syn_rotate:
        # attacker j of k sends the flood's SYNs j, k + j, 2k + j, ...
        n = i * stream.spec.attacker_count + src.port - 40000
        src = Endpoint(GHOST_ID, (src.address & 0xFFFF0000) | (n % 0xFFFE + 1),
                       1024 + n % 60000)
    return Packet(stream.proto, src, stream.spec.target, stream.spec.payload,
                  send_instant(stream.first, stream.per_rate, i), stream.origin, seq)


class _DeliverEveryPacketPump:
    """Reference pump: every packet of every stream is built and numbered,
    ingested or not, and goes through `Transport.deliver` on its own heap
    entry, `at`-ed when the packet before it has run."""

    def __init__(self, transport, scheduler):
        self.transport, self.scheduler = transport, scheduler

    def add(self, stream):
        if stream.count:
            self.arm(stream, 0)

    def arm(self, stream, i):
        self.scheduler.at(send_instant(stream.first, stream.per_rate, i) + self.transport.latency_us,
                          lambda: self.deliver(stream, i), lane=LANE_NET, key=(stream.origin, i))

    def deliver(self, stream, i):
        tr, dev = self.transport, stream.target_device
        if dev is not None and dev.down:
            dev.bulk_unresponsive_drop(stream.count - i)
            return
        pkt = flood_packet(stream, i, tr.next_seq())
        for ep in tr.members(stream.group) if stream.group is not None else [stream.spec.target]:
            tr.deliver(pkt, ep, stream.view)
        if i + 1 < stream.count:
            self.arm(stream, i + 1)


# plc2's half-open table: the default, or small enough to fill and expire
# while a drawn SYN flood runs, so its admitted and refused SYNs run as segments
_HALFOPEN = st.sampled_from([(128, 3 * US), (4, 1_000), (16, 5_000)])

_CASE_RULES = parse_rules(
    'block udp any any -> any 61499 payload "00" msg "junk"\n'
    'alert udp any any -> any any rate 40/1 msg "udp rate"\n'
    'block tcp any any -> any any rate 30/1 msg "syn rate"\n'
    'alert icmp any any -> any any msg "ping"\n')


def run_pump_case(floods, capacity, critical_rate, engine_cfg, sends, timers=(),
                  halfopen=(128, 3 * US)):
    """Floods `floods` against a subscriber PLC (plc2) whose half-open table
    has the (capacity, timeout) `halfopen` and a group peer (plc3), with
    legitimate publishes from plc1 and logged timers keyed as given, each of
    which may `at` a keyed child when it runs; return what every layer saw."""
    sched = Scheduler()
    tr = _LoggingTransport(sched, 500, seqs=False)
    victim = tr.device("plc2", ip_to_int("192.168.1.2"), capacity=capacity,
                       critical_rate=critical_rate, halfopen_capacity=halfopen[0],
                       halfopen_timeout_us=halfopen[1])
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
    for n, (t, lane, key, child) in enumerate(timers):
        def fire(n=n, child=child):
            tr.log.append((sched.now, "timer", n))
            if child is not None and child[0] >= sched.now:
                sched.at(child[0], lambda: tr.log.append((sched.now, "child", n)),
                         lane=child[1], key=child[2])

        sched.at(t, fire, lane=lane, key=key)
    for n, s in enumerate(floods):
        schedule_flood(s, tr, sched, ip_to_int("10.0.0.66") + 16 * n)
    sched.run_until(max(s.stop for s in floods) + US)
    sub = net.instances["SUB"].state
    seen = (engine.presented, engine.inspected, engine.dropped_by_engine,
            [dataclasses.astuple(a) for a in engine.alerts]) if engine else None
    return (tr.log, victim.counters(), victim.transitions, peer.counters(),
            tr.undeliverable, seen, (sub.accepted, sub.malformed), net.trace.entries,
            net.suppressed, sched.processed), tr._seq


class TestIngestFirst:
    @settings(max_examples=120, deadline=None, derandomize=True)
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
        case = ([s], capacity, critical_rate, engine_cfg, sends, (), draw(_HALFOPEN))
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


@st.composite
def merged_stream_cases(draw):
    """A `run_pump_case` case of two or three floods whose arrivals often
    fall on the same instants and, when their attackers share a name, on
    the same heap keys; timers reuse those keys, and their children too."""
    floods = []
    for n in range(draw(st.integers(2, 3))):
        count = draw(st.integers(1, 2))
        start = draw(st.sampled_from([0, 0, 100, 250]))
        floods.append(AttackSpec(
            name=f"flood{n}", kind=draw(st.sampled_from([AttackKind.UDP_FLOOD] * 3
                                                         + [AttackKind.SYN_FLOOD,
                                                            AttackKind.ICMP_FLOOD])),
            attacker_id=draw(st.sampled_from(["attacker1", "attacker2"])),
            target=draw(st.sampled_from([Endpoint("plc2", ip_to_int("192.168.1.2"), 61499),
                                         GroupAddress(ip_to_int("239.192.0.2"), 61499)])),
            rate=count * draw(st.sampled_from([2_000, 4_000, 10_000])), start=start,
            stop=start + draw(st.sampled_from([3_000, 6_000])), attacker_count=count,
            payload=draw(st.sampled_from([b"\x00", b"\x40", b"\x41"]))))
    arrivals = sorted({(send_instant(*flood_clock(s, j), i) + 500, LANE_NET,
                        (s.attacker_id if s.attacker_count == 1 else f"{s.attacker_id}.{j}", i))
                       for s in floods for j in range(s.attacker_count)
                       for i in range(flood_count(s))})
    timers = [(t, lane, key if lane == LANE_NET else "", child)
              for (t, _, key), lane, child in draw(st.lists(st.tuples(
                  st.sampled_from(arrivals), st.sampled_from([LANE_FB, LANE_NET]),
                  st.none() | st.sampled_from(arrivals)), max_size=8))]
    packets = sum(flood_count(s) * s.attacker_count for s in floods)
    capacity = draw(st.integers(1, packets + 50))
    critical_rate = draw(st.one_of(st.just(10**6), st.integers(capacity + 1, capacity + packets)))
    engine_cfg = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from([EngineMode.IDS, EngineMode.IPS]), st.integers(5, 2_000))))
    sends = draw(st.lists(st.tuples(st.integers(0, 6_000), st.booleans(),
                                    st.sampled_from([b"\x40", b"\x41"])), max_size=4))
    return floods, capacity, critical_rate, engine_cfg, sends, timers, draw(_HALFOPEN)


class TestMergedStreams:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(merged_stream_cases())
    # a SYN stream, then two more that overlap it and repeat some of its
    # claimed sources, against a small table that fills and expires: SYNs
    # run as segments, admitted or refused, between the ones whose keys
    # another stream has counted or the table holds
    @example(([AttackSpec(name=f"flood{n}", kind=AttackKind.SYN_FLOOD, attacker_id="attacker1",
                          target=Endpoint("plc2", ip_to_int("192.168.1.2"), 61499),
                          rate=20_000, start=3_000 * n, stop=3_000 * n + 4_000,
                          attacker_count=n + 1) for n in range(2)],
              10**6, 10**6, (EngineMode.IDS, 2_000), [], [], (4, 1_000)))
    def test_matches_a_pump_per_packet(self, case):
        """Running every flood stream from one pump entry, inline while an
        arrival is due before anything else, orders arrivals, ties on a
        heap key included, as one heap entry per packet does."""
        got, seqs = run_pump_case(*case)
        with mock.patch.object(attacks, "_FloodPump", _DeliverEveryPacketPump):
            want, reference_seqs = run_pump_case(*case)
        assert got == want
        assert seqs <= reference_seqs

    @pytest.mark.parametrize("payloads", [[b"\x40"], [b"\x00", b"\x40"]])
    def test_floods_with_fan_out_run_in_one_call(self, payloads):
        """Nothing else is due: a valid flood whose every receipt fans out
        to another block, alone or on the instants of a junk flood, runs in
        one pump call; each fan-out still runs as an event, right after the
        arrival that made it."""
        sched = Scheduler()
        tr = Transport(sched, 500)
        victim = tr.add_device(DeviceModel("plc2", ip_to_int("192.168.1.2"), capacity=10**6))
        net = subscriber_net(sched, tr, victim, Trace())
        log = []
        net.add(FBInstance("SINK", [PortSpec("EI", PortKind.EVENT_IN)],
                           lambda ctx, ev, inputs, state: (log.append(("sink", ctx.now)) or state, [])))
        net.connect("SUB.IND", "SINK.EI")
        pump, calls = attacks._FloodPump._pump, []
        with mock.patch.object(attacks._FloodPump, "_pump",
                               lambda self: (calls.append(sched.now), pump(self))):
            for n, payload in enumerate(payloads):
                schedule_flood(AttackSpec(name=f"flood{n}", kind=AttackKind.UDP_FLOOD,
                                          attacker_id=f"attacker{n + 1}",
                                          target=Endpoint("plc2", victim.address, 61499),
                                          rate=1_000, stop=US // 10, payload=payload),
                               tr, sched, ip_to_int("10.0.0.66") + 16 * n)
            sched.run_until(US)
        assert calls == [500]
        assert log == [("sink", 500 + n * 1_000) for n in range(100)]
        assert sched.processed == 100 * len(payloads) + 100


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
    tr.on_presented = lambda dev, origin, view, verdict, now: seen.append(
        ("presented", now, dev.device_id, origin, view, tr._seq, verdict))
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

        # garbage left by earlier tests would otherwise be collected, or
        # not, inside the traced run and move its peak by more than 10%
        gc.collect()
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

    @pytest.mark.parametrize("capacity, horizons, sends, calls, routed", [
        # nothing else is due: one pump call
        (10**6, (), [], 1, {"attacker1": 1}),
        # the no-op events due after run_until horizons cut the flood
        (10**6, tuple(range(10_000, 100_000, 10_000)), [], 10, {"attacker1": 1}),
        # a publish sent at 50.05 ms cuts it twice; its arrival at 50.55 ms
        # latches RX and QO, and the counter latches them back, so the call
        # that pops after it counts from its first arrival
        (10**6, (), [(50_050, False, b"\x41")], 3, {"attacker1": 1, "plc1": 1}),
        # the same at 50.25 ms on an overloaded plc2, where the first junk
        # arrival after the publish is dropped
        (300, (), [(50_250, False, b"\x41")], 3, {"attacker1": 1, "plc1": 1}),
    ])
    def test_junk_flood_routes_only_its_first_arrival(self, capacity, horizons, sends, calls,
                                                      routed):
        """An untraced engine-off junk flood at a subscriber counts every
        ingested arrival as malformed but routes only its first: the pump
        asks `count_only` once that arrival has taught the subscriber's memo
        the payload, and a stream parked while counting asks again when it
        pops and counts from there.  If that answer is no, the stream asks
        again after its first arrival and, if that one was dropped, after
        its first routed one."""
        got = Counter()
        arrive = Transport.arrive
        pump = attacks._FloodPump._pump
        pumped = 0

        def counted(tr, device, origin, src_id, view, ep, now, packet=None):
            got[origin] += 1
            arrive(tr, device, origin, src_id, view, ep, now, packet)

        def pump_call(self):
            nonlocal pumped
            pumped += 1
            pump(self)

        with mock.patch.object(Transport, "arrive", counted), \
                mock.patch.object(attacks._FloodPump, "_pump", pump_call):
            (log, victim, *_, (accepted, malformed), _din, _dout, _trace, _supp,
             seq, processed) = run_count_case(
                [spec(rate=10_000, stop=US // 10, payload=b"\x00")], capacity, 10**6,
                None, False, False, [], sends, horizons=horizons)
        assert victim["offered"] == 1_000 + len(sends)
        assert victim["ingested"] == malformed + accepted == seq
        assert victim["dropped_capacity"] == (0 if capacity == 10**6 else 331)
        assert accepted == len(sends)
        # every arrival, send and no-op ran as an event
        assert processed == 1_000 + 2 * len(sends) + len(horizons)
        assert pumped == calls
        assert got == routed
