"""Device capacity model, half-open table, delivery ordering, spoof opacity."""

import random
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbsecsim import idps
from fbsecsim.attacks import GHOST_ID, syn_source, syn_sources
from fbsecsim.csifb import make_subscriber
from fbsecsim.fbnet import FBNetwork, Scheduler, Trace
from fbsecsim.idps import EngineMode, IdpsEngine, parse_rules
from fbsecsim.metrics import Recorder
from fbsecsim.transport import (
    BUCKET_US,
    WINDOW_US,
    DeviceModel,
    DeviceState,
    Endpoint,
    GroupAddress,
    HalfOpenTable,
    Packet,
    PacketView,
    Proto,
    Transport,
    int_to_ip,
    ip_to_int,
)
from fbsecsim.values import Bool, Str

US = 1_000_000


def make_transport(latency=500):
    sched = Scheduler()
    return Transport(sched, latency_us=latency), sched


def plain_device(dev_id="plc2", addr="192.168.1.2", **kw):
    return DeviceModel(dev_id, ip_to_int(addr), **kw)


# (offered, ingested, dropped_capacity, dropped_unresponsive) deltas of one arrival
_FATES = {(1, 1, 0, 0): "ingested", (1, 0, 1, 0): "dropped_capacity",
          (1, 0, 0, 1): "dropped_unresponsive"}


def _fate_counters(dev):
    return dev.offered, dev.ingested, dev.dropped_capacity, dev.dropped_unresponsive


def ingest_fate(dev, now):
    """`dev.ingest(now)`, named by the fate counter it moved.  Checks that the
    arrival is offered once, that exactly one fate counter moves, by one, and
    that `ingest` returns True just when that counter is `ingested`."""
    before = _fate_counters(dev)
    ok = dev.ingest(now)
    delta = tuple(a - b for a, b in zip(_fate_counters(dev), before))
    assert delta in _FATES, delta
    assert ok is (delta[1] == 1)
    return _FATES[delta]


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
            assert ingest_fate(dev, i * 10_000) == "ingested"

    def test_drop_fraction_matches_fluid_limit(self):
        """capacity 10k, offered 40k/s: expected drop fraction 1 - C/L = 0.75,
        measured over the steady window with +-0.02 tolerance."""
        dev = plain_device(capacity=10_000, seed=17)
        interval = US // 40_000
        drops = offered = 0
        t = 0
        while t < 3 * US:
            fate = ingest_fate(dev, t)
            if t >= US:  # skip the ramp-up second
                offered += 1
                drops += fate == "dropped_capacity"
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
            assert ingest_fate(dev, t + dt) == "dropped_unresponsive"
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
                fate = ingest_fate(dev, t)
                if t >= US:
                    offered += 1
                    drops += fate != "ingested"
                t += interval
            fractions.append(drops / offered)
        ranks = {v: i for i, v in enumerate(sorted(fractions))}
        rho = 1 - 6 * sum((ranks[f] - i) ** 2 for i, f in enumerate(fractions)) / (
            len(rates) * (len(rates) ** 2 - 1))
        assert rho > 0.99


def _device_state(dev):
    return (dev.counters(), dev.transitions, dev.state, dev.down, dev._overloaded_at,
            [list(bucket) for bucket in dev._buckets], dev._total)


class TestIngestSpan:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_repeated_ingest(self, data):
        """`ingest_span` over consecutive pieces of a periodic span leaves a
        device where one `ingest` per arrival does, each call stopping after
        the arrival that takes the device down.  Earlier arrivals leave the
        device over capacity, one arrival short of the critical rate, or
        overloaded long enough ago that it recovers inside the span."""
        draw = data.draw
        capacity = draw(st.integers(1, 40))
        critical_rate = draw(st.one_of(st.just(10**6), st.integers(capacity + 1, capacity + 80)))
        seed = draw(st.integers(0, 3))
        span, ref = (plain_device(capacity=capacity, critical_rate=critical_rate, seed=seed)
                     for _ in "sr")

        def both(now):
            span.ingest(now)
            ref.ingest(now)

        t = draw(st.integers(0, 3 * WINDOW_US))
        # bursts of earlier arrivals, each after a short lead or a clean window
        for lead, n, spacing in draw(st.lists(st.tuples(
                st.one_of(st.integers(0, 2 * BUCKET_US), st.integers(WINDOW_US, 3 * WINDOW_US)),
                st.integers(1, 60), st.integers(0, 50)), max_size=4)):
            t += lead
            for _ in range(n):
                both(t)
                t += spacing
        if critical_rate < 10**6 and draw(st.booleans()):
            # fill the window to one arrival short of critical_rate
            while ref._total < critical_rate - 1 and not ref.down:
                both(t)
        per_rate = draw(st.one_of(st.sampled_from([3, 7, 333_333, 10**6]),
                                  st.integers(1, 10**6)))
        lo = draw(st.integers(0, 50))
        hi = lo + draw(st.integers(0, 200))  # may be empty
        # the span starts soon, or so that an overload's clean window ends inside it
        t += draw(st.integers(0, 2 * BUCKET_US))
        if ref._overloaded_at is not None and draw(st.booleans()):
            t = max(t, ref._overloaded_at + WINDOW_US + BUCKET_US
                    - draw(st.integers(0, (hi - lo) * US // per_rate)))
        base = t - lo * US // per_rate  # arrival lo is due at t
        cuts = sorted(draw(st.lists(st.integers(lo, hi), max_size=3)))
        for a, b in zip([lo, *cuts], [*cuts, hi]):
            taken = ingested = 0
            for m in range(a, b):
                taken += 1
                ingested += ref.ingest(base + m * US // per_rate)
                if ref.down:
                    break
            assert span.ingest_span(base, per_rate, a, b) == (taken, ingested)
            assert _device_state(span) == _device_state(ref)
        assert span._rng.random() == ref._rng.random()

    def test_recovers_on_the_last_under_capacity_arrival_of_a_bucket(self):
        """The clean window ends between the first and the last arrival of
        the span's one bucket, all under capacity: the device recovers."""
        span, ref = (plain_device(capacity=20) for _ in "sr")
        for dev in (span, ref):
            for _ in range(30):
                dev.ingest(0)
            dev.ingest(500_500)  # over capacity: overloaded until 1_500_500
        base = 1_500_495  # bucket 1500; of the earlier arrivals only 500_500 is in the window
        assert span.ingest_span(base, 10**6, 0, 10) == (10, 10)
        for m in range(10):
            ref.ingest(base + m)
        assert span.state is DeviceState.RESPONSIVE
        assert _device_state(span) == _device_state(ref)


# rulesets for the engine in front of a SYN stream: rate rules that test
# nothing else (a SYN from a new source passes them), none for TCP, and one
# whose destination port makes `StaticMatches` test each SYN
_SYN_RULESETS = [
    'alert tcp any any -> any any rate 3/1 msg "syn"\n'
    'block udp any any -> any any payload "00" msg "junk"\n'
    'alert any any any -> any any rate 2/1 msg "all"\n',
    'alert udp any any -> any any rate 2/1 msg "udp"\n',
    'alert tcp any any -> any 61500 rate 3/1 msg "port"\n',
]


@st.composite
def refusal_cases(draw):
    """A transport whose plc2 faces a periodic SYN stream from attacker1,
    with its device window, half-open table, engine, rate tables and recorder
    drawn as earlier traffic could have left them; every earlier time is at
    or before arrival `lo`.  Returns the drawn parameters, to build the same
    case twice, and the stream's clock and index range."""
    per_rate = draw(st.sampled_from([1_000, 5_000, 20_000]))
    lo = draw(st.integers(0, 20))
    hi = lo + draw(st.integers(1, 60))
    base = 1_200_000
    t_lo = base + lo * US // per_rate
    earlier = st.integers(0, t_lo)
    halfopen = draw(st.integers(1, 6))
    timeout = draw(st.sampled_from([1_000, 5_000, 50_000, 3 * US]))
    free = draw(st.sampled_from([0, 0, 0, 1, 2, halfopen]))
    params = dict(
        capacity=draw(st.integers(1, 100)), critical_rate=draw(st.integers(2, 150)),
        window=sorted(draw(st.lists(earlier, max_size=40))),
        halfopen=halfopen, timeout=timeout, latency=draw(st.sampled_from([100, 500, 20_000])),
        # often a full table, whose front entry may expire inside the range
        entries=sorted(draw(st.lists(st.integers(t_lo - timeout - 2_000, t_lo),
                                     min_size=max(0, halfopen - free), max_size=halfopen))),
        # arrivals whose claimed source holds one of those entries
        held=draw(st.lists(st.integers(lo, hi), max_size=2)),
        rules=draw(st.sampled_from([None, *_SYN_RULESETS[:1] * 3, *_SYN_RULESETS])),
        inspection_capacity=draw(st.integers(1, 60)),
        inspected=sorted(draw(st.lists(earlier, max_size=40))),
        sweep_at=draw(st.sampled_from([None, 0, 3])),
        # (arrival, engine's and/or oracle's table, first hit): keys counted before
        seen=draw(st.lists(st.tuples(st.integers(lo, hi), st.sampled_from(["e", "o", "eo"]),
                                     earlier), max_size=6)),
        recorder=draw(st.sampled_from([True, True, False])),
        ghost_device=draw(st.sampled_from([False] * 9 + [True])))
    return params, base, per_rate, lo, hi


class _TallyLoggingScheduler(Scheduler):
    """Logs the due time of every tallied event queued, counted or not."""

    def __init__(self):
        super().__init__()
        self.tally_log = []

    def tally(self, times):
        times = list(times)
        self.tally_log += times
        super().tally(times)


@st.composite
def counted_cases(draw):
    """A `refusal_cases` case whose stream is ICMP, or UDP at plc2's
    subscriber, which may be traced and may have been handed the stream's
    payload once before: junk, or a BOOL that it accepts."""
    p, base, per_rate, lo, hi = draw(refusal_cases())
    p.update(proto=draw(st.sampled_from([Proto.UDP, Proto.UDP, Proto.ICMP_ECHO])),
             rules=draw(st.sampled_from([None, None, None, _SYN_RULESETS[0]])),
             traced=draw(st.sampled_from([False, False, True])),
             taught=draw(st.sampled_from([True, True, False])),
             payload=draw(st.sampled_from([b"\x00", b"\xff\x01", b"\x41"])))
    return p, base, per_rate, lo, hi


def _stream_view(dev, p):
    """The one view of a counted case's stream from attacker1."""
    return PacketView(p["proto"], ip_to_int("10.0.0.66"), 40000, dev.address, 61499, p["payload"])


def _refusal_transport(p):
    sched = _TallyLoggingScheduler()
    tr = Transport(sched, latency_us=p["latency"])
    dev = tr.add_device(plain_device(capacity=p["capacity"], critical_rate=p["critical_rate"],
                                     halfopen_capacity=p["halfopen"],
                                     halfopen_timeout_us=p["timeout"]))
    net = None
    if p.get("proto") is Proto.UDP:
        net = FBNetwork(sched, Trace() if p["traced"] else None, services={"transport": tr})
        net.host = dev
        net.add(make_subscriber("SUB", net, tr, "plc2"))
        net.set_data_in("SUB", "QI", Bool(True))
        net.set_data_in("SUB", "ID", Str("239.192.0.2:61499"))
        net.dispatch("SUB", "INIT")
        if p["taught"]:
            tr.sockets[("plc2", 61499)](_stream_view(dev, p))
    for t in p["window"]:
        dev.ingest(t)
    held = [syn_source(0x0A000000, m) for m in p["held"]]
    for k, t in enumerate(p["entries"]):
        address, port = held[k] if k < len(held) else (ip_to_int("192.168.1.30"), 50_000 + k)
        dev.halfopen.syn(address, port, 61500, t)
    engine, rules = None, []
    if p["rules"] is not None:
        rules = parse_rules(p["rules"])
        engine = dev.engine = IdpsEngine(p["inspection_capacity"])
        engine.start(rules, EngineMode.IPS)
    recorder = Recorder(["plc2"], "plc1", engine, rules)
    if engine is not None:
        recorder.attacker_ids.add("attacker1")
        for t in p["inspected"]:
            engine.inspect(PacketView(Proto.UDP, 1, 2, dev.address, 61499, b"\x41"), t)
        if p["sweep_at"] is not None:
            engine.rate_counters.sweep_at = recorder.oracle.windows.sweep_at = p["sweep_at"]
        for m, tables, t in p["seen"]:
            address, port = syn_source(0x0A000000, m)
            for rule in rules:
                if rule.rate is not None:
                    if "e" in tables:
                        engine.rate_counters.add((rule.id, address, port), rule.rate, t)
                    if "o" in tables:
                        recorder.oracle.windows.add((rule.id, address, port), rule.rate, t)
    if p["recorder"]:
        tr.recorder = recorder
    if p["ghost_device"]:
        tr.add_device(plain_device(GHOST_ID, "10.0.0.1"))
    return tr, dev, engine, recorder, net


def _refusal_state(tr, dev, engine, recorder, net):
    state = [_device_state(dev), list(dev.halfopen.entries.items()), tr._seq,
             tr.scheduler.tally_log, recorder.legit_sends]
    if net is not None:
        sub = net.instances["SUB"]
        state += [sub.state.accepted, sub.state.malformed, dict(sub.din), dict(sub.dout),
                  net.trace and net.trace.entries]
    if engine is not None:
        state += [engine.presented, engine.inspected, engine.dropped_by_engine, engine.alerts,
                  list(engine._inspected_times), dict(engine.rate_counters),
                  engine.rate_counters.sweep_at, recorder.attack_presented, recorder.blocked,
                  recorder.oracle.windows, recorder.oracle.windows.sweep_at,
                  recorder.oracle.true_matches]
    return state


def _keys_seen_case(seen, halfopen=1, held=()):
    """Ten SYNs at 1000/s at a table with `halfopen` slots that one SYN
    fills, or none if its source is `held` (an arrival), with an engine of
    room for them all, a latency of 20 ms and the keys `seen` counted
    before."""
    return (dict(capacity=100, critical_rate=150, window=[], halfopen=halfopen, timeout=3 * US,
                 latency=20_000, entries=[US], held=list(held), rules=_SYN_RULESETS[0],
                 inspection_capacity=60, inspected=[], sweep_at=None, seen=seen,
                 recorder=True, ghost_device=False),
            1_200_000, 1_000, 0, 10)


class TestRefusals:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(refusal_cases())
    # a key only the oracle holds, then one only the engine holds, and the
    # other way round: either stops the segment
    @example(_keys_seen_case([(3, "o", 1_100_000), (6, "e", 1_100_000)]))
    @example(_keys_seen_case([(3, "e", 1_100_000), (6, "o", 1_100_000)]))
    # the same with room in the table, so the SYNs are admitted
    @example(_keys_seen_case([(3, "o", 1_100_000), (6, "e", 1_100_000)], halfopen=20))
    @example(_keys_seen_case([(3, "e", 1_100_000), (6, "o", 1_100_000)], halfopen=20))
    # the table holds arrival 4's source: it stops a segment of admitted SYNs
    @example(_keys_seen_case([], halfopen=20, held=[4]))
    def test_a_segment_is_its_arrivals_one_at_a_time(self, case):
        """The SYNs a `Transport.segment` function takes in one call leave
        the device, the half-open table, the sequence numbers, the tallied
        SYN-ACKs, the engine, the recorder and the oracle as the per-packet
        path leaves them, and that path ingests each under capacity,
        inspects and passes it, and either refuses all of them or admits
        all of them, each before the first one's SYN-ACK falls due.
        Earlier traffic may have left the device near capacity or collapse,
        the table full with entries about to expire or holding some of the
        stream's sources, the engine near saturation, the keys of some of
        the stream's sources in either rate table, and both tables due to
        sweep.

        Why they agree: a SYN the device ingests under capacity and short
        of collapse costs no drop draw, so `ingest_span` is its `ingest`.
        With room left, the engine inspects it, and as the first hit of
        keys neither rate table holds it passes rules that test nothing
        but protocol and rate (`TestSpans` in test_idps.py).  Its fate
        past the engine is the half-open table's: a full table refuses
        it until the front entry expires; a table with a free slot admits
        a key it does not hold, in opening order, so the entries, and the
        stale ones expired at the last SYN, end as one `syn` each leaves
        them.  An admitted SYN's SYN-ACK goes to a spoofed source with no
        device, so it is a tallied event that falls due after the
        segment's last arrival, and it takes the sequence number after
        its SYN's."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(idps, "_SWEEP_MIN", 0)
            check_segment(*case)


class TestCountedSegments:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(counted_cases())
    def test_a_segment_is_its_arrivals_one_at_a_time(self, case):
        """The ICMP or junk UDP arrivals a `Transport.segment` function takes
        in one call leave the device, the sequence numbers and the
        subscriber, its trace included, as the per-packet path leaves
        them.  The answer is None when an engine runs, or the subscriber is
        traced or has not been handed the payload, or the payload is one it
        accepts.

        Why they agree: the fate of an arrival the device ingests is a
        counter, `icmp_received` or the subscriber's malformed count, so
        `ingest_span` over the stretch and one counter update for the
        ingested ones are the arrivals one at a time."""
        check_segment(*case)


def check_segment(p, base, per_rate, lo, hi):
    """Take arrivals lo..hi-1 of case `p`'s stream from attacker1 with one
    `Transport.segment` function, and the same arrivals and the next one
    one at a time on a second copy of the case; both must end the same."""
    tr, dev, engine, recorder, net = _refusal_transport(p)
    ref_tr, ref_dev, ref_engine, ref_recorder, ref_net = _refusal_transport(p)
    if dev.down:
        return  # the pump accounts the flood's remainder in bulk
    syn = p.get("proto", Proto.TCP_SYN) is Proto.TCP_SYN
    ep = Endpoint("plc2", dev.address, 61500 if syn else 61499)
    source = partial(syn_source, 0x0A000000)
    if syn:
        span = tr.segment(dev, ep, "attacker1", base, per_rate, None,
                          partial(syn_sources, 0x0A000000))
        assert (span is None) is (p["ghost_device"] or p["rules"] == _SYN_RULESETS[2])
    else:
        span = tr.segment(dev, ep, "attacker1", base, per_rate, _stream_view(dev, p))
        assert (span is None) is (engine is not None or (
            p["proto"] is Proto.UDP and (p["traced"] or not p["taught"]
                                         or p["payload"] == b"\x41")))
    taken = 0 if span is None else span(lo, hi)
    assert 0 <= taken <= hi - lo
    admitted = dev.syn_accepted

    def per_packet(tr, dev, m):
        now = tr.scheduler.now = base + m * US // per_rate
        if dev.ingest(now):
            tr.next_seq()
            if syn:
                tr.arrive(dev, "attacker1", GHOST_ID,
                          PacketView(Proto.TCP_SYN, *source(m), ep.address, ep.port, b""), ep, now)
            else:
                tr.arrive(dev, "attacker1", "attacker1", _stream_view(dev, p), ep, now)

    for m in range(lo, lo + taken):
        fates = ref_dev.syn_accepted, ref_dev.syn_refused
        inspected, alerts = (ref_engine.inspected, len(ref_engine.alerts)) if ref_engine else (0, 0)
        per_packet(ref_tr, ref_dev, m)
        if syn:
            assert ref_dev.ingested == dev.ingested - (lo + taken - 1 - m)
            assert ref_dev._total <= ref_dev.capacity
            assert (ref_dev.syn_accepted, ref_dev.syn_refused) == (
                (fates[0] + 1, fates[1]) if admitted else (fates[0], fates[1] + 1))
            if ref_engine is not None:
                assert ref_engine.inspected == inspected + 1 and len(ref_engine.alerts) == alerts
    if taken and admitted:
        # no SYN-ACK of the segment falls due before its last arrival has run
        assert tr.scheduler.tally_log[-taken] > base + (lo + taken - 1) * US // per_rate
    if lo + taken < hi:  # the arrival the segment left takes the per-packet path
        per_packet(tr, dev, lo + taken)
        per_packet(ref_tr, ref_dev, lo + taken)
    assert _refusal_state(tr, dev, engine, recorder, net) == _refusal_state(
        ref_tr, ref_dev, ref_engine, ref_recorder, ref_net)


class _FullScanTable:
    """Reference half-open table: a plain dict, scanned whole on every call."""

    def __init__(self, capacity, timeout_us):
        self.capacity = capacity
        self.timeout_us = timeout_us
        self.entries = {}

    def _evict(self, now):
        for k in [k for k, t in self.entries.items() if t + self.timeout_us <= now]:
            del self.entries[k]

    def syn(self, src_addr, src_port, local_port, now):
        self._evict(now)
        if len(self.entries) >= self.capacity:
            return False
        self.entries[(src_addr, src_port, local_port)] = now
        return True

    def ack(self, src_addr, src_port, local_port):
        return self.entries.pop((src_addr, src_port, local_port), None) is not None

    def live(self, now):
        self._evict(now)
        return len(self.entries)


class TestSlidingWindow:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 * WINDOW_US), st.lists(st.one_of(
        st.just(0),                                       # same instant
        st.integers(1, BUCKET_US - 1),                    # same bucket or the next
        st.integers(BUCKET_US, 50 * BUCKET_US),           # a few buckets on
        st.sampled_from([WINDOW_US - BUCKET_US, WINDOW_US, WINDOW_US + BUCKET_US]),
        st.integers(WINDOW_US + BUCKET_US, 3 * WINDOW_US),  # past the window: it empties
    ), max_size=200))
    def test_totals_match_a_brute_force_count(self, t, steps):
        """After each `ingest`, a device's window total is the number of
        arrivals so far whose bucket is in [b - 1000, b], b the new
        arrival's bucket; the deque keeps exactly the non-empty buckets of
        that span."""
        n_buckets = WINDOW_US // BUCKET_US
        dev, seen = plain_device(capacity=10**9, critical_rate=10**9), []
        for step in [0] + steps:
            t += step
            b = t // BUCKET_US
            seen.append(b)
            live = [a for a in seen if b - n_buckets <= a <= b]
            assert dev.ingest(t)
            assert dev._total == len(live)
            assert [bucket for bucket, _ in dev._buckets] == sorted(set(live))


def live(table, now):
    """Entries still live at `now`, once the stale ones expire."""
    table._evict(now)
    return len(table.entries)


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
        assert live(table, 1) == 0

    def test_expired_slot_reclaimed(self):
        table = HalfOpenTable(capacity=1, timeout_us=3 * US)
        assert table.syn(1, 1, 80, now=0)
        assert not table.syn(2, 1, 80, now=2 * US)
        assert table.syn(2, 1, 80, now=3 * US)  # first entry aged out

    def test_resyn_pushes_expiry_back(self):
        """A re-SYN refreshes a live entry; one opened before the refresh
        still expires first."""
        table = HalfOpenTable(capacity=4, timeout_us=10)
        assert table.syn(1, 1, 80, now=0)
        assert table.syn(2, 1, 80, now=2)
        assert table.syn(1, 1, 80, now=5)           # refresh: expires at 15, not 10
        assert live(table, 10) == 2
        assert live(table, 12) == 1              # the entry opened at 2 is gone
        assert dict(table.entries) == {(1, 1, 80): 5}
        assert live(table, 15) == 0

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 6), timeout=st.integers(1, 10),
           ops=st.lists(st.tuples(st.sampled_from(["syn", "syn", "ack", "live"]),
                                  st.integers(0, 4),
                                  st.sampled_from([0, 0, 0, 1, 2, 5, 11])),
                        max_size=60))
    def test_matches_full_scan_model(self, capacity, timeout, ops):
        """Front expiry agrees call for call with a table that scans every
        entry, for any sequence with nondecreasing `now`."""
        # Every sequence starts with SYNs at one instant and a re-SYN of a live key.
        ops = [("syn", 0, 0), ("syn", 1, 0), ("syn", 2, 0), ("syn", 0, 1)] + ops
        table = HalfOpenTable(capacity, timeout)
        model = _FullScanTable(capacity, timeout)
        now = 0
        for op, k, dt in ops:
            now += dt
            key = (1000 + k, 40000 + k, 80)
            if op == "syn":
                assert table.syn(*key, now=now) == model.syn(*key, now=now)
            elif op == "ack":
                assert table.ack(*key) == model.ack(*key)
            else:
                assert live(table, now) == model.live(now)
            assert dict(table.entries) == model.entries
            times = list(table.entries.values())
            assert times == sorted(times)

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
