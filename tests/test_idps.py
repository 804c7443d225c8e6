"""Rule parsing, matching, engine saturation, lifecycle, alert polling."""

import dataclasses
import gc
import math
import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fbsecsim import idps
from fbsecsim.data import rules_path
from fbsecsim.errors import RuleSyntaxError
from fbsecsim.fbnet import FBNetwork, Scheduler, Trace
from fbsecsim.idps import (
    Action,
    EngineMode,
    IdpsEngine,
    RateCounters,
    STATUS_RUNNING,
    StaticMatches,
    add_idps,
    make_alertcheck,
    make_idps_sifb,
    parse_rules,
)
from fbsecsim.metrics import TruthOracle
from fbsecsim.transport import PacketView, Proto, int_to_ip, ip_to_int
from fbsecsim.values import Int

US = 1_000_000


def rate_hit(rule, view, counters, now):
    """Count a static match of a rate rule in `counters`, a `RateCounters`;
    True when its window is exceeded.  The reference for the engine's and
    the oracle's inline window updates."""
    rate = rule.rate
    key = (rule.id, view.src_address, view.src_port)
    times = counters.get(key)
    if times is None:
        counters.add(key, rate, now)
        return False  # one hit never exceeds a threshold
    if type(times) is int:
        times = counters[key] = deque((times,), rate.threshold + 1)
    times.append(now)
    return len(times) > rate.threshold and times[0] > now - rate.window_us


def match_packet(rule, view, counters, now):
    """Evaluate one rule of the packet's protocol; rate windows update on every static match."""
    return rule.static_match(view) and (rule.rate is None or rate_hit(rule, view, counters, now))


def view(proto=Proto.UDP, src="10.0.0.66", sport=40000, dst="239.192.0.2",
         dport=61499, payload=b"\x41"):
    return PacketView(proto, ip_to_int(src), sport, ip_to_int(dst), dport, payload)


class TestParse:
    def test_flood_rule_fields(self):
        rules = parse_rules('alert udp any any -> any 61499 rate 100/1 msg "udp flood"\n')
        assert len(rules) == 1
        r = rules[0]
        assert r.action is Action.ALERT
        assert r.protos == frozenset({Proto.UDP})
        assert r.src_addr is None and r.src_port is None and r.dst_addr is None
        assert r.dst_port.lo == r.dst_port.hi == 61499
        assert r.rate.threshold == 100 and r.rate.window_us == US
        assert r.msg == "udp flood"

    def test_empty_file_is_legal(self):
        assert parse_rules("") == []
        assert parse_rules("# only comments\n\n") == []

    def test_block_without_matchers_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules('block any any any -> any any msg "blackhole"')

    def test_malformed_block_any_line(self):
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rules("block any")
        assert exc.value.line == 1

    def test_alert_without_matchers_is_fine(self):
        rules = parse_rules('alert any any any -> any any msg "log all"')
        assert rules[0].action is Action.ALERT

    @pytest.mark.parametrize("line", [
        'drop udp any any -> any any msg "x"',
        'alert quic any any -> any any msg "x"',
        'alert udp any any any any msg "x"',
        'alert udp any any -> any any rate 0/1 msg "x"',
        'alert udp any any -> any any rate 5/0 msg "x"',
        'alert udp any any -> any any bogus msg "x"',
        'alert udp any any -> any any msg "x" trailing',
        'alert udp 1.2.3 any -> any any msg "x"',
        'alert udp any 99999 -> any any msg "x"',
        "alert udp any any -> any any",
    ])
    def test_syntax_errors(self, line):
        with pytest.raises(RuleSyntaxError):
            parse_rules(line)

    def test_line_numbers_reported(self):
        text = '# comment\nalert udp any any -> any any msg "ok"\nbad line here\n'
        with pytest.raises(RuleSyntaxError) as exc:
            parse_rules(text)
        assert exc.value.line == 3

    def test_cidr_and_port_range(self):
        r = parse_rules('alert tcp 192.168.1.0/24 1024:2048 -> any any msg "x"')[0]
        assert r.src_addr.matches(ip_to_int("192.168.1.77"))
        assert not r.src_addr.matches(ip_to_int("192.168.2.1"))
        assert r.src_port.matches(1500) and not r.src_port.matches(80)

    def test_ids_assigned_in_file_order(self):
        text = ('alert udp any any -> any 1 msg "a"\n'
                'alert udp any any -> any 2 msg "b"\n')
        assert [r.id for r in parse_rules(text)] == ["r1", "r2"]


class TestMatch:
    def test_dst_port_match(self):
        r = parse_rules('alert udp any any -> any 61499 msg "x"')[0]
        assert match_packet(r, view(), RateCounters(), 0)
        assert not match_packet(r, view(dport=80), RateCounters(), 0)

    def test_proto_families(self):
        r = parse_rules('alert tcp any any -> any any msg "x"')[0]
        # match_packet leaves the protocol to its caller's protocol buckets
        assert r.protos == {Proto.TCP_SYN, Proto.TCP_ACK, Proto.TCP_DATA, Proto.TCP_SYNACK}
        for p in r.protos:
            assert match_packet(r, view(proto=p), RateCounters(), 0)

    def test_payload_substring(self):
        r = parse_rules('alert udp any any -> any any payload "41" msg "x"')[0]
        assert match_packet(r, view(payload=b"\x41"), RateCounters(), 0)
        assert not match_packet(r, view(payload=b"\x40"), RateCounters(), 0)
        assert match_packet(r, view(payload=b"\x00\x41\x00"), RateCounters(), 0)

    def test_srcallow_excludes_listed_sources(self):
        r = parse_rules('block udp any any -> 239.192.0.2 61499 '
                        'srcallow 192.168.1.1 msg "x"')[0]
        assert match_packet(r, view(src="10.0.0.66"), RateCounters(), 0)
        assert not match_packet(r, view(src="192.168.1.1"), RateCounters(), 0)

    def test_rate_threshold_boundary(self):
        """Packets 1..100 inside the window do not match; packet 101 does."""
        r = parse_rules('alert udp any any -> any 61499 rate 100/1 msg "x"')[0]
        counters = RateCounters()
        results = [match_packet(r, view(), counters, t * 1000) for t in range(101)]
        assert results[:100] == [False] * 100
        assert results[100] is True

    def test_rate_window_slides(self):
        r = parse_rules('alert udp any any -> any any rate 2/1 msg "x"')[0]
        counters = RateCounters()
        assert not match_packet(r, view(), counters, 0)
        assert not match_packet(r, view(), counters, 100)
        assert match_packet(r, view(), counters, 200)          # 3 within 1 s
        assert not match_packet(r, view(), counters, 2 * US)   # old ones aged out

    def test_rate_keyed_by_claimed_source(self):
        r = parse_rules('alert udp any any -> any any rate 1/1 msg "x"')[0]
        counters = RateCounters()
        assert not match_packet(r, view(src="10.0.0.1"), counters, 0)
        assert not match_packet(r, view(src="10.0.0.2"), counters, 1)  # separate window
        assert match_packet(r, view(src="10.0.0.1"), counters, 2)

    def test_rate_against_bruteforce_oracle(self):
        """Exact agreement with a naive full-history sliding window count."""
        r = parse_rules('alert udp any any -> any any rate 7/2 msg "x"')[0]
        rng = random.Random(99)
        counters = RateCounters()
        history = []
        t = 0
        for _ in range(2000):
            t += rng.randrange(1, 400_000)
            history.append(t)
            expected = sum(1 for h in history if h > t - 2 * US) > 7
            assert match_packet(r, view(), counters, t) == expected


class TestEngine:
    def started(self, text, mode=EngineMode.IPS, capacity=5_000):
        eng = IdpsEngine(inspection_capacity=capacity)
        eng.start(parse_rules(text), mode)
        return eng

    def test_off_mode_passes_and_counts_nothing(self):
        eng = IdpsEngine()
        eng.start([], EngineMode.OFF)
        v = eng.inspect(view(), 0)
        assert not v.blocked and eng.presented == 0

    def test_block_in_ips_vs_ids(self):
        rule = 'block udp any any -> any 61499 msg "x"'
        ips = self.started(rule, EngineMode.IPS)
        assert ips.inspect(view(), 0).blocked
        ids = self.started(rule, EngineMode.IDS)
        v = ids.inspect(view(), 0)
        assert not v.blocked and len(ids.alerts) == 1

    def test_first_match_wins(self):
        text = ('alert udp any any -> any 61499 msg "first"\n'
                'block udp any any -> any any msg "second"\n')
        eng = self.started(text, EngineMode.IPS)
        v = eng.inspect(view(), 0)
        assert not v.blocked and v.rule_id == "r1"
        assert eng.alerts[0].msg == "first"

    def test_saturation_fraction_exact(self):
        """capacity 5k, offered 20k/s for 2 s: 10k inspected, 0.75 uninspected."""
        eng = self.started('alert udp any any -> any any rate 100/1 msg "x"',
                           EngineMode.IDS, capacity=5_000)
        interval = US // 20_000
        t = 0
        while t < 2 * US:
            eng.inspect(view(), t)
            t += interval
        assert eng.presented == 40_000
        assert eng.inspected == 10_000
        assert eng.dropped_by_engine == 30_000
        assert eng.dropped_by_engine / eng.presented == 0.75

    def test_accounting_identity(self):
        eng = self.started("", EngineMode.IDS, capacity=100)
        rng = random.Random(4)
        t = 0
        for _ in range(5_000):
            t += rng.randrange(1, 30_000)
            eng.inspect(view(), t)
        assert eng.presented == eng.inspected + eng.dropped_by_engine

    def test_saturation_undercounts_alerts(self):
        """Alert log falls short of the true match count once saturated."""
        from fbsecsim.metrics import TruthOracle
        rules = parse_rules('alert udp any any -> any any rate 100/1 msg "x"')
        eng = IdpsEngine(inspection_capacity=1_000)
        eng.start(rules, EngineMode.IDS)
        oracle = TruthOracle(parse_rules('alert udp any any -> any any rate 100/1 msg "x"'))
        interval = US // 10_000
        t = 0
        while t < 2 * US:
            eng.inspect(view(), t)
            oracle.observe(view(), t)
            t += interval
        assert len(eng.alerts) < oracle.true_matches

    def test_alert_count_monotone(self):
        eng = self.started('alert udp any any -> any any msg "x"', EngineMode.IDS)
        counts = []
        for t in range(10):
            eng.inspect(view(), t)
            counts.append(len(eng.alerts))
        assert counts == sorted(counts) and counts[-1] == 10

    def test_ids_transparency(self):
        """IDS mode must not change which packets get through."""
        rule = 'block udp any any -> any any rate 3/1 msg "x"'
        outcomes = {}
        for mode in (EngineMode.OFF, EngineMode.IDS):
            eng = IdpsEngine(inspection_capacity=10)
            eng.start(parse_rules(rule), mode)
            passed = []
            for t in range(0, 40_000, 1_000):
                v = eng.inspect(view(), t)
                if not v.blocked:
                    passed.append(t)
            outcomes[mode] = passed
        assert outcomes[EngineMode.OFF] == outcomes[EngineMode.IDS]


def _alert_row(v, t, rule_id, msg):
    return (t, rule_id, v.proto.value, f"{int_to_ip(v.src_address)}:{v.src_port}",
            f"{int_to_ip(v.dst_address)}:{v.dst_port}", len(v.payload), msg)


class TestAlertRows:
    def test_flood_rows_match_direct_rendering(self):
        eng = IdpsEngine()
        eng.start(parse_rules('alert udp any any -> any any msg "x"'), EngineMode.IDS)
        # two sources, and endpoints that share an address but not a port
        views = [view(src="10.0.0.66", sport=40000, dport=61499),
                 view(src="10.0.0.66", sport=40001, dport=61500),
                 view(src="10.0.0.67", sport=40000, dport=61499)]
        for _ in range(2):               # a restart renders the same rows again
            eng.start(eng.rules, EngineMode.IDS)
            expected = []
            for t in range(30):
                v = views[t % 3]
                eng.inspect(v, t)
                expected.append(_alert_row(v, t, "r1", "x"))
            assert [dataclasses.astuple(a) for a in eng.alerts] == expected

    def test_verdicts_per_rule_and_mode(self):
        text = ('block udp any any -> any 61499 msg "b"\n'
                'alert udp any any -> any any msg "a"\n')
        for mode, blocked in ((EngineMode.IPS, True), (EngineMode.IDS, False)):
            eng = IdpsEngine()
            eng.start(parse_rules(text), mode)
            first = eng.inspect(view(), 0)
            assert (first.blocked, first.rule_id, first.inspected) == (blocked, "r1", True)
            assert eng.inspect(view(), 1) is first
            other = eng.inspect(view(dport=80), 2)
            assert (other.blocked, other.rule_id, other.inspected) == (False, "r2", True)


# Small pools so random packets collide with random rules and rate windows fill.
_ADDRS = ["10.0.0.1", "10.0.0.2", "239.192.0.2"]
_PORTS = [40000, 61499]
_PROTOS = [Proto.UDP, Proto.TCP_SYN, Proto.ICMP_ECHO]

_rule_lines = st.builds(
    lambda action, proto, src, sport, dport, rate:
        f"{action} {proto} {src} {sport} -> any {dport}{rate} msg \"m\"",
    st.sampled_from(["alert", "block"]),
    st.sampled_from(["udp", "tcp", "icmp", "any"]),
    st.sampled_from(["any"] + _ADDRS),
    st.sampled_from(["any"] + [str(p) for p in _PORTS]),
    st.sampled_from(["any"] + [str(p) for p in _PORTS]),
    st.one_of(st.just(""), st.builds(lambda n, w: f" rate {n}/{w}",
                                     st.integers(1, 3), st.integers(1, 2))),
)
_packets = st.lists(st.tuples(
    st.integers(0, 400_000),             # gap to the previous packet, us
    st.sampled_from(_PROTOS),
    st.sampled_from(_ADDRS),
    st.sampled_from(_PORTS),
    st.sampled_from(_PORTS),
), max_size=60)


class TestEngineAgreesWithOracle:
    """While the engine is unsaturated, it alerts exactly when the oracle
    matches, whether their rate tables sweep stale windows or never do."""

    def check(self, text, packets):
        with pytest.MonkeyPatch.context() as mp:
            # sweep_at 0 with no floor: each table sweeps whenever it has
            # doubled since its last sweep, from its first key on
            mp.setattr(idps, "_SWEEP_MIN", 0)
            engines, oracles = [], []
            for sweep_at in (0, math.inf):
                eng = IdpsEngine(inspection_capacity=len(packets) + 1)
                eng.start(parse_rules(text), EngineMode.IDS)
                eng.rate_counters.sweep_at = sweep_at
                oracle = TruthOracle(parse_rules(text))
                oracle.windows.sweep_at = sweep_at
                engines.append(eng)
                oracles.append(oracle)
            t = 0
            for gap, proto, src, sport, dport in packets:
                t += gap
                v = view(proto=proto, src=src, sport=sport, dport=dport)
                verdicts = ([eng.inspect(v, t).rule_id is not None for eng in engines]
                            + [oracle.observe(v, t) for oracle in oracles])
                assert verdicts == [verdicts[0]] * 4
        for eng, oracle in zip(engines, oracles):
            assert eng.dropped_by_engine == 0
            assert oracle.true_matches == len(eng.alerts)

    def test_rate_rule_not_yet_fired_falls_through(self):
        text = ('alert udp any any -> any any rate 100/1 msg "flood"\n'
                'alert udp any any -> any 61499 msg "port"\n')
        self.check(text, [(1_000, Proto.UDP, "10.0.0.66", 40000, 61499)] * 50)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_rule_lines, min_size=1, max_size=4), _packets)
    def test_random_rulesets_and_packets(self, lines, packets):
        text = "\n".join(lines)
        try:
            parse_rules(text)
        except RuleSyntaxError:          # a block rule with no matchers
            assume(False)
        self.check(text, packets)


class TestRateTablesBounded:
    def test_rotating_source_flood_longer_than_the_window(self):
        """4 s of SYNs at 2000/s, each from a new claimed source, against a
        1 s rate window: neither table ever holds more than about
        2 x rate x window keys, where keeping every key would reach 8000."""
        rate, window_s = 2_000, 1
        rules = parse_rules(f'alert tcp any any -> any any rate 500/{window_s} msg "syn"')
        eng = IdpsEngine(inspection_capacity=2 * rate)
        eng.start(rules, EngineMode.IDS)
        oracle = TruthOracle(rules)
        peaks = [0, 0]
        for i in range(4 * rate):
            v = PacketView(Proto.TCP_SYN, ip_to_int("10.0.0.0") + i, 1024 + i % 7,
                           ip_to_int("192.168.1.2"), 61500, b"")
            t = i * US // rate
            eng.inspect(v, t)
            oracle.observe(v, t)
            peaks = [max(peaks[0], len(eng.rate_counters)), max(peaks[1], len(oracle.windows))]
        assert eng.inspected == 4 * rate
        assert max(peaks) <= 2 * rate * window_s + 2
        assert min(peaks) > rate * window_s


class _FullScanOracle:
    """Reference rule evaluation: every rule tested in file order, and a
    deque of the newest threshold+1 hits per (rule, claimed source) from
    its first hit.  A new key first drops every window whose newest hit
    has left its rule's window, once the table has doubled since the last
    sweep (no floor)."""

    def __init__(self, rules, sweep_at):
        self.rules = rules
        self.window_us = {r.id: r.rate.window_us for r in rules if r.rate is not None}
        self.windows = {}
        self.sweep_at = sweep_at
        self.true_matches = 0

    def first_match(self, v, now):
        for rule in self.rules:
            if v.proto not in rule.protos or not rule.static_match(v):
                continue
            if rule.rate is not None:
                key = (rule.id, v.src_address, v.src_port)
                if key not in self.windows:
                    if len(self.windows) >= self.sweep_at:
                        for k in [k for k, w in self.windows.items()
                                  if w[-1] <= now - self.window_us[k[0]]]:
                            del self.windows[k]
                        self.sweep_at = 2 * len(self.windows)
                    self.windows[key] = deque(maxlen=rule.rate.threshold + 1)
                win = self.windows[key]
                win.append(now)
                if len(win) <= rule.rate.threshold or win[0] <= now - rule.rate.window_us:
                    continue
            return rule
        return None

    def observe(self, v, now):
        matched = self.first_match(v, now) is not None
        self.true_matches += matched
        return matched


class _FullScanEngine(_FullScanOracle):
    """Reference engine: the full-scan rules behind a sliding one-second
    inspection budget; `inspect` returns (blocked, rule id, inspected)."""

    def __init__(self, rules, mode, capacity, sweep_at):
        super().__init__(rules, sweep_at)
        self.blocking = mode is EngineMode.IPS
        self.capacity = capacity
        self.inspected_times = []
        self.alerts = []

    def inspect(self, v, now):
        self.inspected_times = [t for t in self.inspected_times if t > now - US]
        if len(self.inspected_times) >= self.capacity:
            return False, None, False
        self.inspected_times.append(now)
        rule = self.first_match(v, now)
        if rule is None:
            return False, None, True
        self.alerts.append(_alert_row(v, now, rule.id, rule.msg))
        return self.blocking and rule.action is Action.BLOCK, rule.id, True


# Sources no rule names, so new rate keys keep arriving after old ones go stale.
_OTHER_SOURCES = [f"10.0.1.{i}" for i in range(8)]
# Gaps between packets, us: often short, sometimes a whole 1 s or 2 s window.
_gaps = st.one_of(st.integers(0, 300_000), st.sampled_from([500_000, 1_000_000, 2_000_000]))


class TestAgreesWithFullScan:
    """Rules grouped by protocol and first hits kept as bare timestamps
    change nothing: per packet, the engine and the oracle give the
    full-scan model's verdict, alert rows and rate-table sizes."""

    @settings(max_examples=300, deadline=None)
    # The third source's key sweeps out the first source's one-hit window.
    @example(['alert udp any any -> any any rate 2/1 msg "m"'],
             [(gap, Proto.UDP, src, 40000, 61499)
              for gap, src in ((0, "10.0.1.0"), (600_000, "10.0.1.1"), (600_000, "10.0.1.2"))],
             EngineMode.IDS, 60, 0)
    @given(st.lists(_rule_lines, min_size=1, max_size=5),
           st.lists(st.tuples(_gaps, st.sampled_from(list(Proto)),
                              st.sampled_from(_ADDRS + _OTHER_SOURCES), st.sampled_from(_PORTS),
                              st.sampled_from(_PORTS)), max_size=60),
           st.sampled_from([EngineMode.IDS, EngineMode.IPS]),
           st.integers(1, 60),
           st.sampled_from([0, math.inf]))
    def test_random_rulesets_and_packets(self, lines, packets, mode, capacity, sweep_at):
        try:
            rules = parse_rules("\n".join(lines))
        except RuleSyntaxError:          # a block rule with no matchers
            assume(False)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(idps, "_SWEEP_MIN", 0)
            eng = IdpsEngine(inspection_capacity=capacity)
            eng.start(rules, mode)
            eng.rate_counters.sweep_at = sweep_at
            oracle = TruthOracle(rules)
            oracle.windows.sweep_at = sweep_at
            ref_eng = _FullScanEngine(rules, mode, capacity, sweep_at)
            ref_oracle = _FullScanOracle(rules, sweep_at)
            t = 0
            for gap, proto, src, sport, dport in packets:
                t += gap
                v = view(proto=proto, src=src, sport=sport, dport=dport)
                verdict = eng.inspect(v, t)
                assert (verdict.blocked, verdict.rule_id, verdict.inspected) == ref_eng.inspect(v, t)
                assert oracle.observe(v, t) == ref_oracle.observe(v, t)
                assert [dataclasses.astuple(a) for a in eng.alerts] == ref_eng.alerts
                assert len(eng.rate_counters) == len(ref_eng.windows)
                assert len(oracle.windows) == len(ref_oracle.windows)
        assert oracle.true_matches == ref_oracle.true_matches


# Rules that test a SYN for nothing but protocol and rate, as `span_rules`
# needs them, two with a 1 s window and one with 3 s, and one for UDP whose
# repeated hits fire.
_SPAN_RULES = parse_rules('alert tcp any any -> any any rate 3/1 msg "syn"\n'
                          'alert tcp any any -> any any rate 2/3 msg "syn3"\n'
                          'block any any any -> any any rate 2/1 msg "all"\n'
                          'alert udp any any -> any any rate 1/1 msg "udp"\n')


def _table_state(table):
    return list(table.items()), table.sweep_at, table.floor, dict(table.window_us)


def _span_state(eng, oracle):
    return (eng.presented, eng.inspected, eng.dropped_by_engine,
            [dataclasses.astuple(a) for a in eng.alerts], list(eng._inspected_times),
            _table_state(eng.rate_counters), _table_state(oracle.windows), oracle.true_matches)


def _full_scan(table, window_us, now):
    """What a sweep at `now` leaves, scanning every key: the keys whose
    newest hit is inside their rule's window, in order, and the next sweep's
    size (`_SWEEP_MIN` 0)."""
    kept = [(k, w) for k, w in table.items()
            if (w if type(w) is int else w[-1]) > now - window_us[k[0]]]
    return kept, 2 * len(kept)


class TestSpans:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(_gaps, st.sampled_from([Proto.TCP_SYN, Proto.UDP]),
                              st.integers(0, 9)), max_size=30),
           st.lists(st.integers(0, 9), unique=True, min_size=1, max_size=10),
           st.lists(st.sampled_from([0, 0, 1, 400, 300_000]), min_size=10, max_size=10),
           st.integers(1, 30), st.sampled_from([0, 4, math.inf]))
    def test_a_span_is_its_arrivals_one_at_a_time(self, earlier, span, gaps, capacity, sweep_at):
        """`pass_span` and the oracle's `windows.fill` over the SYNs `room`
        and `unseen` allow leave the engine and the oracle as one `inspect`
        and one `observe` per SYN do, in the same key order; the SYN after them
        meets a key either table holds or, if the engine had room for no
        more, goes uninspected.  Earlier traffic from the same sources may
        have left their keys, stale ones to sweep, or an engine near
        saturation.

        Why they agree: each of the rules `span_rules` gives has a rate
        clause and no other matcher, so a SYN meets every one of them.  A
        SYN whose keys neither table holds is their first hit under each,
        which exceeds no threshold (N >= 1): it passes every rule, and
        `inspect` and `observe` store each key's bare timestamp, rule by
        rule, sweeping before a new key once the table has reached
        `sweep_at`.  The bulk fills store the same keys in the same order
        and cut them where that sweep falls.  With `room` left, every SYN
        is inspected, and the inspection times that leave the window are
        those the last SYN's `inspect` would expire."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(idps, "_SWEEP_MIN", 0)
            pairs = []
            for _ in "sr":
                eng = IdpsEngine(inspection_capacity=capacity)
                eng.start(_SPAN_RULES, EngineMode.IPS)
                oracle = TruthOracle(_SPAN_RULES)
                eng.rate_counters.sweep_at = oracle.windows.sweep_at = sweep_at
                t = 0
                for gap, proto, n in earlier:
                    t += gap
                    v = view(proto=proto, src=f"10.0.0.{n}", sport=1024 + n)
                    eng.inspect(v, t)
                    oracle.observe(v, t)
                pairs.append((eng, oracle))
            (eng, oracle), (ref_eng, ref_oracle) = pairs
            rules = eng.span_rules(Proto.TCP_SYN)
            assert rules == _SPAN_RULES[:3]
            addresses = [ip_to_int(f"10.0.0.{n}") for n in span]
            ports = [1024 + n for n in span]
            times = [t + sum(gaps[:k + 1]) for k in range(len(span))]
            room = eng.room(times[0])
            n = eng.rate_counters.unseen(rules, addresses, ports, min(room, len(span)))
            n = oracle.windows.unseen(rules, addresses, ports, n)
            stopped_by_a_key = n < min(room, len(span)) and any(
                (r.id, addresses[n], ports[n]) in table
                for r in rules for table in (eng.rate_counters, oracle.windows))
            if n:
                eng.pass_span(rules, addresses, ports, times[:n])
                oracle.windows.fill(rules, addresses, ports, times[:n])
            syns = [PacketView(Proto.TCP_SYN, address, port, 1, 61500, b"")
                    for address, port in zip(addresses, ports)]
            for v, now in zip(syns, times[:n]):
                assert ref_eng.inspect(v, now) == idps._PASS
                assert not ref_oracle.observe(v, now)
            assert n == min(room, len(span)) or stopped_by_a_key
            if n < len(span):  # the SYN after them goes alone
                v, now = syns[n], times[n]
                verdict = eng.inspect(v, now)
                assert verdict == ref_eng.inspect(v, now)
                assert oracle.observe(v, now) == ref_oracle.observe(v, now)
                assert verdict.inspected or n == room
            assert _span_state(eng, oracle) == _span_state(ref_eng, ref_oracle)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(_gaps, st.sampled_from([Proto.TCP_SYN, Proto.UDP]),
                              st.integers(0, 9), st.booleans()), max_size=40),
           st.sampled_from([0, 4, math.inf]))
    # a scan at 2.5 s keeps the 3 s key of 0 s: the floor stays at 0, so
    # the sweep at 2.9 s must scan and drop the 1 s keys of 2.5 s
    @example([(0, Proto.TCP_SYN, 0, False), (2_500_000, Proto.TCP_SYN, 1, True),
              (400_000, Proto.UDP, 2, True), (1_000_000, Proto.UDP, 2, True)], math.inf)
    def test_a_sweep_leaves_what_a_full_scan_leaves(self, steps, sweep_at):
        """Each table, fed SYNs and UDP arrivals under rules of 1 s and 3 s
        windows and swept at drawn times besides its own sweeps, holds after
        each drawn sweep just the keys, in order, and the `sweep_at` that a
        scan of every key leaves, whether its floor let it skip the scan or
        not."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(idps, "_SWEEP_MIN", 0)
            eng = IdpsEngine(inspection_capacity=100)
            eng.start(_SPAN_RULES, EngineMode.IDS)
            oracle = TruthOracle(_SPAN_RULES)
            eng.rate_counters.sweep_at = oracle.windows.sweep_at = sweep_at
            window_us = {r.id: r.rate.window_us for r in _SPAN_RULES}
            t = 0
            for gap, proto, n, sweep in steps:
                t += gap
                v = view(proto=proto, src=f"10.0.0.{n}", sport=1024 + n)
                eng.inspect(v, t)
                oracle.observe(v, t)
                if sweep:
                    for table in (eng.rate_counters, oracle.windows):
                        want = _full_scan(table, window_us, t)
                        table._sweep(t)
                        assert (list(table.items()), table.sweep_at) == want

    def test_rules_a_new_source_does_not_pass_alone(self):
        """A rule without a rate clause, or one `StaticMatches` must test,
        makes `span_rules` answer None for its protocol."""
        for text in ['alert tcp any any -> any any msg "m"',
                     'alert tcp any any -> any 61500 rate 3/1 msg "m"']:
            eng = IdpsEngine()
            eng.start(parse_rules(text), EngineMode.IDS)
            assert eng.span_rules(Proto.TCP_SYN) is None
            assert eng.span_rules(Proto.ICMP_ECHO) == []


# Traced bytes per source of the test below, engine and oracle together:
# about 306 on CPython 3.11 (x86-64), where one deque window per source
# held about 1.9 kB.
BYTES_PER_SOURCE = 400


class TestRateTableMemory:
    def test_bytes_per_claimed_source(self):
        """4000 SYNs, each from a new claimed source, inside one rate
        window: a source seen once holds a key and a bare timestamp in each
        table, not a window of threshold+1 slots."""
        sources = 4_000
        rules = parse_rules('alert tcp any any -> any any rate 500/1 msg "syn"')
        eng = IdpsEngine(inspection_capacity=sources)
        eng.start(rules, EngineMode.IDS)
        oracle = TruthOracle(rules)
        dst = ip_to_int("192.168.1.2")
        tracemalloc.start()
        try:
            for i in range(sources):
                v = PacketView(Proto.TCP_SYN, ip_to_int("10.0.0.0") + i, 1024 + i % 7,
                               dst, 61500, b"")
                t = i * 200
                eng.inspect(v, t)
                oracle.observe(v, t)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(eng.rate_counters) == len(oracle.windows) == sources
        assert held / sources < BYTES_PER_SOURCE


def _views_held(static):
    """The packet views a `StaticMatches` keeps a reference to."""
    return [o for o in gc.get_referents(static) if isinstance(o, PacketView)]


class TestStaticMatches:
    """Static matches are reused per view object: shared views (floods)
    interleaved with views seen once (rotating sources) give, packet by
    packet, what `match_packet` on every rule of the protocol gives."""

    @settings(max_examples=300, deadline=None)
    @example(['alert udp any any -> any 61499 rate 1/1 msg "m"',
              'alert udp 10.0.0.1 any -> any any msg "m"'],
             [(Proto.UDP, "10.0.0.1", 40000, 61499), (Proto.UDP, "10.0.0.2", 40000, 61499)],
             [(0, 0), (0, 1), (0, 0), (None, 5), (0, 1), (0, 0), (None, 6), (0, 0)])
    @given(st.lists(_rule_lines, min_size=1, max_size=5),
           st.lists(st.tuples(st.sampled_from(_PROTOS), st.sampled_from(_ADDRS),
                              st.sampled_from(_PORTS), st.sampled_from(_PORTS)),
                    min_size=1, max_size=3),
           # (gap, index of a shared view) or (None, claimed source of a new view)
           st.lists(st.one_of(st.tuples(st.integers(0, 400_000), st.integers(0, 2)),
                              st.tuples(st.none(), st.integers(0, 255))), max_size=60))
    def test_interleaved_views_agree_with_match_packet(self, lines, shared, steps):
        try:
            rules = parse_rules("\n".join(lines))
        except RuleSyntaxError:          # a block rule with no matchers
            assume(False)
        shared = [view(proto=p, src=src, sport=sport, dport=dport)
                  for p, src, sport, dport in shared]
        eng = IdpsEngine(inspection_capacity=len(steps) + 1)
        eng.start(rules, EngineMode.IPS)
        oracle = TruthOracle(rules)
        ref_eng, ref_oracle = RateCounters(), RateCounters()
        ref_alerts, ref_matches = [], 0
        t = 0
        for gap, pick in steps:
            if gap is None:              # a new object, from a new claimed source
                t += 1
                base = shared[pick % len(shared)]
                v = base._replace(src_address=ip_to_int("10.1.0.0") + pick)
            else:
                t += gap
                v = shared[pick % len(shared)]
            ref_rule = next((r for r in rules if v.proto in r.protos
                             and match_packet(r, v, ref_eng, t)), None)
            ref_hit = any(v.proto in r.protos and match_packet(r, v, ref_oracle, t)
                          for r in rules)
            verdict = eng.inspect(v, t)
            if ref_rule is None:
                assert (verdict.blocked, verdict.rule_id) == (False, None)
            else:
                ref_alerts.append(_alert_row(v, t, ref_rule.id, ref_rule.msg))
                assert (verdict.blocked, verdict.rule_id) == (
                    ref_rule.action is Action.BLOCK, ref_rule.id)
            assert oracle.observe(v, t) == ref_hit
            ref_matches += ref_hit
            assert [dataclasses.astuple(a) for a in eng.alerts] == ref_alerts
            assert set(eng.rate_counters) == set(ref_eng)
            assert set(oracle.windows) == set(ref_oracle)
            assert oracle.true_matches == ref_matches
            assert len(_views_held(eng._static)) <= 2
            assert len(_views_held(oracle._static)) <= 2

    def test_rotating_views_keep_nothing(self):
        """4000 SYNs, each from a new claimed source and seen once: against
        combined.rules (`tcp` tests only rate) nothing is allocated or kept;
        against rules that test the header only the two latest are kept."""
        with open(rules_path("combined")) as f:
            combined = parse_rules(f.read())
        header = parse_rules(
            'alert tcp 10.0.0.0/8 any -> any 61500 rate 500/1 msg "syn"\n'
            'block tcp any any -> 192.168.1.2 any srcallow 10.0.0.0/9 msg "not ours"')
        views = [PacketView(Proto.TCP_SYN, ip_to_int("10.0.0.0") + i * 4099, 1024 + i % 7,
                            ip_to_int("192.168.1.2"), 61500, b"") for i in range(4_000)]
        for rules, kept in ((combined, []), (header, [views[-1], views[-2]])):
            static = StaticMatches(rules)
            static.matching(views[0])
            tracemalloc.start()
            try:
                before, _ = tracemalloc.get_traced_memory()
                for v in views:
                    static.matching(v)
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert held - before < 1_000   # at most the two latest match lists
            assert _views_held(static) == kept

    def test_a_restart_forgets_the_views_and_their_alerts(self):
        """One view object inspected before and after `start` with other
        rules gets each ruleset's verdict and alert fields."""
        v = view()
        eng = IdpsEngine()
        for text, mode, blocked, rule_id, msg in [
                ('alert udp any any -> any 61499 msg "first"', EngineMode.IPS, False, "r1", "first"),
                ('alert udp any any -> any 1 msg "x"\n'
                 'block udp 10.0.0.66 any -> any any msg "second"', EngineMode.IPS, True, "r2", "second"),
                ('block udp 10.0.0.66 any -> any any msg "ids"', EngineMode.IDS, False, "r1", "ids")]:
            eng.start(parse_rules(text), mode)
            for t in (1, 2):
                verdict = eng.inspect(v, t)
                assert (verdict.blocked, verdict.rule_id) == (blocked, rule_id)
            assert [dataclasses.astuple(a) for a in eng.alerts] == [
                _alert_row(v, t, rule_id, msg) for t in (1, 2)]

    def test_static_free_protocol_is_not_tested(self, monkeypatch):
        """`tcp` and `icmp` in combined.rules test only protocol and rate."""
        with open(rules_path("combined")) as f:
            rules = parse_rules(f.read())
        calls = []
        monkeypatch.setattr(idps.Rule, "static_match",
                            lambda rule, v: calls.append(rule.id) or True)
        static = StaticMatches(rules)
        for p in (Proto.TCP_SYN, Proto.ICMP_ECHO):
            assert static.matching(view(proto=p)) == [(r, None, None)
                                                      for r in rules if p in r.protos]
        assert calls == []
        static.matching(view())
        assert calls == ["r1", "r2"]


def sifb_net():
    sched = Scheduler()
    net = FBNetwork(sched, Trace())
    engine = IdpsEngine()
    rules = parse_rules('alert udp any any -> any any msg "x"')
    sifb = make_idps_sifb("SIFB", engine, rules, EngineMode.IPS)
    net.add(sifb)
    return net, sched, engine, sifb


class TestLifecycle:
    def test_init_starts_engine(self):
        net, sched, engine, sifb = sifb_net()
        net.dispatch("SIFB", "INIT")
        assert sifb.state == STATUS_RUNNING
        assert engine.running and engine.mode is EngineMode.IPS
        assert net.data_out("SIFB", "STATUS").raw == STATUS_RUNNING
        emitted = [e for e in net.trace.entries if e[0] == "emit" and e[3] == "INITO"]
        assert len(emitted) == 1

    def test_double_init_ignored(self):
        net, sched, engine, sifb = sifb_net()
        net.dispatch("SIFB", "INIT")
        net.dispatch("SIFB", "INIT")
        assert sifb.state == STATUS_RUNNING
        assert net.data_out("SIFB", "QO").raw is False


class TestAlertCheck:
    def poll_at(self, net, times, seq_by_time):
        """Dispatch POLL at the given times, setting SEQ beforehand."""
        flags = []
        for t in times:
            net.scheduler.now = t
            net.set_data_in("AC", "SEQ", Int(seq_by_time(t)))
            net.dispatch("AC", "POLL")
            flags.append(net.data_out("AC", "QO").raw)
        return flags

    def test_hold_window_timeline(self):
        """Alert observed at t=1.0s: flag true until the poll at t=3.0s."""
        sched = Scheduler()
        net = FBNetwork(sched)
        net.add(make_alertcheck("AC", hold_window_us=2 * US))
        times = [t * US // 10 for t in range(0, 42)]  # polls every 100 ms
        flags = self.poll_at(net, times, lambda t: 1 if t >= US else 0)
        by_time = dict(zip(times, flags))
        assert by_time[9 * US // 10] is False
        assert by_time[US] is True                # increase seen this poll
        assert by_time[29 * US // 10] is True     # still inside the hold
        assert by_time[3 * US] is False           # hold expired exactly here

    def test_never_alerted_stays_false(self):
        sched = Scheduler()
        net = FBNetwork(sched)
        net.add(make_alertcheck("AC"))
        flags = self.poll_at(net, [i * 100_000 for i in range(20)], lambda t: 0)
        assert not any(flags)


def idps_net(hold_window_us=2 * US):
    """The two IDPS blocks on a fresh network, INIT already dispatched."""
    sched = Scheduler()
    net = FBNetwork(sched)
    engine = IdpsEngine()
    poll = add_idps(net, engine, parse_rules('alert udp any any -> any any msg "x"'),
                    EngineMode.IDS, hold_window_us)
    net.dispatch("IDPS.SIFB", "INIT")
    return net, sched, engine, poll


class TestAddIdps:
    def test_poll_raises_flag_after_an_alert(self):
        net, sched, engine, poll = idps_net()
        assert engine.running
        engine.inspect(view(), 0)
        sched.now = 100_000
        assert poll() is True
        assert net.data_out("IDPS.SIFB", "ALERT_SEQ") == Int(len(engine.alerts)) == Int(1)
        assert net.data_out(*idps.FLAG.rsplit(".", 1)).raw is True

    def test_alert_count_is_sampled_at_poll_time(self):
        """Alerts between polls leave the latch alone; the next poll samples
        the count and raises A, which a poll with no new alert keeps for
        the hold window."""
        net, sched, engine, poll = idps_net(hold_window_us=US)
        for t in range(3):
            engine.inspect(view(), t)
        assert net.data_out("IDPS.SIFB", "ALERT_SEQ") == Int(0)
        sched.now = 100_000
        assert poll() is True
        assert net.data_out("IDPS.SIFB", "ALERT_SEQ") == Int(3)
        sched.now += US - 1
        assert poll() is True
        sched.now += 1
        assert poll() is False
