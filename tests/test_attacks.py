"""Attack generators: exact counts, phase splitting, crafting."""

import tracemalloc
from collections import Counter

import pytest

from fbsecsim.attacks import (
    AttackKind,
    AttackSpec,
    attacker_device,
    craft_spoofed_publish,
    flood_count,
    flood_times,
    schedule_flood,
)
from fbsecsim.config import AttackConfig, ScenarioConfig, validate
from fbsecsim.errors import ConfigError
from fbsecsim.fbnet import US, Scheduler
from fbsecsim.transport import (
    DeviceModel,
    DeviceState,
    Endpoint,
    GroupAddress,
    Proto,
    Transport,
    ip_to_int,
)


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
        assert len(flood_times(s, 0)) == rate * dur_s

    def test_fractional_duration_floors(self):
        s = spec(rate=2, stop=900_000)  # 0.9 s at 2/s
        assert flood_count(s) == 1

    def test_all_sends_inside_window(self):
        s = spec(rate=777, stop=2 * US)
        times = flood_times(s, 0)
        assert times[0] >= s.start and times[-1] < s.stop
        assert times == sorted(times)

    def test_ddos_equivalence_per_whole_second(self):
        """k attackers at rate/k with phase offsets offer the aggregate rate."""
        s = spec(rate=1000, stop=3 * US, count=4)
        merged = sorted(t for j in range(4) for t in flood_times(s, j))
        assert len(merged) == 3000
        per_second = Counter(t // US for t in merged)
        assert per_second == {0: 1000, 1: 1000, 2: 1000}

    def test_phase_offsets_distinct(self):
        s = spec(rate=100, stop=US, count=4)
        firsts = [flood_times(s, j)[0] for j in range(4)]
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
        tr.on_delivered = lambda pkt, now: sent.append((pkt.true_origin, pkt.send_time))
        schedule_flood(s, tr, sched, ip_to_int("10.0.0.66"))
        sched.run_until(2 * US)
        for j in range(3):
            assert [t for o, t in sent if o == f"attacker1.{j}"] == flood_times(s, j)


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
        tr.on_delivered = lambda pkt, now: origins.append(pkt.true_origin)
        s = spec(rate=100, stop=US, count=2)
        schedule_flood(s, tr, sched, ip_to_int("10.0.0.66"))
        sched.run_until(2 * US)
        assert set(origins) == {"attacker1.0", "attacker1.1"}
        assert len(origins) == 100
