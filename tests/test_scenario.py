"""End-to-end scenario behavior: liveness, injection, gating, availability."""

import dataclasses
import enum
import os
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsecsim import idps
from fbsecsim.config import AttackConfig, parse_scenario_file
from fbsecsim.attacks import AttackKind
from fbsecsim.data import list_scenarios, rules_path, scenario_path
from fbsecsim.errors import ConfigError
from fbsecsim.fbnet import LANE_NET, FBNetwork, Scheduler
from fbsecsim.metrics import EXIT_CLEAN, EXIT_COLLAPSE, EXIT_HAZARD
from fbsecsim.plant import Plant
from fbsecsim.scenario import run_scenario, run_sweep, write_outputs
from fbsecsim.transport import (
    DeviceModel,
    DeviceState,
    Endpoint,
    GroupAddress,
    Packet,
    Transport,
)


FLAG = tuple(idps.FLAG.rsplit(".", 1))  # the IDPS blocks' attack flag A
BENCH_SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "scenarios")


def load(name):
    return parse_scenario_file(scenario_path(name))


def with_idps(cfg, mode, ruleset, policy):
    idps = dataclasses.replace(cfg.idps, enabled=True, mode=mode,
                               ruleset=rules_path(ruleset))
    return dataclasses.replace(cfg, idps=idps, safemode=policy)


class TestBaseline:
    def test_liveness_every_arrival_completes(self):
        res = run_scenario(load("baseline"))
        p = res.report.plant
        assert p.boxes_arrived == 11 and p.boxes_skipped == 0
        assert len(p.cycles) == 11
        assert not p.hazard
        assert p.availability == 1.0
        assert res.report.exit_code == EXIT_CLEAN

    def test_cycle_timing_hand_checkable(self):
        """Box at 5 s, 0.1 s stroke: home again with the box off at 5.3 s."""
        res = run_scenario(load("baseline"))
        assert res.report.plant.cycles[0] == 5_300_000

    def test_idps_disabled_leaves_no_engine_blocks(self):
        res = run_scenario(load("baseline"))
        assert not any(i.startswith("IDPS") for i in res.networks["plc2"].instances)
        assert res.engine is None

    def test_log_only_has_direct_connection_no_gate(self):
        res = run_scenario(load("spoof_logonly"))
        net2 = res.networks["plc2"]
        assert "GATE_SV" not in net2.instances
        assert ("SUB", "IND") in net2.event_conns
        assert net2.event_conns[("SUB", "IND")] == [("LiftCtl", "REQ")]
        assert ("QX_Cyl2", "GATE") not in net2.data_src

    def test_gate_policy_builds_switches(self):
        res = run_scenario(load("spoof_blocked"))
        net2 = res.networks["plc2"]
        assert "GATE_SV" in net2.instances and "GATE_BOX" in net2.instances
        assert net2.event_conns[("SUB", "IND")] == [("GATE_SV", "EI")]
        # every event into LiftCtl leaves an E_SWITCH's EO0, guarded by A
        into_liftctl = [src for src, dsts in net2.event_conns.items()
                        for d_inst, _ in dsts if d_inst == "LiftCtl"]
        assert len(into_liftctl) == 2
        for inst, port in into_liftctl:
            assert port == "EO0"
            assert [p.name for p in net2.instances[inst].ports] == ["EI", "G", "EO0", "EO1"]
            assert net2.data_src[(inst, "G")] == FLAG
        assert net2.data_src[("QX_Cyl2", "GATE")] == FLAG


class TestParsedRules:
    """A run parses its ruleset once, in validate, and hands the rules on."""

    def patch_parses(self, monkeypatch):
        calls = []
        real = idps.parse_rules

        def counting(text):
            calls.append(text)
            return real(text)

        for name, mod in list(sys.modules.items()):
            if name.startswith("fbsecsim") and hasattr(mod, "parse_rules"):
                monkeypatch.setattr(mod, "parse_rules", counting)
        return calls

    def count_parses(self, monkeypatch, cfg):
        calls = self.patch_parses(monkeypatch)
        res = run_scenario(cfg, record_trace=False)
        return len(calls), res

    def test_sweep_parses_once_per_rate(self, monkeypatch):
        cfg = load("sweep")
        calls = self.patch_parses(monkeypatch)
        rows, results = run_sweep(cfg, "flood", [100, 200, 300])
        assert len(calls) == 3 and len(rows) == 3
        for res in results:
            assert res.engine.rules is res.recorder.oracle.rules

    def test_sweep_refuses_a_bad_rate_before_the_first_run(self, monkeypatch):
        cfg = load("sweep")
        runs = []
        monkeypatch.setattr("fbsecsim.scenario._run", lambda *a: runs.append(a))
        with pytest.raises(ConfigError) as exc:
            run_sweep(cfg, "flood", [100, 200, cfg.event_budget])
        assert exc.value.path == "attacks[0].rate" and runs == []

    def test_engine_on_parses_once(self, monkeypatch):
        n, res = self.count_parses(monkeypatch, load("spoof_blocked"))
        assert n == 1
        assert res.engine.rules is res.recorder.oracle.rules

    def test_engine_off_parses_nothing(self, monkeypatch):
        assert self.count_parses(monkeypatch, load("baseline"))[0] == 0
        cfg = with_idps(load("baseline"), "off", "combined", "log_only")
        n, res = self.count_parses(monkeypatch, cfg)
        assert n == 0 and res.engine is not None and not res.engine.running

    def test_bad_ruleset_refused_before_any_block(self, tmp_path, monkeypatch):
        """No fail-open engine: a ruleset that does not parse stops the run."""
        bad = tmp_path / "bad.rules"
        bad.write_text("block any\n")
        cfg = load("spoof_blocked")
        cfg = dataclasses.replace(cfg, idps=dataclasses.replace(cfg.idps, ruleset=str(bad)))
        built = []
        monkeypatch.setattr("fbsecsim.scenario.add_idps", lambda *a, **k: built.append(a))
        with pytest.raises(ConfigError) as exc:
            run_scenario(cfg, record_trace=False)
        assert exc.value.path == "idps.ruleset" and not built


class TestRateTables:
    def test_bounded_after_a_syn_flood_longer_than_the_window(self):
        """3 s of SYNs at 1000/s, each from a new claimed source, against the
        1 s `tcp` rate rule: about 2 x rate x window keys stay, not 3000."""
        cfg = with_idps(load("syn_flood"), "ids", "combined", "log_only")
        res = run_scenario(cfg, record_trace=False)
        assert res.engine.inspected >= 3 * 1000
        assert len(res.engine.rate_counters) <= 2 * 1000 + 2
        assert len(res.recorder.oracle.windows) <= 2 * 1000 + 2


class TestInjection:
    def test_unprotected_spoof_latches_hazard(self):
        res = run_scenario(load("spoof_unprotected"))
        p = res.report.plant
        assert p.hazard and p.hazard_time == 5_105_000
        assert res.report.exit_code == EXIT_HAZARD
        assert p.availability < 1.0

    def test_prevention_blocks_same_schedule(self):
        res = run_scenario(load("spoof_blocked"))
        assert not res.report.plant.hazard
        assert res.report.exit_code == EXIT_CLEAN
        e = res.report.engine
        assert e.blocked >= 1 and e.recall == 1.0 and e.precision == 1.0

    def test_engine_stats_classify_by_true_origin(self):
        """A spoof wearing plc1's header is still counted as attack traffic:
        the recorder classifies an arrival by its origin, not its header."""
        cfg = load("spoof_blocked")
        cfg = dataclasses.replace(cfg, attacks=[
            dataclasses.replace(cfg.attacks[0], claimed_src="plc1")])
        e = run_scenario(cfg, record_trace=False).report.engine
        assert (e.presented, e.attack_presented) == (2, 1)

    def test_log_only_logs_while_getting_hit(self):
        res = run_scenario(load("spoof_logonly"))
        assert res.report.plant.hazard
        assert res.report.engine.alerts >= 1
        assert res.report.engine.blocked == 0

    def test_subscriber_counts_malformed_spoof(self):
        cfg = load("spoof_unprotected")
        atk = dataclasses.replace(cfg.attacks[0], payload=b"\xff")
        cfg = dataclasses.replace(cfg, attacks=[atk])
        res = run_scenario(cfg)
        assert res.report.subscriber["malformed"] == 1
        assert not res.report.plant.hazard  # garbage cannot actuate


class TestGating:
    def test_no_liftctl_dispatch_while_flag_high(self):
        cfg = with_idps(load("spoof_unprotected"), "ips", "combined", "gate_and_hold")
        res = run_scenario(cfg)
        intervals = res.recorder.flag_true_intervals(res.report.duration)
        assert intervals, "the spoof should raise the flag"
        for t in res.recorder.liftctl_dispatches:
            assert not any(a <= t < b for a, b in intervals)
        assert not res.report.plant.hazard

    def test_gate_soundness_random_spoof_times(self):
        """No spoof schedule can push an actuation through a closed gate."""
        base = load("spoof_unprotected")
        for k, times in enumerate([(5.0401,), (5.1045, 5.1405), (5.2045,), (6.5,)]):
            atk = dataclasses.replace(base.attacks[0], at_s=times)
            cfg = with_idps(dataclasses.replace(base, attacks=[atk], seed=100 + k),
                            "ips", "combined", "gate_and_hold")
            res = run_scenario(cfg)
            assert not res.report.plant.hazard, f"hazard with spoofs at {times}"

    def test_shutdown_policy_suspends_application(self):
        cfg = with_idps(load("spoof_unprotected"), "ids", "combined", "shutdown")
        res = run_scenario(cfg)
        net2 = res.networks["plc2"]
        assert "SUB" in net2.suspended and "LiftCtl" in net2.suspended
        assert res.report.suppressed_dispatches > 0

    def test_shutdown_pins_flag_dispatches_and_suspension(self):
        """The first poll that reads A true suspends the application at once:
        the spoof lands at 5.105 s, LiftCtl last runs at 5.11 s, and nothing
        of it runs after the flag rises at the 5.2 s poll."""
        cfg = with_idps(load("spoof_unprotected"), "ids", "combined", "shutdown")
        res = run_scenario(cfg, record_trace=False)
        assert res.recorder.flag_timeline == [(0, False), (5_200_000, True), (7_200_000, False)]
        assert res.recorder.liftctl_dispatches == [5_000_000, 5_105_000, 5_110_000]
        assert res.report.suppressed_dispatches == 1
        assert res.networks["plc2"].suspended == {"IX_Box", "LiftCtl", "QX_Cyl2", "SUB"}


class TestAvailability:
    def test_collapse_mid_run_halves_availability(self):
        """Subscriber PLC dies at t=30 of 60: availability lands near 0.5."""
        cfg = load("baseline")
        atk = AttackConfig(name="kill", kind=AttackKind.ICMP_FLOOD,
                           target="plc2:0", rate=1_000_000,
                           start_s=29.0, stop_s=32.0)
        cfg = dataclasses.replace(cfg, attacks=[atk])
        res = run_scenario(cfg, record_trace=False)
        assert res.report.exit_code == EXIT_COLLAPSE
        cycle_duration = 0.3
        assert abs(res.report.plant.availability - 0.5) <= cycle_duration / 60 + 0.01

    def test_hazard_time_counts_as_unavailable(self):
        res = run_scenario(load("spoof_unprotected"))
        p = res.report.plant
        expected = 1.0 - (res.report.duration - p.hazard_time) / res.report.duration
        assert p.availability == pytest.approx(expected)

    def test_stall_opens_at_send_time_of_lost_packet(self):
        res = run_scenario(load("udp_flood").with_seed(43), record_trace=False)
        p = res.report.plant
        if p.stalls:  # this seed drops the shared value
            start, end = p.stalls[0]
            assert start == 5_200_000 and end == res.report.duration
            assert p.availability == pytest.approx(1 - (end - start) / res.report.duration)


class TestEngineTransparency:
    def test_ids_mode_changes_no_traffic(self):
        """Detection-only inspection must not alter what reaches the blocks."""
        base = load("udp_flood")
        off = run_scenario(base, record_trace=False)
        ids = run_scenario(with_idps(base, "ids", "combined", "log_only"),
                           record_trace=False)
        assert ids.report.subscriber == off.report.subscriber
        assert ids.recorder.legit_deliveries == off.recorder.legit_deliveries
        assert ids.report.engine.alerts > 0  # alerts differ, traffic doesn't

    def test_ips_leaks_only_uninspected(self, tmp_path):
        """With the engine saturated, delivered block-matches are all
        uninspected fail-open passes, never inspected ones."""
        ruleset = tmp_path / "block_flood.rules"
        ruleset.write_text('block udp any any -> any 61499 rate 10/1 msg "flood"\n')
        base = load("udp_flood")
        idps = dataclasses.replace(base.idps, enabled=True, mode="ips",
                                   ruleset=str(ruleset), inspection_capacity=50)
        res = run_scenario(dataclasses.replace(base, idps=idps, safemode="log_only"),
                           record_trace=False)
        e = res.report.engine
        assert e.blocked > 0                 # the block rule really fires
        assert e.dropped_by_engine > 0       # saturation actually happened
        assert e.inspected_block_leak == 0   # fail-open is the only leak path


class TestDeadPlcHaltsApplication:
    def test_no_dispatches_on_dead_device(self):
        cfg = load("icmp_collapse")
        res = run_scenario(cfg, record_trace=False)
        collapse = [t for t, s in res.report.transitions["plc2"] if s == "UNRESPONSIVE"][0]
        late = [t for t in res.recorder.liftctl_dispatches if t > collapse]
        assert late == []
        # the dispatch path itself refuses work on the dead device
        net2 = res.networks["plc2"]
        before = net2.suppressed
        assert net2.dispatch("SUB", "RCV") == []
        assert net2.suppressed == before + 1


def enum_class_reads(cfg):
    """Run `cfg` untraced, counting every attribute read on an Enum class
    (`Proto.UDP`, `DeviceState.UNRESPONSIVE`, ...); returns (reads, report)."""
    meta = enum.EnumMeta
    assert "__getattribute__" not in vars(meta)
    reads = 0

    def counting(cls, name):
        nonlocal reads
        reads += 1
        return type.__getattribute__(cls, name)

    meta.__getattribute__ = counting
    try:
        report = run_scenario(cfg, record_trace=False).report
    finally:
        del meta.__getattribute__
    return reads, report


class TestHotPathReadsNoEnumClass:
    """On Python 3.10 and 3.11 an Enum class attribute read takes EnumMeta's
    slow path, about ten times a module global, so per-packet and per-tick
    code reads members through module-level names.  Doubling a flood's rate
    must leave a run's count of such reads where it was."""

    @pytest.mark.parametrize("name, mode", [("udp_flood", None), ("udp_flood", "ids"),
                                            ("udp_flood", "ips"), ("syn_flood", None)])
    def test_reads_do_not_grow_with_offered_packets(self, name, mode):
        cfg = load(name)
        if mode is not None:
            cfg = with_idps(cfg, mode, "combined.rules", "log_only")
        flood = cfg.attacks[0]
        runs = [enum_class_reads(cfg.with_attack_rate(flood.name, flood.rate * k))
                for k in (1, 2)]
        offered = [sum(d["offered"] for d in report.devices.values()) for _, report in runs]
        assert offered[1] - offered[0] >= flood.rate  # the flood lasts at least 1 s
        if mode is not None:
            assert runs[0][1].engine.inspected > 0 and runs[0][1].engine.true_matches > 0
        (reads, _), (reads_2x, _) = runs
        assert reads_2x <= reads + 8, (reads, reads_2x)  # slack for state transitions


def dispatch_count_and_files(cfg, record_trace, out_dir):
    """Run `cfg`, write its outputs into `out_dir`; return how many
    `FBNetwork.dispatch` calls it made and the bytes of its three CSVs."""
    calls = 0
    dispatch = FBNetwork.dispatch

    def counted(net, inst_id, event):
        nonlocal calls
        calls += 1
        return dispatch(net, inst_id, event)

    with mock.patch.object(FBNetwork, "dispatch", counted):
        write_outputs(run_scenario(cfg, record_trace=record_trace), str(out_dir))
    return calls, {name: (out_dir / name).read_bytes()
                   for name in ("metrics.csv", "alerts.csv", "transitions.csv")}


class TestTracedMatchesUntraced:
    """A traced run takes every ingested flood packet through routing and a
    `SUB.RCV` dispatch; an untraced one counts junk arrivals the engine does
    not see without building their packets.  Both must write the same files."""

    @pytest.mark.parametrize("name, seed, rate", [
        ("udp_flood", 42, None), ("udp_flood", 1042, None), ("udp_flood", 2042, None),
        ("sweep", 42, 10_000)])
    def test_same_outputs(self, name, seed, rate, tmp_path):
        cfg = load(name).with_seed(seed)
        if rate is not None:
            cfg = dataclasses.replace(cfg.with_attack_rate("flood", rate),
                                      idps=dataclasses.replace(cfg.idps, enabled=False))
        traced, want = dispatch_count_and_files(cfg, True, tmp_path / "traced")
        untraced, got = dispatch_count_and_files(cfg, False, tmp_path / "untraced")
        assert got == want
        assert untraced < traced / 2  # the untraced run did count arrivals

    @pytest.mark.parametrize("variant, state", [
        ("collapse", DeviceState.UNRESPONSIVE), ("recovery", DeviceState.RESPONSIVE)])
    def test_same_outputs_when_a_segment_changes_plc2_state(self, variant, state, tmp_path):
        """Engine off: plc2 collapses (its critical rate lowered), or recovers
        (a short burst over capacity, then a longer flood under it), on an
        arrival the untraced run ingests inside a count-only segment."""
        cfg = load("udp_flood")
        flood = cfg.attack("flood")
        if variant == "collapse":
            plc2 = dataclasses.replace(cfg.devices["plc2"], critical_rate=5_000)
            cfg = dataclasses.replace(cfg, devices={**cfg.devices, "plc2": plc2})
        else:
            burst_end = flood.start_s + 0.2
            cfg = dataclasses.replace(cfg, attacks=[
                dataclasses.replace(flood, rate=20_000, stop_s=burst_end),
                dataclasses.replace(flood, name="trickle", rate=1_000, start_s=burst_end,
                                    stop_s=7.0)])
        in_segment = []
        span = DeviceModel.ingest_span

        def segment(dev, *args):
            n = len(dev.transitions)
            taken_ingested = span(dev, *args)
            in_segment.extend(s for _, s in dev.transitions[n:])
            return taken_ingested

        traced, want = dispatch_count_and_files(cfg, True, tmp_path / "traced")
        with mock.patch.object(DeviceModel, "ingest_span", segment):
            untraced, got = dispatch_count_and_files(cfg, False, tmp_path / "untraced")
        assert got == want
        assert state in in_segment, in_segment
        assert untraced < traced / 2


def run_files(cfg, record_trace, settle=True):
    """Run `cfg`; return the bytes of every file it writes, how many times
    the plant stepped and how many ticks ran.  `settle=False` is the
    reference run: `settled` is false after every step, so every tick steps
    the plant and scans its sensors."""
    steps = 0
    step = Plant.step

    def counted(plant, now):
        nonlocal steps
        steps += 1
        step(plant, now)
        plant.settled = plant.settled and settle

    with mock.patch.object(Plant, "step", counted), tempfile.TemporaryDirectory() as out:
        result = run_scenario(cfg, record_trace=record_trace)
        assert_oracle_agrees(result)
        write_outputs(result, out)
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as f:
                files[name] = f.read()
    return files, steps, len(result.plant.samples) - 1  # the sample at 0 is no tick


def assert_oracle_agrees(result):
    """An engine that never failed open saw the oracle's arrivals in the
    same order, on the same rules and the same table type: it alerted on
    exactly the arrivals the oracle matched."""
    engine = result.engine
    if engine is not None and engine.dropped_by_engine == 0:
        assert len(engine.alerts) == result.recorder.oracle.true_matches


def assert_same_files(got, want):
    # names, not bytes: a diff of two traces takes pytest minutes
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


def idle_ticks_change_nothing(cfg, record_trace):
    """Assert a run writes what its reference run writes; return how many
    ticks it did not step."""
    got, steps, ticks = run_files(cfg, record_trace)
    want, ref_steps, ref_ticks = run_files(cfg, record_trace, settle=False)
    assert_same_files(got, want)
    assert ref_steps == ref_ticks == ticks
    return ticks - steps


@st.composite
def idle_tick_cases(draw):
    """A short run of `spoof_blocked`'s plant and spoof with the plant's
    timing, the latency and the policy drawn; the engine may be off, the
    spoof's send instants fall on the tick grid or off it, and a junk flood
    into plc2 may run."""
    tick_ms = draw(st.sampled_from([1, 3, 10, 20]))
    cfg = load("spoof_blocked")
    policy = draw(st.sampled_from([None, "gate_and_hold", "log_only", "shutdown"]))
    if policy is None:
        cfg = dataclasses.replace(cfg, idps=dataclasses.replace(cfg.idps, enabled=False))
    else:
        cfg = with_idps(cfg, "ips", "combined.rules", policy)
    at_us = draw(st.lists(st.one_of(st.integers(1, 199).map(lambda n: n * tick_ms * 1000),
                                    st.integers(1, 1_999_999)), min_size=1, max_size=3))
    attacks = [AttackConfig(name="spoof", kind=AttackKind.SPOOF_PUBLISH, target="group",
                            at_s=tuple(t / 1e6 for t in at_us), payload=b"\x41")]
    if draw(st.booleans()):
        start_ms = draw(st.integers(0, 1_500))
        attacks.append(AttackConfig(
            name="flood", kind=AttackKind.UDP_FLOOD, target="plc2:61499",
            rate=draw(st.sampled_from([2_000, 10_000, 20_000])), start_s=start_ms / 1e3,
            stop_s=(start_ms + draw(st.integers(1, 400))) / 1e3, payload=b"\x00"))
    plant = dataclasses.replace(
        cfg.plant, tick_ms=tick_ms,
        rate_per_tick=draw(st.sampled_from([0.05, 0.1, 0.25, 1.0])),
        box_period_s=draw(st.sampled_from([0.05, 0.2, 0.5, 1.0])),
        first_box_s=draw(st.integers(0, 1_500_000)) / 1e6)
    return dataclasses.replace(cfg, duration_s=2.0, plant=plant, attacks=attacks,
                               latency_us=draw(st.sampled_from([1, 500, 3_000])))


class TestIdleTicks:
    """A tick that finds the plant settled and no box due only samples it.
    The reference run steps and scans on every tick; both write the same
    bytes."""

    @pytest.mark.parametrize("record_trace", [True, False])
    @pytest.mark.parametrize("name", list_scenarios())
    def test_shipped_scenarios_match_the_reference(self, name, record_trace):
        assert idle_ticks_change_nothing(load(name), record_trace) > 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(idle_tick_cases(), st.booleans())
    def test_drawn_runs_match_the_reference(self, cfg, record_trace):
        idle_ticks_change_nothing(cfg, record_trace)


def packets_change_nothing(cfg, record_trace):
    """Assert a run writes what its reference run writes: there every
    ingested arrival reaches `arrive` with a `Packet`, one a pump that builds
    a packet per arrival would have built, and no segment answer is asked,
    so no flood is counted without its packets.  Returns how many packets
    the reference built for arrivals that had none."""
    arrive = Transport.arrive
    built = 0

    def with_packet(tr, device, origin, src_id, view, ep, now, packet=None):
        nonlocal built
        if packet is None:
            built += 1
            packet = Packet(view.proto, Endpoint(src_id, view.src_address, view.src_port), ep,
                            view.payload, now - tr.latency_us, origin, tr._seq)
        arrive(tr, device, origin, src_id, view, ep, now, packet)

    got = run_files(cfg, record_trace)[0]
    with mock.patch.object(Transport, "arrive", with_packet), \
            mock.patch.object(Transport, "segment", lambda *args: None):
        want = run_files(cfg, record_trace)[0]
    assert_same_files(got, want)
    return built


@st.composite
def engine_on_cases(draw):
    """A short run of `spoof_blocked`'s plant with boxes early, the engine in
    ids or ips mode on a drawn ruleset and policy, and drawn traffic: UDP,
    SYN and ICMP floods into plc2, spoofed publishes (possibly wearing
    plc1's header) and the TCP probe."""
    cfg = with_idps(load("spoof_blocked"), draw(st.sampled_from(["ids", "ips"])),
                    draw(st.sampled_from(["combined.rules", "flood.rules", "spoof.rules"])),
                    draw(st.sampled_from(["gate_and_hold", "log_only", "shutdown"])))
    cfg = dataclasses.replace(cfg, idps=dataclasses.replace(
        cfg.idps, inspection_capacity=draw(st.sampled_from([50, 5_000]))))
    attacks = []
    if draw(st.booleans()):
        attacks.append(AttackConfig(
            name="spoof", kind=AttackKind.SPOOF_PUBLISH, target="group",
            at_s=tuple(t / 1e6 for t in draw(st.lists(st.integers(1, 999_999),
                                                      min_size=1, max_size=3))),
            payload=draw(st.sampled_from([b"\x41", b"\x40"])),
            claimed_src=draw(st.sampled_from(["", "plc1"]))))
    for n, kind in enumerate(draw(st.lists(st.sampled_from(
            [AttackKind.UDP_FLOOD, AttackKind.SYN_FLOOD, AttackKind.ICMP_FLOOD]),
            min_size=1, max_size=2))):
        start_ms = draw(st.integers(0, 700))
        count = draw(st.sampled_from([1, 2]))
        attacks.append(AttackConfig(
            name=f"flood{n}", kind=kind,
            target="plc2:61500" if kind is AttackKind.SYN_FLOOD else "plc2:61499",
            rate=count * draw(st.sampled_from([1_000, 5_000, 20_000])),
            start_s=start_ms / 1e3, stop_s=(start_ms + draw(st.integers(1, 300))) / 1e3,
            payload=draw(st.sampled_from([b"\x00", b"\x41"])), attacker=f"attacker{n}",
            attacker_count=count))
    plc2 = dataclasses.replace(cfg.devices["plc2"],
                               capacity=draw(st.sampled_from([2_000, 10_000, 400_000])),
                               halfopen_capacity=draw(st.sampled_from([16, 1_024])))
    probe = dataclasses.replace(cfg.tcp_probe, enabled=draw(st.booleans()),
                                connect_at_s=(0.05, draw(st.integers(1, 999)) / 1e3))
    plant = dataclasses.replace(cfg.plant, first_box_s=0.05, box_period_s=0.3)
    return dataclasses.replace(cfg, duration_s=1.0, devices={**cfg.devices, "plc2": plc2},
                               plant=plant, tcp_probe=probe, attacks=attacks)


class TestPacketlessArrivals:
    """A unicast flood arrival reaches the engine, the recorder and its route
    as its origin, claimed source and view, with no `Packet`; the reference
    run builds one for every arrival and hands it to `arrive`.  Both write
    the same bytes."""

    @pytest.mark.parametrize("record_trace", [True, False])
    @pytest.mark.parametrize("name", list_scenarios())
    def test_shipped_scenarios_match_the_reference(self, name, record_trace):
        packets_change_nothing(load(name), record_trace)

    @pytest.mark.parametrize("record_trace", [True, False])
    @pytest.mark.parametrize("name", ["subscriber_flood", "syn_backlog", "seed_batch"])
    def test_bench_configs_match_the_reference(self, name, record_trace):
        cfg = parse_scenario_file(os.path.join(BENCH_SCENARIOS, f"{name}.scenario"))
        assert packets_change_nothing(cfg, record_trace) > 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(engine_on_cases(), st.booleans())
    def test_drawn_engine_on_runs_match_the_reference(self, cfg, record_trace):
        packets_change_nothing(cfg, record_trace)


def merged_floods_change_nothing(cfg):
    """Assert that `cfg` writes, untraced and traced, what its reference run
    writes traced (less `trace.txt` for the untraced run).  The reference
    runs nothing inline, so every flood arrival and same-instant fan-out
    pops from `run_until`, and counts no arrival, so every junk arrival is
    dispatched as `SUB.RCV` and every SYN is routed.  (A one-arrival
    segment still runs at a popped arrival, so the segment answers are
    switched off too.)"""
    untraced = run_files(cfg, False)[0]
    traced = run_files(cfg, True)[0]
    with mock.patch.object(Scheduler, "inline_bound", lambda sched: (-1, 0)), \
            mock.patch.object(Scheduler, "run_ready", lambda sched: None), \
            mock.patch.object(Transport, "segment", lambda *args: None):
        want = run_files(cfg, True)[0]
    assert_same_files(traced, want)
    del want["trace.txt"]
    assert_same_files(untraced, want)


@st.composite
def multi_flood_cases(draw):
    """A short run of `spoof_blocked`'s plant with boxes early and two or
    three floods: junk or valid UDP into plc2's subscriber, UDP into the
    group, SYN and ICMP, each from one to three attackers, often under an
    attacker name another flood uses too, and on instants that often tie;
    the engine off, or in ids or ips mode with a drawn policy."""
    cfg = load("spoof_blocked")
    mode = draw(st.sampled_from([None, "ids", "ips"]))
    if mode is None:
        cfg = dataclasses.replace(cfg, idps=dataclasses.replace(cfg.idps, enabled=False))
    else:
        cfg = with_idps(cfg, mode, draw(st.sampled_from(["combined.rules", "flood.rules"])),
                        draw(st.sampled_from(["gate_and_hold", "log_only", "shutdown"])))
    flood = st.sampled_from([
        (AttackKind.UDP_FLOOD, "plc2:61499", b"\x00"), (AttackKind.UDP_FLOOD, "plc2:61499", b"\x40"),
        (AttackKind.UDP_FLOOD, "plc2:61499", b"\x41"), (AttackKind.UDP_FLOOD, "group", b"\x00"),
        (AttackKind.SYN_FLOOD, "plc2:61500", b""), (AttackKind.ICMP_FLOOD, "plc2:61499", b"")])
    attacks = []
    for n in range(draw(st.integers(2, 3))):
        kind, target, payload = draw(flood)
        count = draw(st.integers(1, 3))
        start_ms = draw(st.sampled_from([100, 100, 120, 230]))
        attacks.append(AttackConfig(
            name=f"flood{n}", kind=kind, target=target, payload=payload,
            rate=count * draw(st.sampled_from([1_000, 5_000, 10_000])),
            start_s=start_ms / 1e3, stop_s=(start_ms + draw(st.sampled_from([20, 60, 150]))) / 1e3,
            attacker=draw(st.sampled_from(["attacker1", "attacker2"])), attacker_count=count))
    plc2 = dataclasses.replace(cfg.devices["plc2"],
                               capacity=draw(st.sampled_from([2_000, 10_000, 400_000])),
                               critical_rate=draw(st.sampled_from([12_000, 10**6])))
    plant = dataclasses.replace(cfg.plant, first_box_s=0.05, box_period_s=0.3)
    return dataclasses.replace(cfg, duration_s=0.5, devices={**cfg.devices, "plc2": plc2},
                               plant=plant, attacks=attacks)


class TestMergedFloods:
    """One pump runs every flood stream of a run, the fan-out of an arrival
    runs from a FIFO, and a junk arrival at an untraced subscriber is
    counted without a dispatch; none of this changes a byte."""

    @pytest.mark.parametrize("name", ["subscriber_flood", "syn_backlog", "seed_batch"])
    def test_bench_configs_match_the_reference(self, name):
        merged_floods_change_nothing(
            parse_scenario_file(os.path.join(BENCH_SCENARIOS, f"{name}.scenario")))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(multi_flood_cases())
    def test_drawn_multi_flood_runs_match_the_reference(self, cfg):
        merged_floods_change_nothing(cfg)


def run_with_tables(cfg, record_trace):
    """The bytes of every file `cfg` writes and its engine's and oracle's
    rate tables with their sweep thresholds, which no file holds; or the
    `ConfigError` it raises when its event budget runs out."""
    try:
        result = run_scenario(cfg, record_trace=record_trace)
    except ConfigError as e:
        return f"{e.path}: {e}"
    assert_oracle_agrees(result)
    with tempfile.TemporaryDirectory() as out:
        write_outputs(result, out)
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as f:
                files[name] = f.read()
    engine, oracle = result.engine, result.recorder.oracle
    tables = None if engine is None else (list(engine.rate_counters.items()),
                                          engine.rate_counters.sweep_at,
                                          list(oracle.windows.items()), oracle.windows.sweep_at)
    return files, tables


def scan_every_key(table, window_us, now):
    """A rate-table sweep without a floor: drop every key whose newest hit
    has left its rule's window; return how many keys are left."""
    for k in [k for k, w in table.items()
              if (w if type(w) is int else w[-1]) <= now - window_us[k[0]]]:
        del table[k]
    return len(table)


def _scan_counters(counters, now):
    counters.sweep_at = max(idps._SWEEP_MIN, 2 * scan_every_key(counters, counters.window_us, now))


_send = Transport.send


def send_with_heap_entries(tr, packet):
    """`Transport.send` as it was before tallied events: a unicast packet to
    a device id with no device takes a heap entry, and `deliver` counts it
    undeliverable when it pops."""
    dst = packet.dst
    if isinstance(dst, GroupAddress) or dst.device_id in tr.devices:
        return _send(tr, packet)
    sender = tr.devices.get(packet.true_origin)
    if sender is not None and sender.state is DeviceState.UNRESPONSIVE:
        sender.sender_down += 1
        return False
    if tr.recorder is not None:
        tr.recorder.on_send(packet)
    tr.scheduler.at(tr.scheduler.now + tr.latency_us, lambda: tr.deliver(packet, dst),
                    lane=LANE_NET, key=(packet.true_origin, packet.seq))
    return True


def fresh_syns_change_nothing(cfg, record_trace):
    """Assert `cfg` writes what its reference run writes, where every flood
    arrival takes the per-packet path (`Transport.segment` answers None),
    every SYN-ACK to a spoofed source takes a heap entry and every
    rate-table sweep scans every key, and ends with the same rate tables,
    in the same order, or raises the same error; return how many SYNs the
    run took in segments."""
    taken = 0
    segment = Transport.segment

    def counted(tr, device, ep, origin, base, per_rate, view, sources=None):
        span = segment(tr, device, ep, origin, base, per_rate, view, sources)

        def counted_span(lo, hi):
            nonlocal taken
            n = span(lo, hi)
            taken += n
            return n

        # only SYN streams have `sources`: junk UDP and ICMP segments are not counted
        return counted_span if span is not None and sources is not None else span

    with mock.patch.object(Transport, "segment", counted):
        got = run_with_tables(cfg, record_trace)
    with mock.patch.object(Transport, "segment", lambda *args: None), \
            mock.patch.object(Transport, "send", send_with_heap_entries), \
            mock.patch.object(idps.RateCounters, "_sweep", _scan_counters):
        want = run_with_tables(cfg, record_trace)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_files(got[0], want[0])
        assert got[1] == want[1]
    return taken


@st.composite
def syn_flood_cases(draw):
    """A short run of the shipped `syn_flood` with one or two SYN floods into
    plc2's TCP port from one to three attackers, often under one attacker
    name, so their claimed sources repeat; plc2's capacity and critical
    rate low enough to drop and collapse, even under capacity, its
    half-open table of any size and timeout, the
    engine off or on either flood ruleset at any inspection capacity, the
    TCP probe on or off, and an event budget that may run out."""
    cfg = load("syn_flood")
    mode = draw(st.sampled_from([None, "ids", "ips"]))
    if mode is not None:
        cfg = with_idps(cfg, mode, draw(st.sampled_from(["combined.rules"] * 2 + ["flood.rules"])),
                        draw(st.sampled_from(["gate_and_hold", "log_only", "shutdown"])))
        cfg = dataclasses.replace(cfg, idps=dataclasses.replace(
            cfg.idps, inspection_capacity=draw(st.sampled_from([50, 700, 5_000, 5_000]))))
    plc2 = dataclasses.replace(
        cfg.devices["plc2"], capacity=draw(st.sampled_from([500, 3_000])),
        critical_rate=draw(st.sampled_from([4_000, 4_000, 1_500])),
        halfopen_capacity=draw(st.sampled_from([1, 16, 1_024])),
        halfopen_timeout_s=draw(st.sampled_from([0.001, 0.05, 0.5])))
    attacks = []
    for n in range(draw(st.integers(1, 2))):
        count = draw(st.integers(1, 3))
        start_ms = draw(st.sampled_from([50, 50, 80, 120]))
        attacks.append(AttackConfig(
            name=f"syn{n}", kind=AttackKind.SYN_FLOOD, target="plc2:61500",
            rate=count * draw(st.sampled_from([1_000, 5_000, 20_000, 20_000])),
            start_s=start_ms / 1e3, stop_s=(start_ms + draw(st.sampled_from([20, 60, 150, 150]))) / 1e3,
            attacker=draw(st.sampled_from(["attacker1", "attacker2"])), attacker_count=count))
    probe = dataclasses.replace(cfg.tcp_probe, enabled=draw(st.booleans()),
                                connect_at_s=(0.06, draw(st.integers(61, 399)) / 1e3))
    budget = draw(st.sampled_from([cfg.event_budget] * 6 + [2_000, 4_000]))
    return dataclasses.replace(cfg, duration_s=0.4, devices={**cfg.devices, "plc2": plc2},
                               attacks=attacks, tcp_probe=probe, event_budget=budget)


def syn_backlog(**changes):
    """The `syn_backlog` bench config, with `changes` to its run and to its
    flood's `rate` and `stop_s`: at 0.22048 s, once its 1024 SYNs have
    filled the table, so only their SYN-ACKs remain."""
    cfg = parse_scenario_file(os.path.join(BENCH_SCENARIOS, "syn_backlog.scenario"))
    flood = {k: changes.pop(k) for k in ("rate", "stop_s") if k in changes}
    return dataclasses.replace(cfg, attacks=[dataclasses.replace(cfg.attacks[0], **flood)],
                               **changes)


class TestRefusedSyns:
    """The SYNs from new sources that a half-open table admits or, full,
    refuses run as segments, ingested, inspected, observed and admitted or
    refused a stretch at a time, and the SYN-ACKs of the admitted ones
    are tallied events; the reference run takes each SYN through
    `DeviceModel.ingest`, `IdpsEngine.inspect`, `TruthOracle.observe` and
    `HalfOpenTable.syn`, and each SYN-ACK through a heap entry.  Both
    write the same bytes and end with the same rate tables, or raise the
    same error."""

    @pytest.mark.parametrize("record_trace", [True, False])
    @pytest.mark.parametrize("cfg", [syn_backlog(), load("syn_flood")],
                             ids=["syn_backlog", "syn_flood"])
    def test_syn_configs_match_the_reference(self, cfg, record_trace):
        assert fresh_syns_change_nothing(cfg, record_trace) > 2_000

    @pytest.mark.parametrize("budget", [4_000, 4_700])
    def test_a_budget_that_runs_out_mid_flood_raises_as_the_reference(self, budget):
        assert fresh_syns_change_nothing(syn_backlog(event_budget=budget), False) > 0

    @pytest.mark.parametrize("budget", [1_100, 1_600, 2_040])
    def test_a_budget_that_runs_out_while_the_table_fills_raises_as_the_reference(self, budget):
        assert fresh_syns_change_nothing(
            syn_backlog(stop_s=0.22048, event_budget=budget), False) > 0

    @pytest.mark.parametrize("budget, t", [(2_058, 221_040), (2_070, 221_280), (2_079, 221_460)])
    def test_a_budget_that_runs_out_on_a_tail_syn_ack_raises_as_the_reference(self, budget, t):
        """The last SYN arrives at 220960 us; only SYN-ACKs fall due in the
        next 500 us, and the budget runs out on one of them."""
        cfg = syn_backlog(stop_s=0.22048, event_budget=budget)
        assert fresh_syns_change_nothing(cfg, False) > 0
        assert f"more than {budget} events by t={t}us" in run_with_tables(cfg, False)

    @pytest.mark.parametrize("record_trace", [True, False])
    def test_a_run_that_ends_before_the_last_syn_acks_fall_due(self, record_trace):
        """The run ends 9.6 ms into the table's filling, so the SYN-ACKs of
        the 25 SYNs that arrived in its last latency never fall due (one
        more admitted SYN is the probe's, whose SYN-ACK is delivered)."""
        cfg = syn_backlog(duration_s=0.2101)
        assert fresh_syns_change_nothing(cfg, record_trace) > 400
        result = run_scenario(cfg, record_trace=record_trace)
        assert (result.report.devices["plc2"]["syn_accepted"], result.report.undeliverable,
                len(result.networks["plc1"].scheduler.tallies)) == (482, 456, 25)

    def test_a_flood_that_outlasts_the_rule_window_sweeps_keys_out(self):
        """4600 SYNs at 4000/s from 0.2 s: the sweep at 4096 keys, about
        1.22 s in, scans and drops the keys of the SYNs more than the
        rule's 1 s window old, so the run ends with fewer keys than the
        flood had sources."""
        cfg = syn_backlog(rate=4_000, stop_s=1.35, duration_s=1.4)
        assert fresh_syns_change_nothing(cfg, False) > 4_000
        result = run_scenario(cfg)
        assert len(result.engine.rate_counters) < 4_600
        assert len(result.recorder.oracle.windows) < 4_600

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(syn_flood_cases(), st.booleans())
    def test_drawn_syn_floods_match_the_reference(self, cfg, record_trace):
        fresh_syns_change_nothing(cfg, record_trace)
