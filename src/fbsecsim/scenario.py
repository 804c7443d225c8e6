"""Scenario assembly and execution.

Builds the two-PLC world from a ScenarioConfig: plant, devices, transport,
the controller network on each PLC, the optional inspection engine and the
two IDPS blocks `idps.add_idps` adds for it, the chosen safe-mode wiring,
attack schedules and the optional TCP probe pair.  Everything runs on one
scheduler; a run is deterministic given the config (seed included).  `run_scenario` and
`run_sweep` validate each config they run once, before it runs; the
ruleset `validate` parses is the one the engine and the oracle use.

PLC2's application is wired once, directly.  `GATES`, `GATED` and
`SHUTDOWN` annotate its critical parts, and the safe-mode policy compiles
the annotation:
  gate_and_hold  `fbnet.secure` routes every event connection into a
                 critical input through its E_SWITCH, guarded by the attack
                 flag A, and A freezes the `GATED` actuator input.  Requires
                 the engine; without it the connections stay direct.
  log_only       direct connections, engine only logs.
  shutdown       direct connections; the first poll that reads A true
                 suspends the `SHUTDOWN` blocks for the rest of the run.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass
from heapq import heappop

from .attacks import AttackKind, AttackSpec, attacker_device, schedule_flood, schedule_spoof
from .config import (PROBE_CLIENT_ID, AttackConfig, ScenarioConfig, parse_endpoint,
                     parse_target, validate)
from .control import make_ix, make_liftctl, make_qx, make_thrustctl
from .csifb import make_client, make_publisher, make_server, make_subscriber
from .errors import ConfigError, EventBudgetExceeded
from .fbnet import LANE_FB, NEVER, US, FBNetwork, Scheduler, Trace, secure
from .idps import FLAG, EngineMode, IdpsEngine, Rule, add_idps
from .metrics import Recorder, RunReport, build_report, sweep_row, write_report_files
from .plant import Plant
from .transport import DeviceModel, Endpoint, GroupAddress, Transport, ip_to_int
from .values import Bool, Str, TRUE

PUB_SRC_PORT = 40001
CLIENT_PORT = 53000
PLC_IDS = ["plc1", "plc2"]

# PLC2's critical parts: each critical event input and the gate it gets,
# the actuator input A freezes, and the blocks `shutdown` suspends.
GATES = {"LiftCtl.REQ": "GATE_SV", "LiftCtl.BOX": "GATE_BOX"}
GATED = ("QX_Cyl2.GATE",)
SHUTDOWN = ("SUB", "LiftCtl", "QX_Cyl2", "IX_Box")


@dataclass
class RunResult:
    report: RunReport
    trace: Trace | None  # None unless the run was recorded
    plant: Plant
    recorder: Recorder
    config: ScenarioConfig
    networks: dict[str, FBNetwork]
    engine: IdpsEngine | None


class PlantClock:
    """The plant's tick chain: a tick every `period` up to `duration`, run
    from one heap entry at a time, for `next`, the first tick not yet
    taken; the entry's callable is the clock itself.

    A tick steps the plant, lands each box due, samples the plant and scans
    its sensors (`sense`); a tick that finds the plant settled and no box
    due is idle: it only samples.  The clock takes a run of idle ticks in
    one step (`_take`), with no heap entry each:
      after a tick that leaves the plant settled, those before the next
        box and before anything else runs (`Scheduler.inline_bound`: the
        FIFO, the heap's next entry, the horizon and the budget, so the
        event that spends it still pops);
      for a flood segment that the clock's entry stops: its arrivals never
        touch the plant, so `reach` lets it run past the idle ticks before
        the next other entry, and `advance` then takes those due by its
        last arrival.
    Between a tick and the idle ticks taken after it nothing runs that
    pushes an entry but the pump, on its own lane, so every order at a
    shared instant is the one a heap entry per tick gives
    (`tests/test_scenario.py::TestIdleTicks`, `TestSegmentsPastIdleTicks`).
    """

    def __init__(self, scheduler: Scheduler, plant: Plant, period: int, duration: int,
                 sense: Callable[[], None], boxes: range):
        self.scheduler, self.plant, self.sense = scheduler, plant, sense
        self.period, self.duration, self.next = period, duration, period
        self.dues = (-(-box // period) * period for box in boxes)  # the tick each box is due at
        self.due = next(self.dues, NEVER)
        scheduler.at(period, self)

    def __call__(self) -> None:
        """Run the tick at `now`: step the plant, land each box due, sample
        it and scan its sensors, or only sample a settled plant with no box
        due.  Then take the idle ticks after it that fall before anything
        else runs, and arm the first tick not taken.  A taken tick still
        counts as an event."""
        scheduler, plant = self.scheduler, self.plant
        now = scheduler.now
        if plant.settled and self.due > now:
            plant.sample(now)
        else:
            plant.step(now)
            while self.due <= now:
                plant.try_box_arrival(now)
                self.due = next(self.dues, NEVER)
            plant.sample(now)
            self.sense()
        self.next = now + self.period
        if plant.settled:  # idle ticks before anything else runs, the FIFO included
            last, left = scheduler.inline_bound()
            self._take(min(last, self.due - 1), left)
        if self.next <= self.duration:
            scheduler.at(self.next, self)

    def _take(self, last: int, most: int) -> None:
        """Take at most `most` ticks from `next` through `last`, all idle, in
        one step: their samples, their count in `processed`, and the seq
        each one's push of the next tick takes."""
        first, period = self.next, self.period
        n = min((min(last, self.duration) - first) // period + 1, most)
        if n > 0:
            p, scheduler = self.plant, self.scheduler
            state = p.cyl1, p.cyl2, p.box_present, p.box_pushed_off, p.hazard
            p.samples += [(t, *state) for t in range(first, first + n * period, period)]
            scheduler.processed += n
            scheduler._seq += n
            self.next = first + n * period

    def reach(self, bound: int, left: int) -> tuple[int, int]:
        """(last, left) for a flood segment that the clock's entry stops, as
        `Scheduler.inline_bound` gives them: past the idle ticks before
        `bound`, the next other entry and the run_until horizon, with `left`
        less those ticks; unchanged if they would spend it."""
        scheduler, first = self.scheduler, self.next
        heap = scheduler._heap
        if not self.plant.settled or not heap or heap[0][4] is not self:
            return first - 1, left
        # the head is the clock's entry, so the next other one is a child of it
        last = min(bound, scheduler._until, self.due - 1, *[e[0] - 1 for e in heap[1:3]])
        n = (min(last, self.duration) - first) // self.period + 1
        return (last, left - n) if n < left else (first - 1, left)

    def advance(self, now: int) -> None:
        """Take the ticks due by `now`, which a segment has run past, and
        move the clock's entry to the first tick after them."""
        self._take(now, NEVER)
        heappop(self.scheduler._heap)
        if self.next <= self.duration:
            self.scheduler.at_seq(self.next, self, LANE_FB, "", self.scheduler._seq)


def _resolve_target(raw: str, devices: dict[str, DeviceModel], group: GroupAddress,
                    path: str) -> Endpoint | GroupAddress:
    target = parse_target(raw, devices, path)
    if target is None:
        return group
    dev_id, port = target
    return Endpoint(dev_id, devices[dev_id].address, port)


def _resolve_claimed(raw: str, devices: dict[str, DeviceModel],
                     attacker_id: str, attacker_addr: int, path: str) -> Endpoint:
    if not raw:
        return Endpoint(attacker_id, attacker_addr, 40000)
    if raw == "plc1":
        return Endpoint("plc1", devices["plc1"].address, PUB_SRC_PORT)
    addr, port = parse_endpoint(raw, path, port_required=False)
    return Endpoint("spoofed", addr, 40000 if port is None else port)


def target_device_id(cfg: ScenarioConfig, attack: AttackConfig) -> str:
    """Device the attack lands on; group targets hit the subscriber PLC."""
    target = parse_target(attack.target, cfg.devices, "target")
    return "plc2" if target is None else target[0]


def run_scenario(cfg: ScenarioConfig, record_trace: bool = True,
                 on_valid: Callable[[], object] | None = None) -> RunResult:
    """Validate and run `cfg`; `on_valid()`, if given, is called in between."""
    rules = validate(cfg)
    if on_valid is not None:
        on_valid()
    return _run(cfg, rules, record_trace)


def _run(cfg: ScenarioConfig, rules: list[Rule], record_trace: bool) -> RunResult:
    """Assemble and run `cfg`; `rules` is what `validate(cfg)` returned."""
    scheduler = Scheduler(max_events=cfg.event_budget)
    trace = Trace() if record_trace else None
    duration = cfg.duration_us
    group = GroupAddress(*parse_endpoint(cfg.group, "net.group"))

    transport = Transport(scheduler, latency_us=cfg.latency_us)
    devices: dict[str, DeviceModel] = {}
    for dev_id in PLC_IDS:
        d = cfg.devices[dev_id]
        devices[dev_id] = transport.add_device(DeviceModel(
            dev_id, ip_to_int(d.address), capacity=d.capacity,
            critical_rate=d.critical_rate, halfopen_capacity=d.halfopen_capacity,
            halfopen_timeout_us=round(d.halfopen_timeout_s * US), seed=cfg.seed))

    services = {"transport": transport}
    net1 = FBNetwork(scheduler, trace, name="plc1", services=services)
    net2 = FBNetwork(scheduler, trace, name="plc2", services=services)
    net1.host = devices["plc1"]
    net2.host = devices["plc2"]

    plant = Plant(cfg.plant.rate_per_tick)

    # -- engine and its IDPS blocks on the subscriber PLC -------------------
    engine: IdpsEngine | None = None
    if cfg.idps.enabled:
        engine = IdpsEngine(inspection_capacity=cfg.idps.inspection_capacity)
        devices["plc2"].engine = engine
        poll_idps = add_idps(net2, engine, rules, EngineMode(cfg.idps.mode),
                             round(cfg.idps.hold_window_s * US))

    recorder = transport.recorder = Recorder(list(PLC_IDS), "plc1", engine, rules)

    # -- PLC1: sensors, ThrustCtl, actuator, publisher -----------------------
    net1.add(make_ix("IX_BoxTop")).add(make_ix("IX_Cyl1End"))
    net1.add(make_thrustctl("ThrustCtl"))
    net1.add(make_qx("QX_Cyl1", plant, cylinder=1))
    net1.add(make_publisher("PUB", transport, "plc1", devices["plc1"].address, PUB_SRC_PORT))
    net1.connect("IX_BoxTop.IND", "ThrustCtl.BOXTOP").connect("IX_BoxTop.Q", "ThrustCtl.BOXQ")
    net1.connect("IX_Cyl1End.IND", "ThrustCtl.CYLEND").connect("IX_Cyl1End.Q", "ThrustCtl.ENDQ")
    net1.connect("ThrustCtl.DRIVE", "QX_Cyl1.REQ").connect("ThrustCtl.CMD", "QX_Cyl1.CMD")
    net1.connect("ThrustCtl.SEND", "PUB.REQ").connect("ThrustCtl.SV", "PUB.SD_1")
    net1.set_data_in("PUB", "QI", TRUE)
    net1.set_data_in("PUB", "ID", Str(cfg.group))
    net1.post("PUB", "INIT")

    # -- PLC2: subscriber, LiftCtl, actuator, then the safe-mode gates -------
    net2.add(make_subscriber("SUB", net2, transport, "plc2"))
    net2.add(make_ix("IX_Box"))
    liftctl = make_liftctl("LiftCtl")
    lift_behavior = liftctl.behavior

    def timed_liftctl(ctx, event, inputs, state):
        recorder.on_liftctl_dispatch(ctx.now)
        return lift_behavior(ctx, event, inputs, state)

    liftctl.behavior = timed_liftctl
    net2.add(liftctl)
    net2.add(make_qx("QX_Cyl2", plant, cylinder=2))
    net2.connect("LiftCtl.DRIVE", "QX_Cyl2.REQ").connect("LiftCtl.CMD", "QX_Cyl2.CMD")
    net2.connect("SUB.IND", "LiftCtl.REQ").connect("SUB.RD_1", "LiftCtl.SV")
    net2.connect("IX_Box.IND", "LiftCtl.BOX").connect("IX_Box.Q", "LiftCtl.BOXQ")
    if engine is not None and cfg.safemode == "gate_and_hold":
        secure(net2, GATES, FLAG, GATED)
    net2.set_data_in("SUB", "QI", TRUE)
    net2.set_data_in("SUB", "ID", Str(cfg.group))
    net2.post("SUB", "INIT")

    # -- lifecycle and periodic events ----------------------------------------
    if engine is not None:
        net2.post("IDPS.SIFB", "INIT")
        shutdown_policy = cfg.safemode == "shutdown"
        poll_period = cfg.idps.poll_period_ms * 1000

        def poll():
            # A changes only on POLL and feeds no event, so reading it here
            # sees every change at the instant it happens.
            flag = poll_idps()
            recorder.on_flag(scheduler.now, flag)
            if shutdown_policy and flag:
                net2.suspended.update(SHUTDOWN)
            if scheduler.now + poll_period <= duration:
                scheduler.at(scheduler.now + poll_period, poll)

        scheduler.at(poll_period, poll)

    sensor_state = {"IX_BoxTop": False, "IX_Cyl1End": False, "IX_Box": False}

    def scan(net: FBNetwork, inst: str, bit: bool) -> None:
        if bit != sensor_state[inst]:
            sensor_state[inst] = bit
            net.set_data_in(inst, "NEWQ", Bool(bit))
            net.dispatch(inst, "SCAN")

    def sense() -> None:
        scan(net1, "IX_BoxTop", plant.sensor_box_top())
        scan(net1, "IX_Cyl1End", plant.sensor_cyl1_end())
        scan(net2, "IX_Box", plant.sensor_box())

    plant.sample(0)
    boxes = range(round(cfg.plant.first_box_s * US), duration, round(cfg.plant.box_period_s * US))
    scheduler.clock = PlantClock(scheduler, plant, cfg.plant.tick_ms * 1000, duration, sense, boxes)

    # -- attacks ---------------------------------------------------------------
    for i, a in enumerate(cfg.attacks):
        attacker_id = a.attacker or f"attacker{i + 1}"
        attacker_addr = ip_to_int(a.attacker_address) if a.attacker_address else ip_to_int(f"10.0.0.{66 + i}")
        spec = AttackSpec(
            name=a.name, kind=a.kind, attacker_id=attacker_id,
            target=_resolve_target(a.target, devices, group, f"attacks[{i}].target"),
            claimed_src=_resolve_claimed(a.claimed_src, devices, attacker_id, attacker_addr,
                                         f"attacks[{i}].claimed_src"),
            payload=a.payload, rate=a.rate,
            start=round(a.start_s * US), stop=round(a.stop_s * US),
            send_times=tuple(round(t * US) for t in a.at_s),
            attacker_count=a.attacker_count)
        if spec.kind is AttackKind.SPOOF_PUBLISH:
            dev = attacker_device(transport, attacker_id, attacker_addr)
            recorder.attacker_ids.add(dev.device_id)
            schedule_spoof(spec, transport, scheduler)
        else:
            for dev in schedule_flood(spec, transport, scheduler, attacker_addr):
                recorder.attacker_ids.add(dev.device_id)

    # -- optional TCP probe pair ------------------------------------------------
    client_inst = None
    if cfg.tcp_probe.enabled:
        probe_dev = transport.add_device(DeviceModel(
            PROBE_CLIENT_ID, ip_to_int(cfg.tcp_probe.client_address), seed=cfg.seed))
        net_probe = FBNetwork(scheduler, trace, name=PROBE_CLIENT_ID, services=services)
        net2.add(make_server("SRV", net2, transport, "plc2", cfg.tcp_probe.server_port))
        net2.set_data_in("SRV", "QI", TRUE)
        net2.post("SRV", "INIT")
        client_inst = make_client("CLIENT", net_probe, transport, PROBE_CLIENT_ID,
                                  probe_dev.address, CLIENT_PORT)
        net_probe.add(client_inst)
        server_addr = cfg.devices["plc2"].address
        net_probe.set_data_in(
            "CLIENT", "ID", Str(f"plc2@{server_addr}:{cfg.tcp_probe.server_port}"))
        for t_s in cfg.tcp_probe.connect_at_s:
            net_probe.post("CLIENT", "INIT", delay=round(t_s * US))

    # -- run ---------------------------------------------------------------------
    try:
        scheduler.run_until(duration)
    except EventBudgetExceeded:
        # validate bounds each flood alone; the whole run is known only now
        raise ConfigError("run.event_budget",
                          f"more than {cfg.event_budget} events by t={scheduler.now}us "
                          f"of {duration}us") from None

    s = net2.instances["SUB"].state
    sub_stats = {"accepted": s.accepted, "malformed": s.malformed}
    probe_attempts = []
    if client_inst is not None:
        probe_attempts = [{"started": at.started, "established": at.established}
                          for at in client_inst.state.attempts]
    suppressed = net1.suppressed + net2.suppressed
    report = build_report(duration, cfg.seed, transport, plant,
                          recorder, sub_stats, probe_attempts, suppressed)
    return RunResult(report=report, trace=trace, plant=plant, recorder=recorder,
                     config=cfg, networks={"plc1": net1, "plc2": net2}, engine=engine)


def write_outputs(result: RunResult, out_dir: str) -> None:
    write_report_files(result.report, result.plant, out_dir)
    if result.trace is not None:
        with open(os.path.join(out_dir, "trace.txt"), "w", encoding="utf-8") as f:
            for line in result.trace.lines():
                f.write(line + "\n")


def run_sweep(cfg: ScenarioConfig, attack_name: str, rates: list[int],
              on_valid: Callable[[], object] | None = None):
    """One sealed run per rate, same seed, rate substituted into the attack;
    `on_valid()`, if given, is called once every config is valid, before
    the first run."""
    if not rates:
        raise ConfigError("rates", "sweep needs at least one rate")
    if sorted(rates) != list(rates) or len(set(rates)) != len(rates):
        raise ConfigError("rates", "rates must be strictly increasing")
    configs = [cfg.with_attack_rate(attack_name, rate) for rate in rates]
    rules = [validate(c) for c in configs]  # refuse any bad config before the first run
    if on_valid is not None:
        on_valid()
    target = target_device_id(cfg, cfg.attack(attack_name))
    rows = []
    results = []
    for rate, c, r in zip(rates, configs, rules):
        result = _run(c, r, record_trace=False)
        rows.append(sweep_row(rate, result.report, target))
        results.append(result)
    return rows, results
