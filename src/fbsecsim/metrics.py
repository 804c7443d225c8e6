"""Run accounting: ground-truth oracle, availability, report and CSV export.

This is the only layer allowed to read a packet's true origin.  The truth
oracle re-evaluates the ruleset over every packet presented to the engine
with no inspection-capacity limit, in a rate table of the engine's type
but its own instance, so the engine's saturation undercount is measured
against a count that never fails open.
"""

from __future__ import annotations

import csv
import os
from collections.abc import Sequence
from dataclasses import dataclass, fields

from .errors import SimError
from .idps import BLOCK, IPS, IdpsEngine, RateCounters, Rule, StaticMatches
from .plant import Command, Plant, completed_cycles
from .transport import DeviceModel, DeviceState, Packet, Transport
from .values import TRUE
from .wire import encode

EXIT_CLEAN = 0
EXIT_CONFIG = 2
EXIT_HAZARD = 10
EXIT_COLLAPSE = 11


class ConservationError(SimError):
    """A packet-accounting identity failed; the run is not trustworthy."""


class TruthOracle:
    """First-match rule evaluation with unlimited inspection capacity.

    The static matcher and the rate-table type are the engine's; the
    oracle's windows are its own `RateCounters`, fed every presented
    arrival, so its count does not depend on the engine's saturation.
    """

    def __init__(self, rules: list[Rule]):
        self.rules = rules
        self._static = StaticMatches(rules)
        self.windows = RateCounters()
        self.true_matches = 0

    def observe(self, view, now: int) -> bool:
        """Returns True when an unsaturated engine would have alerted."""
        if self.windows.first_match(self._static.matching(view), view, now) is None:
            return False
        self.true_matches += 1
        return True


@dataclass
class EngineStats:
    presented: int
    inspected: int
    dropped_by_engine: int
    alerts: int
    blocked: int
    true_matches: int
    attack_presented: int
    attack_blocked: int
    benign_blocked: int
    inspected_block_leak: int  # inspected, block-matched, yet delivered

    @property
    def recall(self) -> float | None:
        if self.attack_presented == 0:
            return None
        return self.attack_blocked / self.attack_presented

    @property
    def precision(self) -> float | None:
        blocked = self.attack_blocked + self.benign_blocked
        if blocked == 0:
            return None
        return self.attack_blocked / blocked


class Recorder:
    """Streaming observer of one run: the transport (`Transport.recorder`)
    feeds it packets and arrivals, the run reports the attack flag and
    LiftCtl dispatches.  The truth oracle exists whenever the engine does,
    on the engine's rules; the recorder's own five counts classify the
    engine's verdicts by each arrival's true origin and the matched rule's
    action."""

    def __init__(self, plc_ids: list[str], publisher_id: str,
                 engine: IdpsEngine | None, rules: list[Rule]):
        self.attacker_ids: set[str] = set()
        self.plc_ids = plc_ids
        self.engine = engine
        self.oracle = TruthOracle(rules) if engine is not None else None
        self.attack_presented = 0
        self.blocked = 0
        self.attack_blocked = 0
        self.benign_blocked = 0
        self.inspected_block_leak = 0  # inspected, block-matched, yet delivered
        self.legit_sends: list[tuple[int, int]] = []       # (send time, seq) of shared-true packets
        self.legit_deliveries: list[tuple[int, int]] = []  # (delivery time, seq)
        self.flag_timeline: list[tuple[int, bool]] = [(0, False)]  # attack-flag transitions
        self.liftctl_dispatches: list[int] = []
        self._rule_actions = {r.id: r.action for r in rules}
        self.publisher_id = publisher_id
        self._shared_payload = encode([TRUE])

    def on_send(self, packet: Packet) -> None:
        if (packet.true_origin == self.publisher_id
                and packet.payload == self._shared_payload):
            self.legit_sends.append((packet.send_time, packet.seq))

    def on_presented(self, origin: str, view, verdict, now: int) -> None:
        is_attack = origin in self.attacker_ids
        if is_attack:
            self.attack_presented += 1
        self.oracle.observe(view, now)
        if verdict.blocked:
            self.blocked += 1
            if is_attack:
                self.attack_blocked += 1
            else:
                self.benign_blocked += 1
        elif (verdict.inspected and verdict.rule_id is not None
              and self._rule_actions.get(verdict.rule_id) is BLOCK
              and self.engine.mode is IPS):
            # The engine evaluated a block match and still let it through.
            self.inspected_block_leak += 1

    def presented_span(self, origin: str, rules: list[Rule], addresses: Sequence[int],
                       ports: Sequence[int], times: list[int]) -> None:
        """Count the arrivals from `origin` that the engine passed in bulk
        (`IdpsEngine.pass_span`) and fill the oracle's windows with their
        first hits: what `on_presented` does for each."""
        if origin in self.attacker_ids:
            self.attack_presented += len(times)
        self.oracle.windows.fill(rules, addresses, ports, times)

    def on_delivered(self, packet: Packet, now: int) -> None:
        """Takes each of the publisher's arrivals past the engine tap."""
        if packet.payload == self._shared_payload:
            self.legit_deliveries.append((now, packet.seq))

    def on_flag(self, now: int, value: bool) -> None:
        if not self.flag_timeline or self.flag_timeline[-1][1] != value:
            self.flag_timeline.append((now, value))

    def on_liftctl_dispatch(self, now: int) -> None:
        self.liftctl_dispatches.append(now)

    def flag_true_intervals(self, end: int) -> list[tuple[int, int]]:
        """Half-open [rise, fall) intervals of the attack flag."""
        out = []
        rise = None
        for t, v in self.flag_timeline:
            if v and rise is None:
                rise = t
            elif not v and rise is not None:
                out.append((rise, t))
                rise = None
        if rise is not None:
            out.append((rise, end))
        return out


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[list[int]] = []
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if merged and a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return [(a, b) for a, b in merged]


@dataclass
class PlantOutcome:
    cycles: list[int]
    availability: float
    hazard: bool
    hazard_time: int | None
    boxes_arrived: int
    boxes_skipped: int
    stalls: list[tuple[int, int]]


def cycle_detector(plant: Plant, recorder: Recorder,
                   devices: dict[str, DeviceModel], duration: int) -> PlantOutcome:
    """Offline pass over the finished run's records.

    Availability is the fraction of the run in which the plant progresses
    normally: not stalled on a shared value that was sent but never reached
    the consumer, not held by a latched hazard, and not downstream of a
    collapsed controller.
    """
    cycles = completed_cycles(plant.samples)
    unavailable: list[tuple[int, int]] = []
    if plant.hazard and plant.hazard_time is not None:
        unavailable.append((plant.hazard_time, duration))
    for dev_id in recorder.plc_ids:
        for t, state in devices[dev_id].transitions:
            if state is DeviceState.UNRESPONSIVE:
                unavailable.append((t, duration))
                break

    # A sent shared-true packet counts as consumed only if the retract
    # command was written at its delivery instant (the zero-delay chain).
    retract_times = {w.time for w in plant.writes
                     if w.cylinder == 2 and w.command is Command.RETRACT}
    consumed_times = sorted(t for t, _seq in recorder.legit_deliveries if t in retract_times)
    delivered_seqs = {seq: t for t, seq in recorder.legit_deliveries}
    stalls: list[tuple[int, int]] = []
    for send_t, seq in recorder.legit_sends:
        t_d = delivered_seqs.get(seq)
        if t_d is not None and t_d in retract_times:
            continue  # this packet got through and acted
        resume = next((c for c in consumed_times if c >= send_t), duration)
        stalls.append((send_t, resume))
    unavailable.extend(stalls)

    merged = _merge_intervals([(max(0, a), min(duration, b)) for a, b in unavailable])
    lost = sum(b - a for a, b in merged)
    availability = 1.0 - lost / duration if duration > 0 else 1.0
    return PlantOutcome(cycles, availability, plant.hazard, plant.hazard_time,
                        plant.boxes_arrived, plant.boxes_skipped, _merge_intervals(stalls))


@dataclass
class RunReport:
    duration: int
    seed: int
    devices: dict[str, dict]
    transitions: dict[str, list[tuple[int, str]]]
    final_states: dict[str, str]
    engine: EngineStats | None
    alerts: list
    plant: PlantOutcome
    subscriber: dict[str, int]
    probe_attempts: list[dict]
    undeliverable: int
    suppressed_dispatches: int
    exit_code: int = EXIT_CLEAN

    def check_conservation(self) -> None:
        for dev_id, c in self.devices.items():
            if c["offered"] != c["ingested"] + c["dropped_capacity"] + c["dropped_unresponsive"]:
                raise ConservationError(f"{dev_id}: offered != ingested + drops")
        if self.engine is not None:
            if self.engine.presented != self.engine.inspected + self.engine.dropped_by_engine:
                raise ConservationError("engine: presented != inspected + dropped_by_engine")


def build_report(duration: int, seed: int, transport: Transport, plant: Plant,
                 recorder: Recorder, subscriber_stats: dict[str, int],
                 probe_attempts: list[dict], suppressed: int) -> RunReport:
    engine = recorder.engine
    devices = {}
    transitions = {}
    final_states = {}
    for dev_id, dev in transport.devices.items():
        devices[dev_id] = dev.counters()
        transitions[dev_id] = [(t, s.value) for t, s in dev.transitions]
        final_states[dev_id] = dev.state_at(duration).value
    outcome = cycle_detector(plant, recorder, transport.devices, duration)
    exit_code = EXIT_CLEAN
    if any(final_states.get(p) == DeviceState.UNRESPONSIVE.value for p in recorder.plc_ids):
        exit_code = EXIT_COLLAPSE
    if outcome.hazard:
        exit_code = EXIT_HAZARD
    stats = None
    if engine is not None:
        stats = EngineStats(
            presented=engine.presented, inspected=engine.inspected,
            dropped_by_engine=engine.dropped_by_engine, alerts=len(engine.alerts),
            blocked=recorder.blocked, true_matches=recorder.oracle.true_matches,
            attack_presented=recorder.attack_presented,
            attack_blocked=recorder.attack_blocked, benign_blocked=recorder.benign_blocked,
            inspected_block_leak=recorder.inspected_block_leak)
    report = RunReport(
        duration=duration,
        seed=seed,
        devices=devices,
        transitions=transitions,
        final_states=final_states,
        engine=stats,
        alerts=engine.alerts if engine is not None else [],
        plant=outcome,
        subscriber=subscriber_stats,
        probe_attempts=probe_attempts,
        undeliverable=transport.undeliverable,
        suppressed_dispatches=suppressed,
        exit_code=exit_code,
    )
    report.check_conservation()
    return report


# -- CSV export ---------------------------------------------------------------

def metrics_rows(report: RunReport) -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = [
        ("run.duration_us", str(report.duration)),
        ("run.seed", str(report.seed)),
        ("run.exit_code", str(report.exit_code)),
        ("run.undeliverable", str(report.undeliverable)),
        ("run.suppressed_dispatches", str(report.suppressed_dispatches)),
    ]
    for dev_id in sorted(report.devices):
        for key in sorted(report.devices[dev_id]):
            rows.append((f"device.{dev_id}.{key}", str(report.devices[dev_id][key])))
        rows.append((f"device.{dev_id}.final_state", report.final_states[dev_id]))
    if report.engine is not None:
        e = report.engine
        for f in fields(EngineStats):
            rows.append((f"engine.{f.name}", str(getattr(e, f.name))))
        rows.append(("engine.recall", "" if e.recall is None else f"{e.recall:.6f}"))
        rows.append(("engine.precision", "" if e.precision is None else f"{e.precision:.6f}"))
    p = report.plant
    rows.extend([
        ("plant.cycles_completed", str(len(p.cycles))),
        ("plant.availability", f"{p.availability:.6f}"),
        ("plant.hazard", "1" if p.hazard else "0"),
        ("plant.hazard_time_us", "" if p.hazard_time is None else str(p.hazard_time)),
        ("plant.boxes_arrived", str(p.boxes_arrived)),
        ("plant.boxes_skipped", str(p.boxes_skipped)),
    ])
    for key in sorted(report.subscriber):
        rows.append((f"subscriber.{key}", str(report.subscriber[key])))
    for i, attempt in enumerate(report.probe_attempts):
        rows.append((f"tcp_probe.attempt{i}.started_us", str(attempt["started"])))
        rows.append((f"tcp_probe.attempt{i}.established_us",
                     "" if attempt["established"] is None else str(attempt["established"])))
    return rows


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def write_report_files(report: RunReport, plant: Plant, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "metrics.csv"), ["key", "value"], metrics_rows(report))
    write_csv(os.path.join(out_dir, "alerts.csv"),
              ["time_us", "rule_id", "proto", "claimed_src", "dst", "msg"],
              [(a.time, a.rule_id, a.proto, a.claimed_src, a.dst, a.msg) for a in report.alerts])
    transitions = []
    for dev_id in sorted(report.transitions):
        for t, state in report.transitions[dev_id]:
            transitions.append((t, dev_id, state))
    transitions.sort(key=lambda r: (r[0], r[1]))
    write_csv(os.path.join(out_dir, "transitions.csv"), ["time_us", "device", "state"], transitions)
    write_csv(os.path.join(out_dir, "plant.csv"),
              ["time_us", "cyl1_pos", "cyl2_pos", "box_present", "box_pushed_off", "hazard"],
              [(t, f"{c1 / 1000:.3f}", f"{c2 / 1000:.3f}",
                int(bp), int(po), int(hz)) for t, c1, c2, bp, po, hz in plant.samples])


def sweep_row(rate: int, report: RunReport, target_device: str) -> list:
    dev = report.devices[target_device]
    e = report.engine
    return [rate, dev["offered"], dev["ingested"], dev["dropped_capacity"],
            e.dropped_by_engine if e else 0, e.alerts if e else 0,
            e.true_matches if e else 0, f"{report.plant.availability:.6f}",
            report.final_states[target_device]]
