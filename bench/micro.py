"""Layer micro-benchmarks: the public classes driven with synthetic calls.

Each result is the median, over `REPEATS` rounds, of host nanoseconds per
call, and is named after the span that wraps the same call in the traced
run, with a `.micro_ns` suffix.  Inputs are fixed, so every round does the
same work.
"""

from __future__ import annotations

import os
import statistics
import time

from fbsecsim.csifb import make_subscriber
from fbsecsim.errors import MalformedPayload
from fbsecsim.fbnet import FBNetwork, Scheduler
from fbsecsim.idps import EngineMode, IdpsEngine, parse_rules
from fbsecsim.metrics import TruthOracle
from fbsecsim.transport import DeviceModel, HalfOpenTable, PacketView, Proto, Transport, ip_to_int
from fbsecsim.values import TRUE, Str
from fbsecsim.wire import decode

from workloads import SCENARIO_DIR

REPEATS = 5
PLC2 = ip_to_int("192.168.1.2")
ATTACKER = ip_to_int("10.0.0.66")


def _rules():
    with open(os.path.join(SCENARIO_DIR, "combined.rules"), encoding="utf-8") as f:
        return parse_rules(f.read())


def _flood_view() -> PacketView:
    return PacketView(Proto.UDP, ATTACKER, 40000, PLC2, 61499, b"\x00")


def _decode(payload: bytes):
    def calls(n):
        for _ in range(n):
            try:
                decode(payload)
            except MalformedPayload:
                pass
    return calls


def _inspect():
    rules = _rules()
    view = _flood_view()

    def calls(n):
        engine = IdpsEngine(inspection_capacity=n + 1)
        engine.start(rules, EngineMode.IDS)
        for i in range(n):
            engine.inspect(view, i * 10)
    return calls


def _observe():
    rules = _rules()
    view = _flood_view()

    def calls(n):
        oracle = TruthOracle(rules)
        for i in range(n):
            oracle.observe(view, i * 10)
    return calls


def _ingest(capacity: int):
    # Arrivals every 10 us: 100k per second, under or over `capacity`.
    def calls(n):
        device = DeviceModel("plc2", PLC2, capacity=capacity)
        for i in range(n):
            device.ingest(i * 10)
    return calls


def _syn(capacity: int):
    # A full table whose entries never expire: every SYN scans it and is
    # refused, so the table is the same for every round.
    table = HalfOpenTable(capacity, timeout_us=10**12)
    for i in range(capacity):
        table.syn(ATTACKER, i, 61500, 0)

    def calls(n):
        for i in range(n):
            table.syn(ATTACKER, capacity + i, 61500, i)
    return calls


def _schedule():
    def noop():
        pass

    def calls(n):
        sched = Scheduler()
        for i in range(n):
            sched.at((i * 7919) % n, noop)
        sched.run_until(n)
    return calls


def _dispatch():
    sched = Scheduler()
    net_transport = Transport(sched)
    net_transport.add_device(DeviceModel("plc2", PLC2))
    net = FBNetwork(sched, name="plc2", services={"transport": net_transport})
    net.add(make_subscriber("SUB", net, net_transport, "plc2"))
    net.set_data_in("SUB", "QI", TRUE)
    net.set_data_in("SUB", "ID", Str("239.192.0.2:61499"))
    net.dispatch("SUB", "INIT")
    net.set_data_in("SUB", "RX", Str(b"\x00"))

    def calls(n):
        for _ in range(n):
            net.dispatch("SUB", "RCV")
    return calls


# name -> (calls per round, factory of the round)
BENCHES = {
    "wire.decode.junk.micro_ns": (50_000, lambda: _decode(b"\x00")),
    "wire.decode.valid.micro_ns": (50_000, lambda: _decode(b"\x40")),
    "idps.inspect.micro_ns": (20_000, _inspect),
    "metrics.observe.micro_ns": (20_000, _observe),
    "transport.ingest.under.micro_ns": (50_000, lambda: _ingest(10**9)),
    "transport.ingest.over.micro_ns": (50_000, lambda: _ingest(1_000)),
    "transport.syn.128.micro_ns": (5_000, lambda: _syn(128)),
    "transport.syn.1024.micro_ns": (1_000, lambda: _syn(1024)),
    "fbnet.schedule.micro_ns": (50_000, _schedule),
    "fbnet.dispatch.micro_ns": (10_000, _dispatch),
}


def run_all() -> dict[str, float]:
    out = {}
    for name, (n, factory) in BENCHES.items():
        calls = factory()
        rounds = []
        for _ in range(REPEATS):
            t0 = time.perf_counter_ns()
            calls(n)
            rounds.append((time.perf_counter_ns() - t0) / n)
        out[name] = statistics.median(rounds)
    return out
