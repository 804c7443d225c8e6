"""Simulated network and per-device resource model.

Devices process a bounded packet rate measured over a sliding one-second
window.  Above capacity they shed load probabilistically; at the critical
rate they go unresponsive for the rest of the run.  TCP connects go through
a half-open table so SYN floods behave like the real thing.

Detection code never sees `true_origin`: packets are narrowed to a
PacketView before they cross into the inspection engine or any CSIFB.
"""

from __future__ import annotations

import random
from collections import deque
from enum import Enum
from typing import Callable, NamedTuple

from .fbnet import LANE_NET, Scheduler

WINDOW_US = 1_000_000
BUCKET_US = 1_000
_N_BUCKETS = WINDOW_US // BUCKET_US


def ip_to_int(dotted: str) -> int:
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {dotted!r}")
    value = 0
    for p in parts:
        b = int(p)
        if not 0 <= b <= 255:
            raise ValueError(f"bad IPv4 address {dotted!r}")
        value = (value << 8) | b
    return value


def int_to_ip(value: int) -> str:
    return f"{value >> 24 & 0xFF}.{value >> 16 & 0xFF}.{value >> 8 & 0xFF}.{value & 0xFF}"


class Proto(Enum):
    UDP = "udp"
    TCP_SYN = "tcp_syn"
    TCP_SYNACK = "tcp_synack"
    TCP_ACK = "tcp_ack"
    TCP_DATA = "tcp_data"
    ICMP_ECHO = "icmp_echo"


class Endpoint(NamedTuple):
    device_id: str
    address: int
    port: int

    def render(self) -> str:
        return f"{int_to_ip(self.address)}:{self.port}"


class GroupAddress(NamedTuple):
    address: int
    port: int

    def render(self) -> str:
        return f"{int_to_ip(self.address)}:{self.port}"


class Packet(NamedTuple):
    proto: Proto
    src: Endpoint                      # as claimed in the header; may be forged
    dst: Endpoint | GroupAddress
    payload: bytes
    send_time: int
    true_origin: str                   # ground truth, metrics/oracle only
    seq: int

    def view(self) -> "PacketView":
        return PacketView(self.proto, self.src.address, self.src.port,
                          self.dst.address, self.dst.port, self.payload)


class PacketView(NamedTuple):
    """What inspection and CSIFB code is allowed to see: no ground truth."""

    proto: Proto
    src_address: int
    src_port: int
    dst_address: int
    dst_port: int
    payload: bytes


class IngestResult(Enum):
    INGESTED = "ingested"
    DROPPED_CAPACITY = "dropped_capacity"
    DROPPED_UNRESPONSIVE = "dropped_unresponsive"


class DeviceState(Enum):
    RESPONSIVE = "RESPONSIVE"
    DEGRADED = "DEGRADED"
    UNRESPONSIVE = "UNRESPONSIVE"


class SlidingWindow:
    """Arrival counter over the trailing second, bucketed at 1 ms.

    The current bucket plus the previous 1000 are kept, so the span never
    falls short of a full second: a sustained packet-per-microsecond flood
    reaches a count of 10^6 exactly 999999 us after its first arrival.
    """

    __slots__ = ("_buckets", "_total")

    def __init__(self):
        self._buckets: deque[list] = deque()
        self._total = 0

    def add(self, now: int) -> int:
        """Count an arrival; returns the window total including it."""
        b = now // BUCKET_US
        buckets = self._buckets
        low = b - _N_BUCKETS
        while buckets and buckets[0][0] < low:
            self._total -= buckets.popleft()[1]
        if buckets and buckets[-1][0] == b:
            buckets[-1][1] += 1
        else:
            buckets.append([b, 1])
        self._total += 1
        return self._total


class HalfOpenTable:
    """Pending TCP handshakes awaiting their final ACK."""

    def __init__(self, capacity: int, timeout_us: int):
        self.capacity = capacity
        self.timeout_us = timeout_us
        self.entries: dict[tuple[int, int, int], int] = {}  # (src addr, src port, local port) -> opened_at

    def _evict(self, now: int) -> None:
        dead = [k for k, t in self.entries.items() if t + self.timeout_us <= now]
        for k in dead:
            del self.entries[k]

    def syn(self, src_addr: int, src_port: int, local_port: int, now: int) -> bool:
        """Admit a SYN if a slot is free after expiring stale entries."""
        self._evict(now)
        if len(self.entries) >= self.capacity:
            return False
        self.entries[(src_addr, src_port, local_port)] = now
        return True

    def ack(self, src_addr: int, src_port: int, local_port: int) -> bool:
        return self.entries.pop((src_addr, src_port, local_port), None) is not None

    def live(self, now: int) -> int:
        self._evict(now)
        return len(self.entries)


class DeviceModel:
    """One simulated PLC (or attacker host): capacity, state, counters."""

    def __init__(self, device_id: str, address: int, capacity: int = 10_000,
                 critical_rate: int = 1_000_000, halfopen_capacity: int = 128,
                 halfopen_timeout_us: int = 3_000_000, seed: int = 0):
        self.device_id = device_id
        self.address = address
        self.capacity = capacity
        self.critical_rate = critical_rate
        self.state = DeviceState.RESPONSIVE
        self.window = SlidingWindow()
        self.halfopen = HalfOpenTable(halfopen_capacity, halfopen_timeout_us)
        self.established: set[tuple[int, int, int]] = set()
        self._rng = random.Random(f"{seed}:{device_id}:drop")
        self._overloaded_at: int | None = None
        self.transitions: list[tuple[int, DeviceState]] = []
        self.engine = None  # inspection engine tap, if any
        # counters
        self.offered = 0
        self.ingested = 0
        self.dropped_capacity = 0
        self.dropped_unresponsive = 0
        self.syn_refused = 0
        self.syn_accepted = 0
        self.established_count = 0
        self.stray_acks = 0
        self.stray_data = 0
        self.sender_down = 0
        self.unbound = 0
        self.icmp_received = 0

    def _transition(self, state: DeviceState, t: int) -> None:
        self.state = state
        self.transitions.append((t, state))

    def _maybe_recover(self, now: int) -> None:
        if (self.state is DeviceState.DEGRADED and self._overloaded_at is not None
                and now - self._overloaded_at >= WINDOW_US):
            self._transition(DeviceState.RESPONSIVE, self._overloaded_at + WINDOW_US)
            self._overloaded_at = None

    def ingest(self, now: int) -> IngestResult:
        """Account one arrival and decide its fate."""
        self.offered += 1
        if self.state is DeviceState.UNRESPONSIVE:
            self.dropped_unresponsive += 1
            return IngestResult.DROPPED_UNRESPONSIVE
        rate = self.window.add(now)
        if rate >= self.critical_rate:
            self._transition(DeviceState.UNRESPONSIVE, now)
            self.dropped_unresponsive += 1
            return IngestResult.DROPPED_UNRESPONSIVE
        if rate > self.capacity:
            self._overloaded_at = now
            if self.state is DeviceState.RESPONSIVE:
                self._transition(DeviceState.DEGRADED, now)
            if self._rng.random() < 1.0 - self.capacity / rate:
                self.dropped_capacity += 1
                return IngestResult.DROPPED_CAPACITY
        else:
            self._maybe_recover(now)
        self.ingested += 1
        return IngestResult.INGESTED

    def bulk_unresponsive_drop(self, count: int) -> None:
        """Fast path for flood remainders once the device is down."""
        assert self.state is DeviceState.UNRESPONSIVE
        self.offered += count
        self.dropped_unresponsive += count

    def state_at(self, now: int) -> DeviceState:
        self._maybe_recover(now)
        return self.state

    def counters(self) -> dict[str, int]:
        return {
            "offered": self.offered,
            "ingested": self.ingested,
            "dropped_capacity": self.dropped_capacity,
            "dropped_unresponsive": self.dropped_unresponsive,
            "syn_refused": self.syn_refused,
            "syn_accepted": self.syn_accepted,
            "established": self.established_count,
            "stray_acks": self.stray_acks,
            "stray_data": self.stray_data,
            "sender_down": self.sender_down,
            "unbound": self.unbound,
            "icmp_received": self.icmp_received,
        }


class Transport:
    """Address registry, multicast groups, sockets and packet delivery."""

    def __init__(self, scheduler: Scheduler, latency_us: int = 500):
        self.scheduler = scheduler
        self.latency_us = latency_us
        self.devices: dict[str, DeviceModel] = {}
        self.groups: dict[int, dict[Endpoint, None]] = {}  # join order preserved
        self.sockets: dict[tuple[str, int], Callable[[PacketView], None]] = {}
        self.undeliverable = 0
        self._seq = 0
        self.on_send: Callable[[Packet], None] | None = None
        # on_presented(device, packet, view, verdict, now) after each engine tap
        self.on_presented: Callable | None = None
        # on_delivered(packet, now) once a packet clears device and tap
        self.on_delivered: Callable | None = None

    # -- topology ----------------------------------------------------------

    def add_device(self, device: DeviceModel) -> DeviceModel:
        self.devices[device.device_id] = device
        return device

    def join_group(self, group_addr: int, member: Endpoint) -> None:
        """Open join: any endpoint, attackers included, idempotent."""
        self.groups.setdefault(group_addr, {}).setdefault(member, None)

    def members(self, group_addr: int) -> list[Endpoint]:
        return list(self.groups.get(group_addr, {}))

    def bind(self, device_id: str, port: int, handler: Callable[[PacketView], None]) -> None:
        self.sockets[(device_id, port)] = handler

    # -- sending -----------------------------------------------------------

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def make_packet(self, proto: Proto, src: Endpoint, dst: Endpoint | GroupAddress,
                    payload: bytes, origin: str) -> Packet:
        return Packet(proto, src, dst, payload, self.scheduler.now, origin, self.next_seq())

    def send(self, packet: Packet) -> bool:
        """Schedule delivery; returns False (and counts) if the sender is down."""
        sender = self.devices.get(packet.true_origin)
        if sender is not None and sender.state is DeviceState.UNRESPONSIVE:
            sender.sender_down += 1
            return False
        if self.on_send is not None:
            self.on_send(packet)
        when = self.scheduler.now + self.latency_us
        key = (packet.true_origin, packet.seq)
        if isinstance(packet.dst, GroupAddress):
            for member in self.members(packet.dst.address):
                self.scheduler.at(when, self._delivery(packet, member), lane=LANE_NET, key=key)
        else:
            self.scheduler.at(when, self._delivery(packet, packet.dst), lane=LANE_NET, key=key)
        return True

    def _delivery(self, packet: Packet, ep: Endpoint) -> Callable[[], None]:
        return lambda: self.deliver(packet, ep)

    # -- delivery ----------------------------------------------------------

    def deliver(self, packet: Packet, ep: Endpoint) -> None:
        device = self.devices.get(ep.device_id)
        if device is None:
            self.undeliverable += 1
            return
        now = self.scheduler.now
        if device.ingest(now) is not IngestResult.INGESTED:
            return
        view = None
        engine = device.engine
        if engine is not None and engine.running:
            view = packet.view()
            verdict = engine.inspect(view, now)
            if self.on_presented is not None:
                self.on_presented(device, packet, view, verdict, now)
            if verdict.blocked:
                return
        if self.on_delivered is not None:
            self.on_delivered(packet, now)
        self._route(device, packet, ep, now, view)

    def _route(self, device: DeviceModel, packet: Packet, ep: Endpoint, now: int,
               view: PacketView | None) -> None:
        """Final fate of a packet past the engine; `view` is the engine's, if any."""
        proto = packet.proto
        if proto is Proto.ICMP_ECHO:
            device.icmp_received += 1        # device-level load only
            return
        if proto is Proto.TCP_SYN:
            if device.halfopen.syn(packet.src.address, packet.src.port, ep.port, now):
                device.syn_accepted += 1
                reply = self.make_packet(
                    Proto.TCP_SYNACK,
                    Endpoint(device.device_id, device.address, ep.port),
                    packet.src, b"", device.device_id)
                self.send(reply)
            else:
                device.syn_refused += 1
            return
        if proto is Proto.TCP_ACK:
            if device.halfopen.ack(packet.src.address, packet.src.port, ep.port):
                device.established.add((packet.src.address, packet.src.port, ep.port))
                device.established_count += 1
            else:
                device.stray_acks += 1
            return
        if proto is Proto.TCP_DATA:
            if (packet.src.address, packet.src.port, ep.port) not in device.established:
                device.stray_data += 1
                return
        # UDP, TCP_SYNACK and established TCP_DATA go to the bound socket.
        handler = self.sockets.get((ep.device_id, ep.port))
        if handler is None:
            device.unbound += 1
            return
        handler(view if view is not None else packet.view())
