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
from collections import OrderedDict, deque
from collections.abc import Container, Iterable, Sequence
from enum import Enum
from itertools import compress, count, islice, repeat, takewhile
from typing import Callable, NamedTuple

from .fbnet import LANE_NET, US, Scheduler

WINDOW_US = US
BUCKET_US = 1_000
_N_BUCKETS = WINDOW_US // BUCKET_US

# Device id of a SYN flood's spoofed sources; never a registered device, so
# the SYN-ACKs sent to them are undeliverable.
GHOST_ID = "ghost"


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


def first_held(table: Container, keys: Iterable, n: int) -> int:
    """The index of the first of `keys` that `table` holds, or n if none of
    the first n is held."""
    return next(compress(count(), map(table.__contains__, islice(keys, n))), n)


class Proto(Enum):
    UDP = "udp"
    TCP_SYN = "tcp_syn"
    TCP_SYNACK = "tcp_synack"
    TCP_ACK = "tcp_ack"
    TCP_DATA = "tcp_data"
    ICMP_ECHO = "icmp_echo"

    # Members are singletons compared by identity, so identity hashing is
    # consistent and skips Enum's Python-level __hash__ on every set lookup.
    __hash__ = object.__hash__


class DeviceState(Enum):
    RESPONSIVE = "RESPONSIVE"
    DEGRADED = "DEGRADED"
    UNRESPONSIVE = "UNRESPONSIVE"


# Per-packet code reads members through these names: on Python 3.10/3.11 an
# Enum class attribute read takes EnumMeta's slow path, about 10x a global.
TCP_SYN, TCP_SYNACK, TCP_ACK, TCP_DATA, ICMP_ECHO = (
    Proto.TCP_SYN, Proto.TCP_SYNACK, Proto.TCP_ACK, Proto.TCP_DATA, Proto.ICMP_ECHO)
RESPONSIVE, DEGRADED, UNRESPONSIVE = (
    DeviceState.RESPONSIVE, DeviceState.DEGRADED, DeviceState.UNRESPONSIVE)


class Endpoint(NamedTuple):
    device_id: str
    address: int
    port: int


class GroupAddress(NamedTuple):
    address: int
    port: int


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


class HalfOpenTable:
    """Pending TCP handshakes awaiting their final ACK.

    `entries` is kept in opening order: a SYN for a key that is already live
    refreshes its time and moves it to the end.  Since the scheduler never
    moves `now` backwards, opening order is time order, so the expired
    entries are always a prefix: `_expired` counts it, stopping at the
    first live entry, and `_evict` pops that many from the front; a SYN
    costs the same at any capacity.
    """

    def __init__(self, capacity: int, timeout_us: int):
        self.capacity = capacity
        self.timeout_us = timeout_us
        # (src addr, src port, local port) -> opened_at, oldest first
        self.entries: OrderedDict[tuple[int, int, int], int] = OrderedDict()

    def _expired(self, now: int) -> int:
        """How many entries, from the front, are stale at `now`."""
        return len(list(takewhile((now - self.timeout_us).__ge__, self.entries.values())))

    def _evict(self, now: int) -> None:
        popitem = self.entries.popitem
        for _ in range(self._expired(now)):
            popitem(last=False)

    def syn(self, src_addr: int, src_port: int, local_port: int, now: int) -> bool:
        """Admit a SYN if a slot is free after expiring stale entries."""
        self._evict(now)
        if len(self.entries) >= self.capacity:
            return False
        key = (src_addr, src_port, local_port)
        self.entries[key] = now
        self.entries.move_to_end(key)
        return True

    def ack(self, src_addr: int, src_port: int, local_port: int) -> bool:
        return self.entries.pop((src_addr, src_port, local_port), None) is not None

    def free(self, now: int) -> int:
        """Free slots at `now`, once the entries stale by then expire."""
        return self.capacity - len(self.entries) + self._expired(now)

    # A stretch of SYNs is refused before `expiry`, or admitted under keys
    # the table does not hold (`held`) in as many slots as are `free`.

    def expiry(self) -> int:
        """When the front entry expires."""
        return next(iter(self.entries.values())) + self.timeout_us

    def held(self, keys: list[tuple[int, int, int]], n: int) -> int:
        """The index of the first of the first n `keys` the table holds, or n."""
        return first_held(self.entries, keys, n)

    def admit(self, keys: list[tuple[int, int, int]], times: list[int]) -> None:
        """`syn` of keys[i] at times[i], for each i of `times`, where `free`
        and `held` allow them all."""
        self.entries.update(zip(keys, times))
        self._evict(times[-1])


class DeviceModel:
    """One simulated PLC (or attacker host): capacity, state, counters."""

    def __init__(self, device_id: str, address: int, capacity: int = 10_000,
                 critical_rate: int = 1_000_000, halfopen_capacity: int = 128,
                 halfopen_timeout_us: int = 3_000_000, seed: int = 0):
        self.device_id = device_id
        self.address = address
        self.capacity = capacity
        self.critical_rate = critical_rate
        self.state = RESPONSIVE
        self.down = False  # state is UNRESPONSIVE; kept by _transition
        # Arrivals over the trailing second, as [1 ms bucket, count] pairs
        # and their total: the current bucket plus the previous 1000 are
        # kept, so the span never falls short of a full second, and a
        # packet-per-microsecond flood reaches 10^6 exactly 999999 us after
        # its first arrival.
        self._buckets: deque[list] = deque()
        self._total = 0
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
        self.down = state is UNRESPONSIVE
        self.transitions.append((t, state))

    def _maybe_recover(self, now: int) -> None:
        if (self.state is DEGRADED and self._overloaded_at is not None
                and now - self._overloaded_at >= WINDOW_US):
            self._transition(RESPONSIVE, self._overloaded_at + WINDOW_US)
            self._overloaded_at = None

    def ingest(self, now: int) -> bool:
        """Account one arrival and decide its fate: True if it is ingested."""
        self.offered += 1
        if self.down:
            self.dropped_unresponsive += 1
            return False
        buckets = self._buckets
        b = now // BUCKET_US
        if buckets and buckets[-1][0] == b:  # its first arrival expired the old buckets
            buckets[-1][1] += 1
        else:
            low = b - _N_BUCKETS
            while buckets and buckets[0][0] < low:
                self._total -= buckets.popleft()[1]
            buckets.append([b, 1])
        rate = self._total = self._total + 1
        if rate >= self.critical_rate:
            self._transition(UNRESPONSIVE, now)
            self.dropped_unresponsive += 1
            return False
        if rate > self.capacity:
            self._overloaded_at = now
            if self.state is RESPONSIVE:
                self._transition(DEGRADED, now)
            if self._rng.random() < 1.0 - self.capacity / rate:
                self.dropped_capacity += 1
                return False
        elif self._overloaded_at is not None:
            self._maybe_recover(now)
        self.ingested += 1
        return True

    def headroom(self) -> int:
        """Arrivals the device can still ingest under capacity and short of
        collapse, by its window's total now (expiry only lowers it)."""
        return min(self.capacity, self.critical_rate - 1) - self._total

    def ingest_span(self, base: int, per_rate: int, lo: int, hi: int) -> tuple[int, int]:
        """`ingest` arrivals lo..hi-1 (lo <= hi) of a periodic stream, arrival
        m due at base + m * US // per_rate and none before the device's latest
        arrival, stopping after one that leaves the device down; returns
        (arrivals taken, arrivals ingested).  Within one 1 ms bucket the
        window total rises by one per arrival, so the arrivals at or under
        capacity, those over it and a collapse are index ranges: only an
        over-capacity arrival costs a step, its drop draw."""
        if self.down:
            taken = min(hi - lo, 1)  # the first arrival, if any, finds it down
            self.offered += taken
            self.dropped_unresponsive += taken
            return taken, 0
        buckets, total = self._buckets, self._total
        capacity, critical_rate = self.capacity, self.critical_rate
        draw = self._rng.random
        dropped = 0
        m = lo
        while m < hi:
            b = (base + m * US // per_rate) // BUCKET_US
            if buckets and buckets[-1][0] == b:
                tail = buckets[-1]
            else:  # as in `ingest`
                low = b - _N_BUCKETS
                while buckets and buckets[0][0] < low:
                    total -= buckets.popleft()[1]
                tail = [b, 0]
                buckets.append(tail)
            # arrivals m..end-1 fall in bucket b, and arrival m + j brings the
            # total to total + j + 1: crit is the one that reaches critical_rate
            # (the device is up, so total is below it), over the first over capacity
            end = -(-((b + 1) * BUCKET_US - base) * per_rate // US)
            if end > hi:
                end = hi
            crit = m + critical_rate - total - 1
            stop = crit if crit < end else end
            over = m + capacity - total if total < capacity else m
            if over > stop:
                over = stop
            if over > m and self._overloaded_at is not None:
                self._maybe_recover(base + (over - 1) * US // per_rate)
            if over < stop:
                if self.state is RESPONSIVE:
                    self._transition(DEGRADED, base + over * US // per_rate)
                self._overloaded_at = base + (stop - 1) * US // per_rate
                for rate in range(total + over - m + 1, total + stop - m + 1):
                    if draw() < 1.0 - capacity / rate:
                        dropped += 1
            n = stop - m + (crit < end)
            total += n
            tail[1] += n
            m += n
            if crit < end:
                self._transition(UNRESPONSIVE, base + crit * US // per_rate)
                self.dropped_unresponsive += 1
                break
        self._total = total
        taken = m - lo
        ingested = taken - dropped - self.down
        self.offered += taken
        self.ingested += ingested
        self.dropped_capacity += dropped
        return taken, ingested

    def bulk_unresponsive_drop(self, count: int) -> None:
        """Fast path for flood remainders once the device is down."""
        assert self.down
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
        self._undelivered = 0  # arrivals `deliver` finds no device for
        self._seq = 0
        # the run's one observer, a metrics.Recorder: `send`, `arrive` and
        # `segment` report to it
        self.recorder = None
        self.flood_pump = None  # the run's attacks._FloodPump, made by its first flood

    # -- topology ----------------------------------------------------------

    @property
    def undeliverable(self) -> int:
        """Arrivals due so far for a device id with no device: a unicast one
        is a tallied event (`send`)."""
        return self._undelivered + self.scheduler.tallied

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
        """Schedule delivery; returns False (and counts) if the sender is down.
        Devices are all added before the run, so a unicast packet to a device
        id with no device can only be undeliverable: it is a tallied event
        (`Scheduler.tally`), and sends come at a non-decreasing `now` with
        one latency, so their due times come in order."""
        sender = self.devices.get(packet.true_origin)
        if sender is not None and sender.state is UNRESPONSIVE:
            sender.sender_down += 1
            return False
        if self.recorder is not None:
            self.recorder.on_send(packet)
        when = self.scheduler.now + self.latency_us
        key = (packet.true_origin, packet.seq)
        dst = packet.dst
        if isinstance(dst, GroupAddress):
            view = packet.view()  # one for every member
            for member in self.members(dst.address):
                self.scheduler.at(when, self._delivery(packet, member, view), lane=LANE_NET, key=key)
        elif dst.device_id in self.devices:
            self.scheduler.at(when, self._delivery(packet, dst), lane=LANE_NET, key=key)
        else:
            self.scheduler.tally((when,))
        return True

    def _delivery(self, packet: Packet, ep: Endpoint,
                  view: PacketView | None = None) -> Callable[[], None]:
        return lambda: self.deliver(packet, ep, view)

    # -- delivery ----------------------------------------------------------

    def deliver(self, packet: Packet, ep: Endpoint, view: PacketView | None = None) -> None:
        """One arrival at `ep`: device lookup, `DeviceModel.ingest`, then `arrive`.
        `view`, when given, is `packet.view()` made once by the caller (a flood
        shares one across its packets); otherwise it is made on ingest."""
        device = self.devices.get(ep.device_id)
        if device is None:
            self._undelivered += 1
            return
        now = self.scheduler.now
        if device.ingest(now):
            self.arrive(device, packet.true_origin, packet.src.device_id,
                        view if view is not None else packet.view(), ep, now, packet)

    def arrive(self, device: DeviceModel, origin: str, src_id: str, view: PacketView,
               ep: Endpoint, now: int, packet: Packet | None = None) -> None:
        """Engine tap, recorder and routing of an arrival `device` ingested at
        `now`: its true origin, claimed source device id and view, and the
        `Packet` that `send` made, if any.  A unicast flood arrival has none;
        no flood comes from the recorder's publisher (`config.validate`
        names no attacker after a device), so each arrival it gets has one."""
        engine, recorder = device.engine, self.recorder
        if engine is not None and engine.running:
            verdict = engine.inspect(view, now)
            if recorder is not None:
                recorder.on_presented(origin, view, verdict, now)
            if verdict.blocked:
                return
        if recorder is not None and origin == recorder.publisher_id:
            recorder.on_delivered(packet, now)
        self._route(device, src_id, view, ep, now)

    def segment(self, device: DeviceModel, ep: Endpoint, origin: str, base: int,
                per_rate: int, view: PacketView | None,
                sources: Callable[[int, int], tuple[Sequence[int], Sequence[int]]] | None = None
                ) -> Callable[[int, int], int] | None:
        """A segment function for a periodic stream from `origin` at `ep`,
        arrival m due at base + m * US // per_rate: of `view`, or of SYNs
        whose claimed sources `sources(lo, hi)` gives as (addresses, ports).
        None unless no engine runs on `device`, or the arrivals are SYNs
        whose rules are `IdpsEngine.span_rules`; and the fate past the
        engine is a counter: `icmp_received`, a UDP handler's
        `count_only(view)`, or a SYN's refusal or admission by the half-open
        table, with no device `GHOST_ID`.  The recorder misses nothing a
        segment skips: it takes the segment's SYNs (`presented_span`), its
        `on_send` records only the publisher's shared-true publishes, never
        a tallied SYN-ACK, and no flood comes from the publisher.
        `span(lo, hi)` (lo < hi) takes the longest prefix of arrivals
        lo..hi-1 that each layer can take in bulk as the arrivals one at a
        time would, and returns how many (`tests/test_transport.py::
        TestRefusals`, `TestCountedSegments`).  The answer holds until
        another event runs."""
        engine, recorder, rules = device.engine, self.recorder, None
        if engine is not None and engine.running:
            rules = engine.span_rules(TCP_SYN) if sources is not None else None
            if rules is None:
                return None
        table = None
        if sources is not None:  # SYNs: every one is ingested, and its SYN-ACK tallied
            if GHOST_ID in self.devices:
                return None
            table, port = device.halfopen, ep.port
            latency, tally = self.latency_us, self.scheduler.tally

            def count(k: int) -> None:
                device.syn_refused += k
        elif view.proto is ICMP_ECHO:
            def count(k: int) -> None:
                device.icmp_received += k
        else:
            handler = self.sockets.get((ep.device_id, ep.port)) if view.proto is Proto.UDP else None
            answer = getattr(handler, "count_only", None)
            count = answer(view) if answer is not None else None
            if count is None:
                return None

        def span(lo: int, hi: int) -> int:
            now = base + lo * US // per_rate
            n, free = hi - lo, 0
            if table is not None:
                free = table.free(now)
                if free:  # arrivals that find a slot, before the first one's SYN-ACK falls due
                    until, n = now + latency, min(n, free)
                else:  # arrivals before the full table's front entry expires
                    until = table.expiry()
                n = min(n, -(-(until - base) * per_rate // US) - lo, device.headroom())
            if rules is not None and n > 0:
                n = min(n, engine.room(now))
            if n <= 0:
                return 0
            if free or rules is not None:
                addresses, ports = sources(lo, lo + n)
                if free:  # the table admits a key it holds without a new slot
                    keys = [*zip(addresses, ports, repeat(port))]
                    n = table.held(keys, n)
                if rules is not None:
                    # check both tables first, so the engine and the oracle take the same arrivals
                    n = engine.rate_counters.unseen(rules, addresses, ports, n)
                    if recorder is not None:
                        n = recorder.oracle.windows.unseen(rules, addresses, ports, n)
                if n == 0:
                    return 0
                times = [base + m * US // per_rate for m in range(lo, lo + n)]
            taken, ingested = device.ingest_span(base, per_rate, lo, lo + n)
            self._seq += ingested
            if rules is not None:
                engine.pass_span(rules, addresses, ports, times)
                if recorder is not None:
                    recorder.presented_span(origin, rules, addresses, ports, times)
            if free:
                table.admit(keys, times)
                device.syn_accepted += n
                self._seq += n  # each SYN-ACK's, after its SYN's
                tally(map(latency.__add__, times))
            else:
                count(ingested)
            return taken

        return span

    def _route(self, device: DeviceModel, src_id: str, view: PacketView, ep: Endpoint,
               now: int) -> None:
        """Final fate of an arrival past the engine; a SYN-ACK goes to its claimed source."""
        proto = view.proto
        if proto is ICMP_ECHO:
            device.icmp_received += 1        # device-level load only
            return
        if proto is TCP_SYN:
            if device.halfopen.syn(view.src_address, view.src_port, ep.port, now):
                device.syn_accepted += 1
                reply = self.make_packet(
                    TCP_SYNACK,
                    Endpoint(device.device_id, device.address, ep.port),
                    Endpoint(src_id, view.src_address, view.src_port), b"", device.device_id)
                self.send(reply)
            else:
                device.syn_refused += 1
            return
        if proto is TCP_ACK:
            if device.halfopen.ack(view.src_address, view.src_port, ep.port):
                device.established.add((view.src_address, view.src_port, ep.port))
                device.established_count += 1
            else:
                device.stray_acks += 1
            return
        if proto is TCP_DATA:
            if (view.src_address, view.src_port, ep.port) not in device.established:
                device.stray_data += 1
                return
        # UDP, TCP_SYNACK and established TCP_DATA go to the bound socket.
        handler = self.sockets.get((ep.device_id, ep.port))
        if handler is None:
            device.unbound += 1
            return
        handler(view)
