"""Deterministic attack traffic generators.

Floods are perfectly periodic: packet n of an aggregate-rate-r flood is
due at start + floor(n * 1e6 / r) microseconds, and k attackers split the
stream round-robin with evenly spaced phase offsets, so every count in the
acceptance math is exact.  Generators are lazily chained through the
scheduler (one live event per attacker), and once a unicast target goes
unresponsive the remainder is accounted in bulk since nothing else could
observe it.

A pump runs each arrival due before anything else inline, in one loop
(`_FloodPump._pump`).  Nothing else can run meanwhile, so an ingested
arrival whose whole fate is a counter update is only counted, and such
arrivals go to the device a stretch at a time: one scheduler bound and one
device call each, which works the stretch out one 1 ms window bucket at a
time.  Every arrival is still ingested and counted as an event.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .fbnet import LANE_NET, US, Scheduler
from .transport import (
    DeviceModel,
    Endpoint,
    GroupAddress,
    Packet,
    PacketView,
    Proto,
    Transport,
)


class AttackKind(Enum):
    SPOOF_PUBLISH = "spoof_publish"
    UDP_FLOOD = "udp_flood"
    SYN_FLOOD = "syn_flood"
    ICMP_FLOOD = "icmp_flood"


# Device id of the SYN flood's spoofed sources; never a registered device, so
# the SYN-ACKs sent to them are undeliverable.
GHOST_ID = "ghost"

_FLOOD_PROTO = {
    AttackKind.UDP_FLOOD: Proto.UDP,
    AttackKind.SYN_FLOOD: Proto.TCP_SYN,
    AttackKind.ICMP_FLOOD: Proto.ICMP_ECHO,
}


@dataclass
class AttackSpec:
    name: str
    kind: AttackKind
    attacker_id: str
    target: Endpoint | GroupAddress
    claimed_src: Endpoint | None = None      # spoofed header source
    payload: bytes = b"\x00"
    rate: int = 0                            # aggregate packets/second (floods)
    start: int = 0                           # virtual microseconds
    stop: int = 0
    send_times: tuple[int, ...] = ()         # SPOOF_PUBLISH: exactly these
    attacker_count: int = 1


def craft_spoofed_publish(transport: Transport, attacker_id: str,
                          claimed_src: Endpoint, group: GroupAddress,
                          payload: bytes) -> Packet:
    """A packet wearing someone else's header; ground truth stays ours."""
    return transport.make_packet(Proto.UDP, claimed_src, group, payload, attacker_id)


def flood_clock(spec: AttackSpec, attacker_index: int) -> tuple[int, int]:
    """(first send instant, per-attacker rate); phase offsets interleave attackers."""
    return spec.start + attacker_index * US // spec.rate, spec.rate // spec.attacker_count


def flood_count(spec: AttackSpec) -> int:
    """Exact per-attacker packet count over [start, stop)."""
    return flood_clock(spec, 0)[1] * (spec.stop - spec.start) // US


def attacker_device(transport: Transport, device_id: str, address: int) -> DeviceModel:
    """Attackers have effectively unlimited capacity; they never degrade."""
    dev = DeviceModel(device_id, address, capacity=2**62, critical_rate=2**62)
    transport.add_device(dev)
    return dev


def schedule_spoof(spec: AttackSpec, transport: Transport, scheduler: Scheduler) -> None:
    def fire():
        pkt = craft_spoofed_publish(transport, spec.attacker_id,
                                    spec.claimed_src, spec.target, spec.payload)
        transport.send(pkt)

    for t in spec.send_times:
        scheduler.at(t, fire)


class _FloodPump:
    """One attacker's packet stream, self-rescheduling at delivery times.

    `_pump` is its one loop.  Packet `i` runs as an event; each successor
    due before anything else (`Scheduler.inline_bound`) runs inline, and the
    first one that is not is armed.  Send instants are computed one at a
    time, so a flood holds the same memory however many packets it sends.
    A unicast target's device ingests each arrival first; an ingested one
    takes a sequence number and goes to `Transport.arrive` without a
    `Packet`.  Group floods and targets with no device build one for
    `Transport.deliver`.

    The first time a call of a unicast non-SYN flood goes on inline, it asks
    `Transport.count_only`, and again after its first routed arrival if that
    found no counter; once one does, the call's later ingested arrivals are
    only counted, and those due inline go to the device a segment at a time,
    as an index range of this schedule (`DeviceModel.ingest_span`).  A call
    armed while counting (`counting`) makes the next one ask as soon as it
    pops, so a flood that other events cut into many calls routes no arrival
    after its first while the answer stands; a pump that never counted, such
    as an engine-on, SYN or ICMP flood, never asks on the pop.  Every arrival
    is still ingested and run as an event, so device counters, drop draws,
    state changes, collapse, `now`, `processed` and the event budget end as
    they would one arrival at a time.
    """

    def __init__(self, spec: AttackSpec, attacker_index: int, src: Endpoint,
                 transport: Transport, scheduler: Scheduler):
        self.spec = spec
        self.src = src
        self.origin = src.device_id  # ground truth survives header rotation
        self.transport = transport
        self.scheduler = scheduler
        self.proto = _FLOOD_PROTO[spec.kind]
        self.count = flood_count(spec)
        self.first, self.per_rate = flood_clock(spec, attacker_index)
        self.i = 0
        self.counting = False  # armed while counting: ask on the pop
        self.syn_rotate = spec.kind is AttackKind.SYN_FLOOD
        # Views carry only the header and payload, which a non-rotating flood
        # never changes, so one view serves every packet and receiver.
        self.view = None if self.syn_rotate else Packet(
            self.proto, src, spec.target, spec.payload, 0, self.origin, 0).view()
        if isinstance(spec.target, GroupAddress):
            self.group, self.target_device = spec.target.address, None
        else:
            self.group, self.target_device = None, transport.devices.get(spec.target.device_id)

    def start(self) -> None:
        if self.count:
            self.scheduler.at(self.first + self.transport.latency_us, self._pump,
                              lane=LANE_NET, key=(self.origin, 0))

    def _pump(self) -> None:
        """Deliver packet `i` (due now) and each next packet `inline_bound`
        lets run inline (due at or before `last`, with events `left` in the
        budget), moving `now` and `processed` as a popped entry would; arm
        the first one it does not.  Counted arrivals go to the device a
        segment at a time, and `counted(k)` takes the k ingested when the
        call ends.  If the call before armed packet `i` while counting and
        `count_only` still answers, the first segment starts at packet `i`
        itself; the pop has counted it in `processed` already, so the budget
        allows it and `left` more."""
        target, payload, proto, origin = self.spec.target, self.spec.payload, self.proto, self.origin
        base_src, syn_rotate, view = self.src, self.syn_rotate, self.view
        src_id = GHOST_ID if syn_rotate else base_src.device_id
        ghost_net, dst_address, dst_port = base_src.address & 0xFFFF0000, target.address, target.port
        dev, group = self.target_device, self.group
        transport, scheduler = self.transport, self.scheduler
        latency = transport.latency_us
        base = self.first + latency  # arrival of packet 0
        per_rate, count, i = self.per_rate, self.count, self.i
        counted = transport.count_only(dev, target, view, origin) if self.counting else None
        if counted is not None:
            last, left = scheduler.inline_bound()
            left += 1  # the popped arrival has run as an event already
        ask = counted is None and dev is not None and not syn_rotate
        k = 0
        try:
            while True:
                if dev is not None and dev.down:
                    dev.bulk_unresponsive_drop(count - i)
                    return
                if counted is None:
                    now = scheduler.now
                    routed = dev is None or dev.ingest(now)
                    if routed:
                        if syn_rotate:
                            # Rotate the claimed source so the SYN-ACKs vanish
                            # and no ACK ever completes a handshake.
                            view = PacketView(proto, ghost_net | (i % 0xFFFE + 1),
                                              1024 + i % 60000, dst_address, dst_port, payload)
                        if dev is not None:
                            transport.next_seq()  # the arrival's, read by `arrive` if watched
                            transport.arrive(dev, origin, src_id, view, target, now)
                        else:
                            src = Endpoint(GHOST_ID, view.src_address, view.src_port) \
                                if syn_rotate else base_src
                            # a packet arrives exactly one latency after its send instant
                            pkt = Packet(proto, src, target, payload, now - latency, origin,
                                         transport.next_seq())
                            for ep in (target,) if group is None else transport.members(group):
                                transport.deliver(pkt, ep, view)
                    i += 1
                else:
                    # packet i (due now; a popped one may tie with the heap head)
                    # and its successors due at or before `last`
                    # (base + n * US // per_rate <= last), at most `left` in all
                    end = ((last - base + 1) * per_rate - 1) // US + 1
                    taken, ingested = dev.ingest_span(base, per_rate, i,
                                                      min(count, i + left, max(end, i + 1)))
                    k += ingested
                    i += taken
                    scheduler.now = base + (i - 1) * US // per_rate
                    scheduler.processed += taken - 1  # its first packet ran as an event already
                if i >= count:
                    return
                when = base + i * US // per_rate
                last, left = scheduler.inline_bound()
                if when > last or left < 1:
                    self.i, self.counting = i, counted is not None
                    scheduler.at(when, self._pump, lane=LANE_NET, key=(origin, i))
                    return
                scheduler.now = when
                scheduler.processed += 1
                if ask:
                    counted = transport.count_only(dev, target, view, origin)
                    ask = counted is None and not routed
        finally:
            if counted is not None:
                counted(k)


def schedule_flood(spec: AttackSpec, transport: Transport, scheduler: Scheduler,
                   base_address: int) -> list[DeviceModel]:
    """Create the attacker devices and arm one pump per attacker."""
    devices = []
    for j in range(spec.attacker_count):
        dev_id = spec.attacker_id if spec.attacker_count == 1 else f"{spec.attacker_id}.{j}"
        address = base_address + j
        dev = transport.devices.get(dev_id) or attacker_device(transport, dev_id, address)
        devices.append(dev)
        src = Endpoint(dev_id, address, 40000 + j)
        _FloodPump(spec, j, src, transport, scheduler).start()
    return devices
