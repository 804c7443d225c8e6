"""Deterministic attack traffic generators.

Floods are perfectly periodic: packet n of an aggregate-rate-r flood is
due at start + floor(n * 1e6 / r) microseconds, and k attackers split the
stream round-robin with evenly spaced phase offsets, so every count in the
acceptance math is exact.  Generators are lazily chained through the
scheduler: one pump per run holds every attacker's stream and keeps one
live event for them all, and once a unicast target goes unresponsive the
remainder is accounted in bulk since nothing else could observe it.

The pump runs each arrival due before anything else inline, in one loop
(`_FloodPump._pump`), whichever stream it belongs to; what an arrival's
fan-out leaves for the same instant runs in between
(`Scheduler.run_ready`).  Nothing else can run meanwhile, so an ingested
arrival whose whole fate is a counter update is only counted: a junk UDP
or an ICMP arrival that no engine inspects, or a SYN from a new source
that the engine passes and the half-open table refuses or admits, whose
SYN-ACK to its spoofed source is a tallied event (`Scheduler.tally`).
Such arrivals go to the device a stretch of one stream at a time: one
scheduler bound and one device call each, which works the stretch out
one 1 ms window bucket at a time.  Every arrival is still ingested and
counted as an event.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from heapq import heappop, heappush

from .fbnet import LANE_NET, US, Scheduler
from .transport import (
    GHOST_ID,
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


def syn_source(ghost_net: int, i: int, k: int = 1, j: int = 0) -> tuple[int, int]:
    """Claimed (address, port) of SYN `i` of attacker `j` of the `k` of a
    flood whose attackers' /16 is `ghost_net`: the flood's SYN i * k + j,
    so no two attackers claim one source.  The source rotates so the
    SYN-ACKs vanish and no ACK ever completes a handshake."""
    n = i * k + j
    return ghost_net | (n % 0xFFFE + 1), 1024 + n % 60000


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


_NEVER = 1 << 62  # later than any arrival


class _Stream:
    """One attacker's packet stream: what `_FloodPump` needs to deliver its
    packets, and the index `i` of the next one.  Send instants are computed
    one at a time, so a flood holds the same memory however many packets
    it sends."""

    def __init__(self, spec: AttackSpec, attacker_index: int, src: Endpoint,
                 transport: Transport):
        self.spec = spec
        self.src = src
        self.origin = src.device_id  # ground truth survives header rotation
        self.proto = _FLOOD_PROTO[spec.kind]
        self.count = flood_count(spec)
        self.first, self.per_rate = flood_clock(spec, attacker_index)
        self.i = 0
        self.counting = False  # parked while counting: ask when it runs next
        self.armed = False     # its next arrival has the pump's heap entry
        self.syn_rotate = spec.kind is AttackKind.SYN_FLOOD
        # SYN i's claimed (address, port), from the attackers' /16 (`syn_source`)
        self.source = partial(syn_source, src.address & 0xFFFF0000, k=spec.attacker_count,
                              j=attacker_index) if self.syn_rotate else None
        # Views carry only the header and payload, which a non-rotating flood
        # never changes, so one view serves every packet and receiver.
        self.view = None if self.syn_rotate else Packet(
            self.proto, src, spec.target, spec.payload, 0, self.origin, 0).view()
        target = spec.target
        if isinstance(target, GroupAddress):
            self.group, self.target_device = target.address, None
        else:
            self.group, self.target_device = None, transport.devices.get(target.device_id)
        self.base = self.first + transport.latency_us  # packet 0's arrival
        # what `_FloodPump._pump` reads, in one tuple
        self.fixed = (target, spec.payload, self.proto, self.origin, src, self.source,
                      self.view, GHOST_ID if self.syn_rotate else src.device_id,
                      target.address, target.port,
                      self.target_device, self.group, self.base, self.per_rate, self.count)


class _FloodPump:
    """Every flood stream of a run, delivered from one scheduler entry.

    `parked` queues each stream's next arrival by the key its own heap
    entry would have, (time, origin, i, seq), with the seq the scheduler
    gave when the stream stopped (`Scheduler.reserve`).  The head always
    has a scheduler entry (`armed`); the others need none.  `_pump` is the
    one loop: the popped arrival runs as an event, then each next arrival
    of its stream due before anything else (before `inline_bound`'s `last`
    and before the next parked arrival's time) runs inline, and the first
    that is not parks the stream.  The pump then runs what the fan-out
    left for this instant (`Scheduler.run_ready`) and goes on with the new
    head as if it had popped, if that is due before anything else, or
    arms it.  So interleaved floods run in one call, in the order one heap
    entry per stream would give.  A unicast target's device ingests each
    arrival first; an ingested one takes a sequence number and goes to
    `Transport.arrive` without a `Packet`.  Group floods and targets with
    no device build one for `Transport.deliver`.

    A stream's ingested arrivals whose whole fate is a counter update run
    as segments: the pump hands the transport an index range of the
    stream's schedule, and the transport's segment function takes a
    prefix of it to the device in one call (`DeviceModel.ingest_span`)
    and accounts it.  Two answers give such a function, and each holds
    until another event runs.  `Transport.count_only` counts junk UDP and
    ICMP arrivals; the pump asks it the first time a stream goes on
    inline, again after its first routed arrival if that found no
    counter, and as soon as a stream parked while counting (`counting`)
    runs again, so a flood that other events cut into many runs routes no
    arrival after its first while the answer stands.
    `Transport.fresh_syns` takes the SYNs from new sources that the
    half-open table refuses, being full, or admits; the pump asks it
    whenever a unicast SYN stream starts to run, and offers each arrival
    of the stream that is not in a segment to the answer first, so the
    arrivals a segment leaves (one the engine fails open on, one whose
    source a table holds) take the per-packet path one at a time.  The
    SYN-ACKs of admitted SYNs, in a segment or not, are tallied events,
    which cut no inline run.
    Every arrival is still ingested and run as an event, so device
    counters, drop draws, state changes, collapse, `now`, `processed` and
    the event budget end as they would one arrival at a time.
    """

    def __init__(self, transport: Transport, scheduler: Scheduler):
        self.transport = transport
        self.scheduler = scheduler
        self.parked: list = []  # heap of (time, origin, i, seq, stream)

    def add(self, stream: _Stream) -> None:
        if stream.count:
            when, origin, parked = stream.base, stream.origin, self.parked
            if parked and parked[0][:3] <= (when, origin, 0):
                seq = self.scheduler.reserve()
            else:  # the new head
                stream.armed = True
                seq = self.scheduler.at_seq(when, self._pump, LANE_NET, (origin, 0))
            heappush(parked, (when, origin, 0, seq, stream))

    def _pump(self) -> None:
        """Deliver the head's packet `i` (due now) and each next packet of
        its stream `inline_bound` lets run inline (due at or before `last`,
        with events `left` in the budget) and due before the next parked
        arrival, moving `now` and `processed` as a popped entry would; park
        the stream at the first one it does not, then go on with the next
        head as above.  With a segment function, each arrival not yet
        delivered starts a segment of those, and one the function does not
        take goes alone.  A segment may start at packet `i` itself; the pop
        has counted it in `processed` already, so the budget allows it and
        `left` more."""
        transport, scheduler, parked = self.transport, self.scheduler, self.parked
        latency = transport.latency_us
        stream = heappop(parked)[4]
        stream.armed = False
        while True:
            (target, payload, proto, origin, base_src, source, view, src_id,
             dst_address, dst_port, dev, group, base, per_rate, count) = stream.fixed
            syn_rotate = source is not None
            i = stream.i
            cap = parked[0][0] if parked else _NEVER  # the next parked arrival's time
            if syn_rotate:
                span = None if dev is None else transport.fresh_syns(
                    dev, target, origin, base, per_rate, source)
            elif stream.counting:
                span = transport.count_only(dev, target, view, origin, base, per_rate)
            else:
                span = None
            if span is not None:
                last, left = scheduler.inline_bound()
                left += 1  # the popped arrival has run as an event already
            ask = span is None and dev is not None and not syn_rotate
            while True:
                if dev is not None and dev.down:
                    dev.bulk_unresponsive_drop(count - i)
                    last = None  # done: ask the scheduler afresh below
                    break
                # a segment of packet i (due now; a popped one may tie with the
                # heap head) and its successors due at or before `last` and
                # before `cap` (base + n * US // per_rate <= last), at most `left`
                if span is not None and (taken := span(i, min(count, i + left, max(
                        ((min(last, cap - 1) - base + 1) * per_rate - 1) // US + 1, i + 1)))):
                    i += taken
                    scheduler.now = base + (i - 1) * US // per_rate
                    scheduler.processed += taken - 1  # its first packet ran as an event already
                else:
                    now = scheduler.now
                    routed = dev is None or dev.ingest(now)
                    if routed:
                        if syn_rotate:
                            view = PacketView(proto, *source(i), dst_address, dst_port, payload)
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
                if i >= count:
                    last = None
                    break
                when = base + i * US // per_rate
                last, left = scheduler.inline_bound()
                if when > last or left < 1 or when >= cap:
                    stream.i, stream.counting = i, span is not None
                    if when < cap and not scheduler.ready:
                        # still the head, and no fan-out is left to run: arm it
                        stream.armed = True
                        seq = scheduler.at_seq(when, self._pump, LANE_NET, (origin, i))
                        heappush(parked, (when, origin, i, seq, stream))
                        return
                    heappush(parked, (when, origin, i, scheduler.reserve(), stream))
                    break
                scheduler.now = when
                scheduler.processed += 1
                if ask:
                    span = transport.count_only(dev, target, view, origin, base, per_rate)
                    ask = span is None and not routed
            if not parked:
                return
            if last is None or scheduler.ready:
                # run what the last arrival's fan-out left, then ask again
                scheduler.run_ready()
                last, left = scheduler.inline_bound()
            when, origin, i, seq, stream = parked[0]
            if stream.armed:
                return
            if when > last or left < 1:
                stream.armed = True
                scheduler.at_seq(when, self._pump, LANE_NET, (origin, i), seq)
                return
            heappop(parked)
            scheduler.now = when
            scheduler.processed += 1  # as its pop would


def schedule_flood(spec: AttackSpec, transport: Transport, scheduler: Scheduler,
                   base_address: int) -> list[DeviceModel]:
    """Create the attacker devices and add one stream per attacker to the
    run's pump, made by its first flood."""
    pump = transport.flood_pump
    if pump is None:
        pump = transport.flood_pump = _FloodPump(transport, scheduler)
    devices = []
    for j in range(spec.attacker_count):
        dev_id = spec.attacker_id if spec.attacker_count == 1 else f"{spec.attacker_id}.{j}"
        address = base_address + j
        dev = transport.devices.get(dev_id) or attacker_device(transport, dev_id, address)
        devices.append(dev)
        pump.add(_Stream(spec, j, Endpoint(dev_id, address, 40000 + j), transport))
    return devices
