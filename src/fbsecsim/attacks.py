"""Deterministic attack traffic generators.

Floods are perfectly periodic: packet n of an aggregate-rate-r flood is
due at start + floor(n * 1e6 / r) microseconds, and k attackers split the
stream round-robin with evenly spaced phase offsets, so every count in the
acceptance math is exact.  One pump per run holds every attacker's stream
and keeps one live event for them all (`_FloodPump`); once a unicast
target goes unresponsive the remainder is accounted in bulk since nothing
else could observe it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from heapq import heappop, heappush
from itertools import chain

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


def syn_sources(ghost_net: int, lo: int, hi: int, k: int = 1, j: int = 0
                ) -> tuple[list[int], list[int]]:
    """`syn_source` of SYNs lo..hi-1 (lo <= hi), as a list of their
    addresses and one of their ports, built from ranges between the points
    where they wrap.  Lists, so the tables a segment fills share the ints."""
    n = lo * k + j
    return (_steps(ghost_net + 1, n % 0xFFFE, 0xFFFE, k, hi - lo),
            _steps(1024, n % 60000, 60000, k, hi - lo))


def _steps(first: int, r: int, mod: int, k: int, count: int) -> list[int]:
    """first + (r + i * k) % mod for i in 0..count-1."""
    runs = []
    while count > 0:
        take = min(count, (mod - r - 1) // k + 1)  # steps before the residue wraps
        runs.append(range(first + r, first + r + take * k, k))
        r = (r + take * k) % mod
        count -= take
    return [*chain.from_iterable(runs)]


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
        self.armed = False  # its next arrival has the pump's heap entry
        syn_rotate = spec.kind is AttackKind.SYN_FLOOD
        # SYN i's claimed (address, port), from the attackers' /16 (`syn_source`),
        # and those of SYNs lo..hi-1 (`syn_sources`)
        self.source = self.sources = None
        if syn_rotate:
            ghost_net, k = src.address & 0xFFFF0000, spec.attacker_count
            self.source = partial(syn_source, ghost_net, k=k, j=attacker_index)
            self.sources = partial(syn_sources, ghost_net, k=k, j=attacker_index)
        # Views carry only the header and payload, which a non-rotating flood
        # never changes, so one view serves every packet and receiver.
        self.view = None if syn_rotate else Packet(
            self.proto, src, spec.target, spec.payload, 0, self.origin, 0).view()
        target = spec.target
        if isinstance(target, GroupAddress):
            self.group, self.target_device = target.address, None
        else:
            self.group, self.target_device = None, transport.devices.get(target.device_id)
        self.base = self.first + transport.latency_us  # packet 0's arrival
        # what `_FloodPump._pump` reads, in one tuple
        self.fixed = (target, spec.payload, self.proto, self.origin, src, self.source,
                      self.sources, self.view, GHOST_ID if syn_rotate else src.device_id,
                      target.address, target.port,
                      self.target_device, self.group, self.base, self.per_rate, self.count)


class _FloodPump:
    """Every flood stream of a run, delivered from one scheduler entry.

    `parked` queues each stream's next arrival by the key its own heap
    entry would have, (time, origin, i, seq), with the seq the scheduler
    gave when the stream stopped (`Scheduler.reserve`); only the head has
    a scheduler entry (`armed`).  `_pump` runs the popped arrival, then
    inline each next arrival of any stream that is due before anything
    else, with what their fan-out leaves for the same instant in between
    (`Scheduler.run_ready`).  A unicast target's device ingests each
    arrival first, and an ingested one goes to `Transport.arrive` without
    a `Packet`; group floods and targets with no device build one for
    `Transport.deliver`.

    Arrivals whose fate every layer can account in bulk run as segments
    (`Transport.segment`): a unicast stream asks for a segment function
    when it starts a run that may go on inline and, with no answer, again
    after each lone arrival until an ingested one has been routed.  The function takes a
    prefix of an index range of the stream in one call; an arrival it does
    not take goes alone.  Every arrival is still ingested and counted as an
    event, in the order one heap entry per arrival gives
    (`tests/test_attacks.py::TestCoalescing`, `TestMergedStreams`).
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
            (target, payload, proto, origin, base_src, source, sources, view, src_id,
             dst_address, dst_port, dev, group, base, per_rate, count) = stream.fixed
            i = stream.i
            cap = parked[0][0] if parked else _NEVER  # the next parked arrival's time
            # a unicast stream asks for a segment function as it starts a run
            # that may go on inline (its next arrival is due before any other
            # stream's) and, with no answer, after each lone arrival until one
            # is routed
            span = None
            if dev is not None and base + (i + 1) * US // per_rate < cap:
                span = transport.segment(dev, target, origin, base, per_rate, view, sources)
            unrouted = span is None and dev is not None
            if span is not None:
                last, left = scheduler.inline_bound()
                left += 1  # the popped arrival has run as an event already
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
                        if source is not None:
                            view = PacketView(proto, *source(i), dst_address, dst_port, payload)
                        if dev is not None:
                            # as `send` would: later (origin, seq) heap keys order by it
                            transport.next_seq()
                            transport.arrive(dev, origin, src_id, view, target, now)
                        else:
                            src = Endpoint(GHOST_ID, view.src_address, view.src_port) \
                                if source is not None else base_src
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
                    stream.i = i
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
                if unrouted:
                    span = transport.segment(dev, target, origin, base, per_rate, view, sources)
                    unrouted = span is None and not routed
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
