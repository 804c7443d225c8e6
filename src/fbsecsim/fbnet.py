"""Event-driven function-block execution core.

Instances are black boxes: a deterministic transition function over
(fired event input, latched data inputs, internal state, virtual time).
Virtual time is measured in integer microseconds.  Event delivery within
one timestamp is FIFO; packet deliveries are sequenced on a separate lane
so simultaneous arrivals order by source id (see transport).  An event
scheduled for the current instant with no lane or key (a fan-out, a post
with no delay) skips the heap: it waits in a FIFO that runs right after
any heap entry already queued for that instant and lane (see `Scheduler`).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterable

from .errors import (
    BehaviorFault,
    DataInConnectedError,
    DuplicateIdError,
    EventBudgetExceeded,
    KindMismatchError,
    UnknownPortError,
    VariantMismatchError,
)
from .values import DataValue, Variant, zero

# An emission is (event_out_name | None, {data_out_name: value}).
# event None latches data outputs without firing anything.
Emission = tuple[str | None, dict[str, DataValue]]
Behavior = Callable[["Ctx", str, dict[str, DataValue], Any], tuple[Any, list[Emission]]]

US = 1_000_000  # virtual microseconds per second

LANE_FB = 0
LANE_NET = 1


class PortKind(Enum):
    EVENT_IN = "event_in"
    EVENT_OUT = "event_out"
    DATA_IN = "data_in"
    DATA_OUT = "data_out"


@dataclass(frozen=True)
class PortSpec:
    name: str
    kind: PortKind
    data_variant: Variant | None = None
    associated_data: tuple[str, ...] = ()


class Ctx:
    """Context handed to behaviors: time plus host services.

    Each network makes one and sets `now` before every dispatch; a dispatch
    nested in a behavior runs at the same virtual instant, so `now` is still
    right when it returns.
    """

    __slots__ = ("now", "services")

    def __init__(self, now: int, services: dict):
        self.now = now
        self.services = services


class Scheduler:
    """Priority queue over (time, lane, key, seq); FIFO within equal keys.

    An entry `at` the current instant on LANE_FB with key "" goes to a
    FIFO, not the heap.  Its seq would be higher than that of any heap
    entry with the same (time, lane, key), which was pushed before `now`
    reached that time, and lower than that of any later one, which goes
    to the FIFO too; so `run_until` runs a heap head at (now, LANE_FB, "")
    first, then the FIFO, then everything else, in the sorted order.
    While the FIFO holds entries nothing runs inline (`inline_bound`).

    A tallied event (`tally`) is one whose whole effect is to be counted:
    once the run has passed its due time, it counts in `processed` and in
    `tallied`, and the budget may run out on it, at its own time.  Only
    the time of the event that exhausts the budget shows, so a tallied
    event needs no place among those due at the same instant, and no heap
    entry: `tallies` queues the due times, and the budget check compares
    `processed` with `max_events` less the tallied events queued, so it
    costs nothing more until the budget is nearly spent.
    """

    def __init__(self, max_events: int = 100_000_000):
        self._heap: list = []
        self.ready: deque = deque()  # the FIFO: entries at (now, LANE_FB, ""), in seq order
        self._seq = 0
        self.now = 0
        self.processed = 0
        self.max_events = max_events  # fixed once made: `_limit` follows it
        self._until = -1  # horizon of the run_until in progress; -1 outside one
        self.tallies: list[int] = []  # due times of tallied events not yet counted, in order
        self.tallied = 0  # tallied events counted so far
        self._limit = max_events  # max_events less the tallied events queued

    def at(self, time: int, fn: Callable[[], None], lane: int = LANE_FB, key: Any = "") -> None:
        if time <= self.now:
            if time < self.now:
                raise ValueError(f"cannot schedule at {time} before now={self.now}")
            if lane == LANE_FB and key == "":
                self.ready.append(fn)
                return
        self._seq += 1
        heapq.heappush(self._heap, (time, lane, key, self._seq, fn))

    def reserve(self) -> int:
        """The seq an entry `at`-ed now would take, for one that is queued
        elsewhere and may enter the heap later through `at_seq`."""
        self._seq += 1
        return self._seq

    def at_seq(self, time: int, fn: Callable[[], None], lane: int, key: Any,
               seq: int | None = None) -> int:
        """Push an entry on the heap with `seq` from `reserve`, so it sorts
        as if it had been `at`-ed when that was taken, or with a new seq;
        returns the seq."""
        if seq is None:
            self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (time, lane, key, seq, fn))
        return seq

    def inline_bound(self) -> tuple[int, int]:
        """(last, left) for a running entry that runs its successors inline
        instead of `at`-ing them: one due at or before `last` (the run_until
        horizon, or the heap head's time minus 1 if earlier; -1 outside a
        run_until; `now - 1` while the FIFO holds entries) is the next entry
        to run, and `left` more events fit the budget, with every tallied
        event still queued counted as if it fell due before them.  Having
        run n successors, the last at time t, the entry sets `now = t` and
        adds n to `processed`; the tallied events due by then count when
        the run passes on.  A successor due later, tying with the head, or
        past the budget is `at`-ed, so it pops in order and its pop trips
        the budget.  The FIFO is never drained here: an entry on LANE_FB
        may still `at` more of its own, which must queue behind it."""
        left = self._limit - self.processed
        if self.ready:
            return self.now - 1, left
        last = self._until
        heap = self._heap
        if heap:
            head = heap[0][0]
            if head <= last:
                last = head - 1
        return last, left

    def tally(self, times: Iterable[int]) -> None:
        """Queue tallied events due at `times`: in order, and none before
        `now` or the last one queued."""
        self._count_tally(self.now)  # the queue keeps only those still to come
        self.tallies.extend(times)
        self._limit = self.max_events - len(self.tallies)

    def _count_tally(self, time: int) -> None:
        """Count every tallied event due at or before `time`; if the budget
        runs out on one, raise at that one's time."""
        tallies = self.tallies
        n = bisect_right(tallies, time)
        left = self.max_events - self.processed  # the index of the one that would trip
        if left < n:
            self.now = tallies[left]
            n = left + 1
        del tallies[:n]
        self.processed += n
        self.tallied += min(n, left)
        if self.processed > self.max_events:
            raise EventBudgetExceeded(f"more than {self.max_events} events processed")
        self._limit = self.max_events - len(tallies)

    def _over_limit(self) -> None:
        """`processed`, which has just counted the event at `now`, passed
        `max_events` less the tallied events queued: count those due by now
        before it, and raise if the budget is spent."""
        self.processed -= 1
        self._count_tally(self.now)
        self.processed += 1
        if self.processed > self.max_events:
            raise EventBudgetExceeded(f"more than {self.max_events} events processed")

    def run_until(self, until: int) -> None:
        """Process queued entries in order until the queue drains or time passes `until`."""
        if until < self.now:
            raise ValueError("until precedes current virtual time")
        heap, ready = self._heap, self.ready
        self._until = until
        try:
            while True:
                if ready:
                    head = heap[0] if heap else None
                    if (head is not None and head[0] == self.now and head[1] == LANE_FB
                            and head[2] == ""):
                        fn = heapq.heappop(heap)[4]
                    else:
                        fn = ready.popleft()
                elif heap and heap[0][0] <= until:
                    entry = heapq.heappop(heap)
                    self.now = entry[0]
                    fn = entry[4]
                else:
                    break
                self.processed += 1
                if self.processed > self._limit:
                    self._over_limit()
                fn()
        finally:
            self._until = -1
        self._count_tally(until)
        self.now = until

    def run_ready(self) -> None:
        """Run the FIFO until it is empty, counting each entry as an event,
        as `run_until` would.  For a running LANE_NET entry about to run
        successors inline: entries it left in the FIFO would run next in
        any case."""
        ready = self.ready
        while ready:
            self.processed += 1
            if self.processed > self._limit:
                self._over_limit()
            ready.popleft()()

    def pending(self) -> int:
        return len(self._heap) + len(self.ready) + len(self.tallies)


class Trace:
    """Ordered record of every dispatch and emission, exportable as text."""

    def __init__(self):
        self.entries: list[tuple] = []  # ("dispatch"|"emit", t, inst, port, value|None)

    def dispatch(self, t: int, inst: str, port: str) -> None:
        self.entries.append(("dispatch", t, inst, port, None))

    def emit(self, t: int, inst: str, port: str, value: DataValue | None = None) -> None:
        self.entries.append(("emit", t, inst, port, value))

    def lines(self):
        for kind, t, inst, port, value in self.entries:
            if value is None:
                yield f"t={t} {kind} {inst}.{port}"
            else:
                yield f"t={t} {kind} {inst}.{port} [{value.render()}]"


class FBInstance:
    """A typed function-block instance with an opaque behavior; `din`/`dout`
    are its data latches (port name -> value), zeroed by `FBNetwork.add`."""

    def __init__(self, id: str, ports: list[PortSpec], behavior: Behavior, state: Any = None):
        self.id = id
        self.ports = list(ports)
        self.behavior = behavior
        self.state = state
        self.by_kind: dict[PortKind, dict[str, PortSpec]] = {k: {} for k in PortKind}
        for p in ports:
            bucket = self.by_kind[p.kind]
            if p.name in bucket:
                raise DuplicateIdError(f"{id}: duplicate {p.kind.value} port {p.name}")
            if p.kind in (PortKind.DATA_IN, PortKind.DATA_OUT) and p.data_variant is None:
                raise VariantMismatchError(f"{id}.{p.name}: data port needs a variant")
            bucket[p.name] = p
        for p in ports:
            if p.associated_data:
                if p.kind not in (PortKind.EVENT_IN, PortKind.EVENT_OUT):
                    raise UnknownPortError(f"{id}.{p.name}: only event ports carry WITH data")
                want = PortKind.DATA_IN if p.kind is PortKind.EVENT_IN else PortKind.DATA_OUT
                for d in p.associated_data:
                    if d not in self.by_kind[want]:
                        raise UnknownPortError(f"{id}.{p.name}: WITH references missing {d}")
        # name -> variant of each data port, for checks on the hot path
        self.din_variants = {n: p.data_variant for n, p in self.by_kind[PortKind.DATA_IN].items()}
        self.dout_variants = {n: p.data_variant for n, p in self.by_kind[PortKind.DATA_OUT].items()}

    def port(self, name: str, kind: PortKind) -> PortSpec:
        try:
            return self.by_kind[kind][name]
        except KeyError:
            raise UnknownPortError(f"{self.id}.{name} ({kind.value})") from None


class _Plan:
    """What one (instance, event) dispatch needs, resolved from the wiring.

    `sampled` holds (data-in name, writer's data-out latches, writer's port)
    for each WITH input that has a writer; `fanout` maps every declared event
    output to one zero-argument dispatch per destination.
    """

    __slots__ = ("inst", "sampled", "dout_variants", "fanout")

    def __init__(self, net: "FBNetwork", inst: FBInstance, port: PortSpec):
        inst_id = inst.id
        self.inst = inst
        self.sampled = tuple((d, net.instances[src[0]].dout, src[1])
                             for d in port.associated_data
                             if (src := net.data_src.get((inst_id, d))) is not None)
        self.dout_variants = inst.dout_variants
        self.fanout = {ev: tuple(lambda d=d, p=p: net.dispatch(d, p)
                                 for d, p in net.event_conns.get((inst_id, ev), ()))
                       for ev in inst.by_kind[PortKind.EVENT_OUT]}


def _latch_error(inst: str, port: str, variant: Variant | None, kind: PortKind) -> Exception:
    """Why a latch write was refused: no such port, or the wrong variant."""
    if variant is None:
        return UnknownPortError(f"{inst}.{port} ({kind.value})")
    return VariantMismatchError(f"{inst}.{port} expects {variant.value}")


def _parse_ref(ref: str) -> tuple[str, str]:
    # Split on the last dot: instance ids such as IDPS.SIFB contain dots.
    inst, _, port = ref.rpartition(".")
    if not inst or not port:
        raise UnknownPortError(f"bad port reference {ref!r}, want 'Instance.PORT'")
    return inst, port


class FBNetwork:
    """Instances plus event/data connections, with deterministic dispatch;
    a `trace`, when given, records every dispatch and emission."""

    def __init__(self, scheduler: Scheduler, trace: Trace | None = None,
                 name: str = "net", services: dict | None = None):
        self.name = name
        self.scheduler = scheduler
        self.trace = trace
        self.services = services if services is not None else {}
        self.instances: dict[str, FBInstance] = {}
        self.event_conns: dict[tuple[str, str], list[tuple[str, str]]] = {}
        self.data_src: dict[tuple[str, str], tuple[str, str]] = {}
        self.suspended: set[str] = set()
        self.suppressed = 0
        # the device this network runs on, if any: while its `down` flag is
        # set (a dead PLC), every dispatch is suppressed
        self.host = None
        # (instance, event) -> _Plan, resolved on first dispatch; add and
        # connect change what a plan was resolved from, so they drop it
        self._plans: dict[tuple[str, str], _Plan] = {}
        self._ctx = Ctx(0, self.services)

    # -- construction -----------------------------------------------------

    def add(self, instance: FBInstance) -> "FBNetwork":
        if instance.id in self.instances:
            raise DuplicateIdError(instance.id)
        self.instances[instance.id] = instance
        self._plans.clear()
        instance.din = {n: zero(v) for n, v in instance.din_variants.items()}
        instance.dout = {n: zero(v) for n, v in instance.dout_variants.items()}
        return self

    def connect(self, src: str, dst: str) -> "FBNetwork":
        s_inst, s_port = _parse_ref(src)
        d_inst, d_port = _parse_ref(dst)
        if s_inst not in self.instances:
            raise UnknownPortError(src)
        if d_inst not in self.instances:
            raise UnknownPortError(dst)
        si = self.instances[s_inst]
        di = self.instances[d_inst]
        s_ev = s_port in si.by_kind[PortKind.EVENT_OUT]
        s_da = s_port in si.by_kind[PortKind.DATA_OUT]
        d_ev = d_port in di.by_kind[PortKind.EVENT_IN]
        d_da = d_port in di.by_kind[PortKind.DATA_IN]
        if not (s_ev or s_da):
            raise UnknownPortError(f"{src} is not an event_out or data_out")
        if not (d_ev or d_da):
            raise UnknownPortError(f"{dst} is not an event_in or data_in")
        if s_ev and d_ev:
            self.event_conns.setdefault((s_inst, s_port), []).append((d_inst, d_port))
        elif s_da and d_da:
            sv = si.by_kind[PortKind.DATA_OUT][s_port].data_variant
            dv = di.by_kind[PortKind.DATA_IN][d_port].data_variant
            if sv is not dv:
                raise VariantMismatchError(f"{src} ({sv.value}) -> {dst} ({dv.value})")
            if (d_inst, d_port) in self.data_src:
                raise DataInConnectedError(dst)
            self.data_src[(d_inst, d_port)] = (s_inst, s_port)
        else:
            raise KindMismatchError(f"{src} -> {dst}")
        self._plans.clear()
        return self

    # -- latch access ------------------------------------------------------

    def set_data_in(self, inst: str, port: str, value: DataValue) -> None:
        instance = self.instances[inst]
        variant = instance.din_variants.get(port)
        if variant is not value.variant:
            raise _latch_error(inst, port, variant, PortKind.DATA_IN)
        instance.din[port] = value

    def set_data_out(self, inst: str, port: str, value: DataValue) -> None:
        """Service-side latch update (SIFBs surface service state this way)."""
        instance = self.instances[inst]
        variant = instance.dout_variants.get(port)
        if variant is not value.variant:
            raise _latch_error(inst, port, variant, PortKind.DATA_OUT)
        instance.dout[port] = value

    def data_out(self, inst: str, port: str) -> DataValue:
        return self.instances[inst].dout[port]

    def data_in(self, inst: str, port: str) -> DataValue:
        return self.instances[inst].din[port]

    # -- execution ---------------------------------------------------------

    def post(self, inst: str, event: str, delay: int = 0) -> None:
        self.scheduler.at(self.scheduler.now + delay, lambda: self.dispatch(inst, event))

    def dispatch(self, inst_id: str, event: str) -> list[Emission]:
        """Run one event delivery: sample WITH data, run the behavior once,
        latch outputs, then enqueue downstream events in declaration order.

        A BehaviorFault leaves latches and state untouched.
        """
        host = self.host
        if (host is not None and host.down) or inst_id in self.suspended:
            self.suppressed += 1
            return []
        plan = self._plans.get((inst_id, event))
        if plan is None:
            plan = self._plan(inst_id, event)
        inst = plan.inst
        now = self.scheduler.now
        trace = self.trace
        if trace is not None:
            trace.dispatch(now, inst_id, event)

        # Sample associated data-ins into a staging copy; commit only on success.
        sampled = plan.sampled
        inputs = inst.din.copy()
        if sampled:
            staged = [(name, dout[port]) for name, dout, port in sampled]
            inputs.update(staged)

        ctx = self._ctx
        ctx.now = now
        new_state, emissions = inst.behavior(ctx, event, inputs, inst.state)

        fanout = plan.fanout
        dout_variants = plan.dout_variants
        for ev, assigns in emissions:
            if ev is not None and ev not in fanout:
                raise BehaviorFault(f"{inst_id} emitted undeclared event {ev}")
            for name, value in assigns.items():
                variant = dout_variants.get(name)
                if variant is None:
                    raise BehaviorFault(f"{inst_id} assigned undeclared data output {name}")
                if variant is not value.variant:
                    raise BehaviorFault(f"{inst_id}.{name}: {value.variant.value} on {variant.value} port")

        # Commit: sampled inputs, state, then every data latch before any event.
        if sampled:
            inst.din.update(staged)
        inst.state = new_state
        dout = inst.dout
        for ev, assigns in emissions:
            for name, value in assigns.items():
                dout[name] = value
                if trace is not None:
                    trace.emit(now, inst_id, name, value)
        for ev, assigns in emissions:
            if ev is None:
                continue
            if trace is not None:
                trace.emit(now, inst_id, ev)
            for fire in fanout[ev]:
                self.scheduler.at(now, fire)
        return emissions

    def _plan(self, inst_id: str, event: str) -> _Plan:
        inst = self.instances.get(inst_id)
        if inst is None:
            raise UnknownPortError(f"{inst_id}.{event}")
        plan = self._plans[(inst_id, event)] = _Plan(self, inst, inst.port(event, PortKind.EVENT_IN))
        return plan


# -- standard blocks -------------------------------------------------------

def make_e_switch(id: str) -> FBInstance:
    """Standard event switch: EI routed to EO1 when G is true, else EO0."""

    def behavior(ctx, event, inputs, state):
        if inputs["G"].raw:
            return state, [("EO1", {})]
        return state, [("EO0", {})]

    ports = [
        PortSpec("EI", PortKind.EVENT_IN, associated_data=("G",)),
        PortSpec("G", PortKind.DATA_IN, Variant.BOOL),
        PortSpec("EO0", PortKind.EVENT_OUT),
        PortSpec("EO1", PortKind.EVENT_OUT),
    ]
    return FBInstance(id, ports, behavior)


def secure(net: FBNetwork, gates: dict[str, str], flag: str, gated: tuple[str, ...]) -> None:
    """Gate each critical event input, a key of `gates`, behind the E_SWITCH
    it names: every event connection into the input moves to the switch's
    EI, keeping its place in its source's fan-out, and EO0 drives the input.
    The data output `flag` feeds each switch's G and each `gated` data input.
    """
    for dst, gate in gates.items():
        net.add(make_e_switch(gate))
        target, ei = _parse_ref(dst), (gate, "EI")
        for dsts in net.event_conns.values():
            dsts[:] = [ei if d == target else d for d in dsts]
        # after the reroute, which would make this EO0->EI, a loop; connect
        # also drops every plan resolved before the pass
        net.connect(f"{gate}.EO0", dst)
    for guard in (*(f"{g}.G" for g in gates.values()), *gated):
        net.connect(flag, guard)
