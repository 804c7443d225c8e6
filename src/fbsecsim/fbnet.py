"""Event-driven function-block execution core.

Instances are black boxes: a deterministic transition function over
(fired event input, latched data inputs, internal state, virtual time).
Virtual time is measured in integer microseconds.  Event delivery within
one timestamp is FIFO; packet deliveries are sequenced on a separate lane
so simultaneous arrivals order by source id (see transport).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from .errors import (
    BehaviorFault,
    BindingError,
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
    """Per-dispatch context handed to behaviors: time plus host services."""

    __slots__ = ("now", "services")

    def __init__(self, now: int, services: dict):
        self.now = now
        self.services = services


class Scheduler:
    """Priority queue over (time, lane, key, seq); FIFO within equal keys."""

    def __init__(self, max_events: int = 100_000_000):
        self._heap: list = []
        self._seq = 0
        self.now = 0
        self.processed = 0
        self.max_events = max_events

    def at(self, time: int, fn: Callable[[], None], lane: int = LANE_FB, key: Any = "") -> None:
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        self._seq += 1
        heapq.heappush(self._heap, (time, lane, key, self._seq, fn))

    def after(self, delay: int, fn: Callable[[], None], lane: int = LANE_FB, key: Any = "") -> None:
        self.at(self.now + delay, fn, lane, key)

    def run_until(self, until: int) -> None:
        """Process queued entries in order until the queue drains or time passes `until`."""
        if until < self.now:
            raise ValueError("until precedes current virtual time")
        heap = self._heap
        while heap and heap[0][0] <= until:
            entry = heapq.heappop(heap)
            self.now = entry[0]
            self.processed += 1
            if self.processed > self.max_events:
                raise EventBudgetExceeded(f"more than {self.max_events} events processed")
            entry[4]()
        self.now = until

    def pending(self) -> int:
        return len(self._heap)


class Trace:
    """Ordered record of every dispatch and emission, exportable as text."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.entries: list[tuple] = []  # ("dispatch"|"emit", t, inst, port, value|None)

    def dispatch(self, t: int, inst: str, port: str) -> None:
        if self.enabled:
            self.entries.append(("dispatch", t, inst, port, None))

    def emit(self, t: int, inst: str, port: str, value: DataValue | None = None) -> None:
        if self.enabled:
            self.entries.append(("emit", t, inst, port, value))

    def lines(self):
        for kind, t, inst, port, value in self.entries:
            if value is None:
                yield f"t={t} {kind} {inst}.{port}"
            else:
                yield f"t={t} {kind} {inst}.{port} [{value.render()}]"


class FBInstance:
    """A typed function-block instance with an opaque behavior."""

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


@dataclass(frozen=True)
class Diagnostic:
    code: str
    detail: str


class _Plan:
    """What one (instance, event) dispatch needs, resolved from the wiring.

    `names` and `latches` list every data-in and its latch key; `sampled` pairs
    the latch key of each WITH input that has a writer with the writer's
    data-out key; `fanout` maps every declared event output to its
    destinations.
    """

    __slots__ = ("inst", "names", "latches", "sampled", "dout_variants", "fanout")

    def __init__(self, net: "FBNetwork", inst: FBInstance, port: PortSpec):
        inst_id = inst.id
        self.inst = inst
        self.names = tuple(inst.din_variants)
        self.latches = tuple((inst_id, name) for name in self.names)
        self.sampled = tuple(((inst_id, d), net.data_src[(inst_id, d)])
                             for d in port.associated_data if (inst_id, d) in net.data_src)
        self.dout_variants = inst.dout_variants
        self.fanout = {ev: tuple(net.event_conns.get((inst_id, ev), ()))
                       for ev in inst.by_kind[PortKind.EVENT_OUT]}


def _latch_error(inst: str, port: str, variant: Variant | None, kind: PortKind) -> Exception:
    """Why a latch write was refused: no such port, or the wrong variant."""
    if variant is None:
        return UnknownPortError(f"{inst}.{port} ({kind.value})")
    return VariantMismatchError(f"{inst}.{port} expects {variant.value}")


def _parse_ref(ref: str) -> tuple[str, str]:
    # Split on the last dot: composite-prefixed instance ids contain dots.
    inst, _, port = ref.rpartition(".")
    if not inst or not port:
        raise UnknownPortError(f"bad port reference {ref!r}, want 'Instance.PORT'")
    return inst, port


class FBNetwork:
    """Instances plus event/data connections, with deterministic dispatch."""

    def __init__(self, scheduler: Scheduler, trace: Trace | None = None,
                 name: str = "net", services: dict | None = None):
        self.name = name
        self.scheduler = scheduler
        self.trace = trace if trace is not None else Trace(enabled=False)
        self.services = services if services is not None else {}
        self.instances: dict[str, FBInstance] = {}
        self.event_conns: dict[tuple[str, str], list[tuple[str, str]]] = {}
        self.data_src: dict[tuple[str, str], tuple[str, str]] = {}
        self._din: dict[tuple[str, str], DataValue] = {}
        self._dout: dict[tuple[str, str], DataValue] = {}
        self.suspended: set[str] = set()
        self.suppressed = 0
        # host_down, when set, halts every dispatch on this network (dead PLC)
        self.host_down: Callable[[], bool] | None = None
        self.on_dispatch: Callable[[str, str, int], None] | None = None
        self.on_emit: Callable[[str, str, DataValue | None, int], None] | None = None
        # (instance, event) -> _Plan, resolved on first dispatch; add and
        # connect change the wiring a plan was resolved from, so they drop it
        self._plans: dict[tuple[str, str], _Plan] = {}

    # -- construction -----------------------------------------------------

    def add(self, instance: FBInstance) -> "FBNetwork":
        if instance.id in self.instances:
            raise DuplicateIdError(instance.id)
        self.instances[instance.id] = instance
        self._plans.clear()
        for p in instance.ports:
            if p.kind is PortKind.DATA_IN:
                self._din[(instance.id, p.name)] = zero(p.data_variant)
            elif p.kind is PortKind.DATA_OUT:
                self._dout[(instance.id, p.name)] = zero(p.data_variant)
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

    def validate(self) -> list[Diagnostic]:
        """Re-check every network invariant; empty list means well-formed."""
        out: list[Diagnostic] = []
        for (s_inst, s_port), dsts in self.event_conns.items():
            if s_inst not in self.instances or s_port not in self.instances[s_inst].by_kind[PortKind.EVENT_OUT]:
                out.append(Diagnostic("UnknownPort", f"{s_inst}.{s_port}"))
            for d_inst, d_port in dsts:
                if d_inst not in self.instances or d_port not in self.instances[d_inst].by_kind[PortKind.EVENT_IN]:
                    out.append(Diagnostic("UnknownPort", f"{d_inst}.{d_port}"))
        seen: set[tuple[str, str]] = set()
        for (d_inst, d_port), (s_inst, s_port) in self.data_src.items():
            if s_inst not in self.instances or s_port not in self.instances[s_inst].by_kind[PortKind.DATA_OUT]:
                out.append(Diagnostic("UnknownPort", f"{s_inst}.{s_port}"))
                continue
            if d_inst not in self.instances or d_port not in self.instances[d_inst].by_kind[PortKind.DATA_IN]:
                out.append(Diagnostic("UnknownPort", f"{d_inst}.{d_port}"))
                continue
            if (d_inst, d_port) in seen:
                out.append(Diagnostic("DataInAlreadyConnected", f"{d_inst}.{d_port}"))
            seen.add((d_inst, d_port))
            sv = self.instances[s_inst].by_kind[PortKind.DATA_OUT][s_port].data_variant
            dv = self.instances[d_inst].by_kind[PortKind.DATA_IN][d_port].data_variant
            if sv is not dv:
                out.append(Diagnostic("VariantMismatch", f"{s_inst}.{s_port} -> {d_inst}.{d_port}"))
        return out

    # -- latch access ------------------------------------------------------

    def set_data_in(self, inst: str, port: str, value: DataValue) -> None:
        variant = self.instances[inst].din_variants.get(port)
        if variant is not value.variant:
            raise _latch_error(inst, port, variant, PortKind.DATA_IN)
        self._din[(inst, port)] = value

    def set_data_out(self, inst: str, port: str, value: DataValue) -> None:
        """Service-side latch update (SIFBs surface service state this way)."""
        variant = self.instances[inst].dout_variants.get(port)
        if variant is not value.variant:
            raise _latch_error(inst, port, variant, PortKind.DATA_OUT)
        self._dout[(inst, port)] = value

    def data_out(self, inst: str, port: str) -> DataValue:
        return self._dout[(inst, port)]

    def data_in(self, inst: str, port: str) -> DataValue:
        return self._din[(inst, port)]

    # -- execution ---------------------------------------------------------

    def post(self, inst: str, event: str, delay: int = 0) -> None:
        self.scheduler.after(delay, lambda: self.dispatch(inst, event))

    def dispatch(self, inst_id: str, event: str) -> list[Emission]:
        """Run one event delivery: sample WITH data, run the behavior once,
        latch outputs, then enqueue downstream events in declaration order.

        A BehaviorFault leaves latches and state untouched.
        """
        if self.host_down is not None and self.host_down():
            self.suppressed += 1
            return []
        if inst_id in self.suspended:
            self.suppressed += 1
            return []
        plan = self._plans.get((inst_id, event))
        if plan is None:
            plan = self._plan(inst_id, event)
        inst = plan.inst
        now = self.scheduler.now
        self.trace.dispatch(now, inst_id, event)
        if self.on_dispatch is not None:
            self.on_dispatch(inst_id, event, now)

        # Sample associated data-ins into a staging copy; commit only on success.
        din = self._din
        dout = self._dout
        inputs = dict(zip(plan.names, map(din.__getitem__, plan.latches)))
        staged = [(key, dout[src]) for key, src in plan.sampled] if plan.sampled else ()
        for (_inst, name), value in staged:
            inputs[name] = value

        new_state, emissions = inst.behavior(Ctx(now, self.services), event, inputs, inst.state)

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
        din.update(staged)
        inst.state = new_state
        for ev, assigns in emissions:
            for name, value in assigns.items():
                dout[(inst_id, name)] = value
                self.trace.emit(now, inst_id, name, value)
                if self.on_emit is not None:
                    self.on_emit(inst_id, name, value, now)
        for ev, assigns in emissions:
            if ev is None:
                continue
            self.trace.emit(now, inst_id, ev)
            if self.on_emit is not None:
                self.on_emit(inst_id, ev, None, now)
            for d_inst, d_port in fanout[ev]:
                self.post(d_inst, d_port)
        return emissions

    def _plan(self, inst_id: str, event: str) -> _Plan:
        inst = self.instances.get(inst_id)
        if inst is None:
            raise UnknownPortError(f"{inst_id}.{event}")
        plan = self._plans[(inst_id, event)] = _Plan(self, inst, inst.port(event, PortKind.EVENT_IN))
        return plan


def run(network: FBNetwork, until: int) -> Trace:
    """Drain the network's scheduler up to `until` and return its trace."""
    network.scheduler.run_until(until)
    return network.trace


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


# -- composite blocks -------------------------------------------------------

@dataclass
class CompositeFB:
    """An interface over an interior network, flattened at instantiation.

    `build_interior` returns (instances, event_conns, data_conns) with
    interior-local ids; `bindings` maps each interface port name onto one
    interior (instance, port).
    """

    interface: list[PortSpec]
    build_interior: Callable[[], tuple[list[FBInstance], list[tuple[str, str]], list[tuple[str, str]]]]
    bindings: dict[str, tuple[str, str]]

    def instantiate(self, network: FBNetwork, name: str) -> dict[str, str]:
        """Add prefixed interior instances and return interface -> concrete refs."""
        instances, event_conns, data_conns = self.build_interior()
        by_id = {i.id: i for i in instances}
        iface_by_name = {p.name: p for p in self.interface}
        if len(iface_by_name) != len(self.interface):
            raise BindingError(f"{name}: duplicate interface port names")
        for pname, (b_inst, b_port) in self.bindings.items():
            if pname not in iface_by_name:
                raise BindingError(f"{name}: binding for unknown interface port {pname}")
            if b_inst not in by_id:
                raise BindingError(f"{name}: binding {pname} targets missing instance {b_inst}")
            spec = iface_by_name[pname]
            inner = by_id[b_inst].by_kind.get(spec.kind, {}).get(b_port)
            if inner is None:
                raise BindingError(f"{name}: {pname} bound to missing {b_inst}.{b_port} ({spec.kind.value})")
            if spec.data_variant is not inner.data_variant:
                raise BindingError(f"{name}: {pname} variant mismatch on {b_inst}.{b_port}")
        for p in self.interface:
            if p.name not in self.bindings:
                raise BindingError(f"{name}: interface port {p.name} is unbound")

        for inst in instances:
            inst.id = f"{name}.{inst.id}"
            network.add(inst)
        for src, dst in event_conns:
            s, sp = _parse_ref(src)
            d, dp = _parse_ref(dst)
            network.connect(f"{name}.{s}.{sp}", f"{name}.{d}.{dp}")
        for src, dst in data_conns:
            s, sp = _parse_ref(src)
            d, dp = _parse_ref(dst)
            network.connect(f"{name}.{s}.{sp}", f"{name}.{d}.{dp}")
        return {p: f"{name}.{inst}.{port}" for p, (inst, port) in self.bindings.items()}
