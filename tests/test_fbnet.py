"""Function-block core: construction, dispatch semantics, determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsecsim.errors import (
    BehaviorFault,
    DataInConnectedError,
    DuplicateIdError,
    EventBudgetExceeded,
    KindMismatchError,
    UnknownPortError,
    VariantMismatchError,
)
from fbsecsim.fbnet import (
    LANE_FB,
    LANE_NET,
    FBInstance,
    FBNetwork,
    PortKind,
    PortSpec,
    Scheduler,
    Trace,
    make_e_switch,
    secure,
)
from fbsecsim.values import TRUE, Bool, Int, Variant


def passthrough(ctx, event, inputs, state):
    return state, []


def make_block(id, out_variant=Variant.BOOL):
    ports = [
        PortSpec("EI", PortKind.EVENT_IN, associated_data=("DI",)),
        PortSpec("DI", PortKind.DATA_IN, Variant.BOOL),
        PortSpec("EO", PortKind.EVENT_OUT, associated_data=("DO",)),
        PortSpec("DO", PortKind.DATA_OUT, out_variant),
    ]

    def behavior(ctx, event, inputs, state):
        return state, [("EO", {"DO": inputs["DI"] if out_variant is Variant.BOOL else Int(1)})]

    return FBInstance(id, ports, behavior)


def fresh_net():
    sched = Scheduler()
    return FBNetwork(sched, Trace()), sched


class TestConstruction:
    def test_add_into_empty(self):
        net, _ = fresh_net()
        net.add(make_block("ThrustCtl"))
        assert len(net.instances) == 1

    def test_duplicate_id_rejected(self):
        net, _ = fresh_net()
        net.add(make_block("ThrustCtl"))
        with pytest.raises(DuplicateIdError):
            net.add(make_block("ThrustCtl"))

    def test_two_instances_no_connections(self):
        net, _ = fresh_net()
        net.add(make_block("ThrustCtl")).add(make_block("LiftCtl"))
        assert len(net.instances) == 2
        assert not net.event_conns and not net.data_src

    def test_connect_bool_data(self):
        net, _ = fresh_net()
        net.add(make_block("A")).add(make_block("B"))
        net.connect("A.DO", "B.DI")
        assert net.data_src[("B", "DI")] == ("A", "DO")

    def test_connect_event_to_data_is_kind_mismatch(self):
        net, _ = fresh_net()
        net.add(make_block("A")).add(make_block("B"))
        with pytest.raises(KindMismatchError):
            net.connect("A.EO", "B.DI")

    def test_second_writer_rejected(self):
        net, _ = fresh_net()
        net.add(make_block("A")).add(make_block("B")).add(make_block("C"))
        net.connect("A.DO", "C.DI")
        with pytest.raises(DataInConnectedError):
            net.connect("B.DO", "C.DI")

    def test_variant_mismatch(self):
        net, _ = fresh_net()
        net.add(make_block("A", out_variant=Variant.INT)).add(make_block("B"))
        with pytest.raises(VariantMismatchError):
            net.connect("A.DO", "B.DI")

    def test_unknown_port(self):
        net, _ = fresh_net()
        net.add(make_block("A"))
        with pytest.raises(UnknownPortError):
            net.connect("A.NOPE", "A.DI")
        with pytest.raises(UnknownPortError):
            net.connect("Ghost.DO", "A.DI")


class TestValidate:
    """connect is the one wiring check: the application graph builds clean,
    and each bad wire into it is refused when it is made."""

    def build_app_shape(self):
        """The two-controller application graph, stub behaviors."""
        net, _ = fresh_net()
        from fbsecsim.control import make_ix, make_liftctl, make_thrustctl
        net.add(make_ix("IX_BoxTop")).add(make_ix("IX_Cyl1End")).add(make_ix("IX_Box"))
        net.add(make_thrustctl("ThrustCtl")).add(make_liftctl("LiftCtl"))
        net.connect("IX_BoxTop.IND", "ThrustCtl.BOXTOP").connect("IX_BoxTop.Q", "ThrustCtl.BOXQ")
        net.connect("IX_Cyl1End.IND", "ThrustCtl.CYLEND").connect("IX_Cyl1End.Q", "ThrustCtl.ENDQ")
        net.connect("IX_Box.IND", "LiftCtl.BOX").connect("IX_Box.Q", "LiftCtl.BOXQ")
        # shared value path wired directly for shape purposes
        net.connect("ThrustCtl.SV", "LiftCtl.SV")
        net.connect("ThrustCtl.SEND", "LiftCtl.REQ")
        return net

    def test_well_formed_app_graph_is_clean(self):
        net = self.build_app_shape()
        assert len(net.data_src) == 4
        for (d_inst, d_port), (s_inst, s_port) in net.data_src.items():
            dst = {p.name: p for p in net.instances[d_inst].ports}[d_port]
            src = {p.name: p for p in net.instances[s_inst].ports}[s_port]
            assert dst.kind is PortKind.DATA_IN and src.kind is PortKind.DATA_OUT
            assert dst.data_variant is src.data_variant

    def test_dangling_connection_reported(self):
        net = self.build_app_shape()
        with pytest.raises(UnknownPortError):
            net.connect("IX_Ghost.Q", "LiftCtl.BOXQ")
        with pytest.raises(UnknownPortError):
            net.connect("ThrustCtl.SEND", "Ghost.REQ")

    def test_variant_violation_reported(self):
        net = self.build_app_shape()
        with pytest.raises(VariantMismatchError):
            net.connect("ThrustCtl.CMD", "LiftCtl.SV")
        assert net.data_src[("LiftCtl", "SV")] == ("ThrustCtl", "SV")

    def test_double_writer_reported(self):
        net = self.build_app_shape()
        with pytest.raises(DataInConnectedError):
            net.connect("IX_BoxTop.Q", "LiftCtl.BOXQ")
        assert net.data_src[("LiftCtl", "BOXQ")] == ("IX_Box", "Q")


class TestESwitch:
    @pytest.mark.parametrize("guard,fired,silent", [
        (True, "EO1", "EO0"),
        (False, "EO0", "EO1"),
    ])
    def test_exclusive_routing(self, guard, fired, silent):
        net, sched = fresh_net()
        sw = make_e_switch("SW")
        net.add(sw)
        hits = []
        sink = FBInstance("Sink", [
            PortSpec("H1", PortKind.EVENT_IN),
            PortSpec("H0", PortKind.EVENT_IN),
        ], lambda ctx, ev, i, s: (hits.append(ev) or s, []))
        net.add(sink)
        net.connect("SW.EO1", "Sink.H1")
        net.connect("SW.EO0", "Sink.H0")
        net.set_data_in("SW", "G", Bool(guard))
        net.dispatch("SW", "EI")
        sched.run_until(0)
        assert hits == ["H1" if fired == "EO1" else "H0"]

    def test_every_dispatch_fires_exactly_one_output(self):
        net, sched = fresh_net()
        net.add(make_e_switch("SW"))
        for guard in (True, False, True):
            net.set_data_in("SW", "G", Bool(guard))
            emissions = net.dispatch("SW", "EI")
            fired = [e for e, _ in emissions if e]
            assert len(fired) == 1
            assert fired[0] == ("EO1" if guard else "EO0")


@st.composite
def annotated_nets(draw):
    """Event wiring from sources S<i> (GO in, O0/O1 out) into sinks D<j>
    (I0..I2 in, a Bool GATE data input), an annotation of critical sink
    inputs and gated GATE inputs.  S0.O0 always fans out to both a
    critical and a non-critical input."""
    sources = [f"S{i}" for i in range(draw(st.integers(1, 3)))]
    sinks = [f"D{j}" for j in range(draw(st.integers(1, 3)))]
    inputs = [f"{d}.I{k}" for d in sinks for k in range(3)]
    crit, plain = draw(st.permutations(inputs))[:2]
    critical = {crit} | set(draw(st.lists(st.sampled_from(inputs), max_size=4))) - {plain}
    conns = [("S0.O0", d) for d in draw(st.permutations([crit, plain]))]
    outputs = [f"{s}.O{k}" for s in sources for k in (0, 1)]
    conns += draw(st.lists(st.tuples(st.sampled_from(outputs), st.sampled_from(inputs)),
                           max_size=10))
    gated = tuple(draw(st.lists(st.sampled_from([f"{d}.GATE" for d in sinks]), unique=True)))
    gates = {c: "GATE_" + c.replace(".", "_") for c in sorted(critical)}
    return sources, sinks, conns, gates, gated


class TestSecure:
    """`secure` reroutes every event connection into a critical input
    through a gate guarded by the flag, and changes nothing else."""

    @staticmethod
    def build(sources, sinks, conns):
        net, sched = fresh_net()
        fire = lambda ctx, ev, i, s: (s, [("O0", {}), ("O1", {})])
        for s in sources:
            net.add(FBInstance(s, [PortSpec("GO", PortKind.EVENT_IN),
                                   PortSpec("O0", PortKind.EVENT_OUT),
                                   PortSpec("O1", PortKind.EVENT_OUT)], fire))
        for d in sinks:
            net.add(FBInstance(d, [*(PortSpec(f"I{k}", PortKind.EVENT_IN) for k in range(3)),
                                   PortSpec("GATE", PortKind.DATA_IN, Variant.BOOL)], passthrough))
        net.add(FBInstance("F", [PortSpec("Q", PortKind.DATA_OUT, Variant.BOOL)], passthrough))
        for src, dst in conns:
            net.connect(src, dst)
        return net, sched

    @staticmethod
    def fire_sources(net, sched, sources):
        """Dispatch every source's GO; return the dispatches this makes."""
        start = len(net.trace.entries)
        for s in sources:
            net.dispatch(s, "GO")
        sched.run_until(sched.now)
        return [(inst, port) for kind, _, inst, port, _ in net.trace.entries[start:]
                if kind == "dispatch"]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(annotated_nets())
    def test_gates_every_path_into_a_critical_input(self, case):
        sources, sinks, conns, gates, gated = case
        net, sched = self.build(sources, sinks, conns)
        before = {k: list(v) for k, v in net.event_conns.items()}
        direct = self.fire_sources(net, sched, sources)  # caches every plan
        secure(net, gates, "F.Q", gated)

        def rerouted(ref):
            return (gates[f"{ref[0]}.{ref[1]}"], "EI") if f"{ref[0]}.{ref[1]}" in gates else ref

        # every source keeps its fan-out, in order, with critical inputs
        # swapped for their gates; the gates' EO0 are the only new sources
        assert {k: net.event_conns[k] for k in before} == {
            k: [rerouted(d) for d in v] for k, v in before.items()}
        assert {k: v for k, v in net.event_conns.items() if k not in before} == {
            (gate, "EO0"): [tuple(dst.split("."))] for dst, gate in gates.items()}
        for src, dsts in net.event_conns.items():
            for d in dsts:
                if f"{d[0]}.{d[1]}" in gates:
                    gate = gates[f"{d[0]}.{d[1]}"]
                    assert src == (gate, "EO0")
                    assert [p.name for p in net.instances[gate].ports] == ["EI", "G", "EO0", "EO1"]
                    assert net.data_src[(gate, "G")] == ("F", "Q")
        for d in sinks:
            assert net.data_src.get((d, "GATE")) == (("F", "Q") if f"{d}.GATE" in gated else None)

        # plans cached before the pass are gone: with the flag true no
        # event reaches a critical input, and with it false all of them do
        net.set_data_out("F", "Q", TRUE)
        assert self.fire_sources(net, sched, sources) == [rerouted(d) for d in direct]
        net.set_data_out("F", "Q", Bool(False))
        passed = self.fire_sources(net, sched, sources)
        reached = sorted(d for d in passed if d[0] in sinks)
        assert reached == sorted(d for d in direct if d[0] in sinks)


class TestDispatch:
    def test_behavior_fault_rolls_back(self):
        net, _ = fresh_net()

        def bad(ctx, event, inputs, state):
            return state + 1, [("GHOST", {})]

        inst = FBInstance("X", [
            PortSpec("EI", PortKind.EVENT_IN, associated_data=("DI",)),
            PortSpec("DI", PortKind.DATA_IN, Variant.BOOL),
            PortSpec("EO", PortKind.EVENT_OUT),
        ], bad, state=0)
        net.add(inst)
        src = make_block("SRC")
        net.add(src)
        net.connect("SRC.DO", "X.DI")
        net.set_data_out("SRC", "DO", Bool(True))
        with pytest.raises(BehaviorFault):
            net.dispatch("X", "EI")
        assert inst.state == 0
        assert net.data_in("X", "DI") == Bool(False)  # sample not committed

    def test_bad_assignment_variant_is_fault(self):
        net, _ = fresh_net()

        def bad(ctx, event, inputs, state):
            return state, [("EO", {"DO": Int(3)})]

        inst = FBInstance("X", [
            PortSpec("EI", PortKind.EVENT_IN),
            PortSpec("EO", PortKind.EVENT_OUT),
            PortSpec("DO", PortKind.DATA_OUT, Variant.BOOL),
        ], bad)
        net.add(inst)
        with pytest.raises(BehaviorFault):
            net.dispatch("X", "EI")
        assert net.data_out("X", "DO") == Bool(False)

    def test_fanout_delivery_in_declaration_order(self):
        net, sched = fresh_net()
        order = []
        src = make_block("SRC")
        net.add(src)
        for name in ("Third", "First", "Second"):
            net.add(FBInstance(name, [PortSpec("EI", PortKind.EVENT_IN)],
                               lambda ctx, ev, i, s, n=name: (order.append(n) or s, [])))
        net.connect("SRC.EO", "First.EI")
        net.connect("SRC.EO", "Second.EI")
        net.connect("SRC.EO", "Third.EI")
        net.dispatch("SRC", "EI")
        sched.run_until(0)
        assert order == ["First", "Second", "Third"]

    def test_data_latched_before_downstream_event(self):
        net, sched = fresh_net()
        seen = []
        a = make_block("A")
        b = FBInstance("B", [
            PortSpec("EI", PortKind.EVENT_IN, associated_data=("DI",)),
            PortSpec("DI", PortKind.DATA_IN, Variant.BOOL),
        ], lambda ctx, ev, inputs, s: (seen.append(inputs["DI"].raw) or s, []))
        net.add(a).add(b)
        net.connect("A.EO", "B.EI")
        net.connect("A.DO", "B.DI")
        net.set_data_in("A", "DI", Bool(True))
        net.dispatch("A", "EI")
        sched.run_until(0)
        assert seen == [True]


class TestRun:
    def test_empty_queue_empty_trace(self):
        net, sched = fresh_net()
        sched.run_until(10)
        trace = net.trace
        assert trace.entries == []
        assert sched.now == 10

    def test_single_event_at_t5(self):
        net, sched = fresh_net()
        net.add(make_block("A"))
        sched.at(5, lambda: net.dispatch("A", "EI"))
        sched.run_until(10)
        trace = net.trace
        dispatches = [e for e in trace.entries if e[0] == "dispatch"]
        assert len(dispatches) == 1 and dispatches[0][1] == 5

    def test_fifo_within_same_time(self):
        net, sched = fresh_net()
        order = []
        for name in ("A", "B"):
            net.add(FBInstance(name, [PortSpec("EI", PortKind.EVENT_IN)],
                               lambda ctx, ev, i, s, n=name: (order.append(n) or s, [])))
        sched.at(5, lambda: net.dispatch("A", "EI"))
        sched.at(5, lambda: net.dispatch("B", "EI"))
        sched.run_until(10)
        assert order == ["A", "B"]

    def test_events_beyond_until_stay_queued(self):
        net, sched = fresh_net()
        net.add(make_block("A"))
        sched.at(15, lambda: net.dispatch("A", "EI"))
        sched.run_until(10)
        trace = net.trace
        assert trace.entries == []
        assert sched.pending() == 1

    def test_trace_monotonic_timestamps(self):
        net, sched = fresh_net()
        net.add(make_block("A"))
        for t in (3, 1, 7, 7, 2):
            sched.at(t, lambda: net.dispatch("A", "EI"))
        sched.run_until(10)
        trace = net.trace
        times = [e[1] for e in trace.entries]
        assert times == sorted(times)


class TestRunFaults:
    def test_fault_propagates_with_trace_up_to_fault(self):
        net, sched = fresh_net()
        net.add(make_block("OK"))
        net.add(FBInstance("BAD", [PortSpec("EI", PortKind.EVENT_IN)],
                           lambda ctx, ev, i, s: (s, [("GHOST", {})])))
        sched.at(1, lambda: net.dispatch("OK", "EI"))
        sched.at(2, lambda: net.dispatch("BAD", "EI"))
        sched.at(3, lambda: net.dispatch("OK", "EI"))
        with pytest.raises(BehaviorFault):
            sched.run_until(10)
        times = [e[1] for e in net.trace.entries]
        assert 1 in times and 2 in times and 3 not in times

    def test_runaway_same_time_loop_hits_event_budget(self):
        sched = Scheduler(max_events=1_000)
        net = FBNetwork(sched)
        for name, peer in (("A", "B"), ("B", "A")):
            net.add(FBInstance(name, [
                PortSpec("EI", PortKind.EVENT_IN),
                PortSpec("EO", PortKind.EVENT_OUT),
            ], lambda ctx, ev, i, s: (s, [("EO", {})])))
        net.connect("A.EO", "B.EI")
        net.connect("B.EO", "A.EI")
        net.dispatch("A", "EI")
        with pytest.raises(EventBudgetExceeded):
            sched.run_until(1)


class TestDeterminism:
    def build_and_run(self):
        net, sched = fresh_net()
        net.add(make_e_switch("SW")).add(make_block("A"))
        net.connect("SW.EO1", "A.EI")
        net.set_data_in("SW", "G", Bool(True))
        net.set_data_in("A", "DI", Bool(True))
        for t in (5, 5, 9):
            sched.at(t, lambda: net.dispatch("SW", "EI"))
        sched.run_until(20)
        return list(net.trace.lines())

    def test_identical_runs_identical_traces(self):
        assert self.build_and_run() == self.build_and_run()

    def test_trace_line_format(self):
        lines = self.build_and_run()
        assert lines[0] == "t=5 dispatch SW.EI"
        assert any(line.startswith("t=5 emit SW.EO1") for line in lines)
        assert any("[true]" in line for line in lines)


class TestPlanCache:
    """Dispatch resolves a plan per (instance, event) once; wiring changes drop it."""

    def sink(self, id, hits):
        return FBInstance(id, [PortSpec("EI", PortKind.EVENT_IN)],
                          lambda ctx, ev, i, s: (hits.append(id) or s, []))

    def test_connect_after_first_dispatch_changes_fanout(self):
        net, sched = fresh_net()
        hits = []
        net.add(make_block("A")).add(self.sink("Sink", hits))
        net.dispatch("A", "EI")
        sched.run_until(0)
        assert hits == []
        net.connect("A.EO", "Sink.EI")
        net.dispatch("A", "EI")
        sched.run_until(0)
        assert hits == ["Sink"]

    def test_data_connect_after_first_dispatch_changes_sample(self):
        net, _ = fresh_net()
        net.add(make_block("SRC")).add(make_block("B"))
        net.dispatch("B", "EI")
        assert net.data_out("B", "DO") == Bool(False)
        net.connect("SRC.DO", "B.DI")
        net.set_data_out("SRC", "DO", Bool(True))
        net.dispatch("B", "EI")
        assert net.data_in("B", "DI") == Bool(True)
        assert net.data_out("B", "DO") == Bool(True)

    def test_add_after_first_dispatch_is_reachable(self):
        net, sched = fresh_net()
        hits = []
        net.add(make_block("A"))
        net.dispatch("A", "EI")
        net.add(self.sink("Late", hits))
        net.dispatch("Late", "EI")
        assert hits == ["Late"]
        net.connect("A.EO", "Late.EI")
        net.dispatch("A", "EI")
        sched.run_until(0)
        assert hits == ["Late", "Late"]

    def test_unknown_event_not_cached(self):
        net, _ = fresh_net()
        net.add(make_block("A"))
        for _ in range(2):
            with pytest.raises(UnknownPortError):
                net.dispatch("A", "NOPE")
            with pytest.raises(UnknownPortError):
                net.dispatch("Ghost", "EI")

    @pytest.mark.parametrize("second", [
        [("GHOST", {})],
        [("EO", {"NOPE": Bool(True)})],
        [("EO", {"DO": Int(1)})],
    ])
    def test_fault_on_cached_plan_rolls_back(self, second):
        net, _ = fresh_net()

        def flaky(ctx, event, inputs, state):
            if state == 0:
                return 1, [("EO", {"DO": inputs["DI"]})]
            return state + 1, second

        inst = FBInstance("X", [
            PortSpec("EI", PortKind.EVENT_IN, associated_data=("DI",)),
            PortSpec("DI", PortKind.DATA_IN, Variant.BOOL),
            PortSpec("EO", PortKind.EVENT_OUT, associated_data=("DO",)),
            PortSpec("DO", PortKind.DATA_OUT, Variant.BOOL),
        ], flaky, state=0)
        net.add(inst).add(make_block("SRC"))
        net.connect("SRC.DO", "X.DI")
        net.dispatch("X", "EI")
        net.set_data_out("SRC", "DO", Bool(True))
        with pytest.raises(BehaviorFault):
            net.dispatch("X", "EI")
        assert inst.state == 1
        assert net.data_in("X", "DI") == Bool(False)
        assert net.data_out("X", "DO") == Bool(False)

    @pytest.mark.parametrize("fresh", [
        [("GHOST", {})],
        [("EO", {"NOPE": Bool(True)})],
        [("EO", {"DO": Int(1)})],
    ])
    def test_a_fresh_list_after_a_reused_one_is_checked(self, fresh):
        """A list returned again is checked once; a new list after it is
        checked, and its fault commits nothing."""
        net, _ = fresh_net()
        reused = [("EO", {"DO": TRUE})]

        def behavior(ctx, event, inputs, state):
            return state + 1, reused if state < 2 else fresh

        inst = FBInstance("X", [
            PortSpec("EI", PortKind.EVENT_IN, associated_data=("DI",)),
            PortSpec("DI", PortKind.DATA_IN, Variant.BOOL),
            PortSpec("EO", PortKind.EVENT_OUT, associated_data=("DO",)),
            PortSpec("DO", PortKind.DATA_OUT, Variant.BOOL),
        ], behavior, state=0)
        net.add(inst).add(make_block("SRC"))
        net.connect("SRC.DO", "X.DI")
        assert net.dispatch("X", "EI") is net.dispatch("X", "EI") is reused
        net.set_data_out("SRC", "DO", Bool(True))
        with pytest.raises(BehaviorFault):
            net.dispatch("X", "EI")
        assert inst.state == 2
        assert net.data_in("X", "DI") == Bool(False)
        assert net.data_out("X", "DO") == TRUE

    def test_a_reused_list_traces_as_fresh_lists_do(self):
        """The same list object, dispatched with the trace on and off in
        turn, writes the entries that an equal new list each time writes."""
        traces = []
        for reuse in (True, False):
            net, sched = fresh_net()
            trace = net.trace
            reused = [(None, {"DO": TRUE}), ("EO", {})]
            net.add(FBInstance("X", [
                PortSpec("EI", PortKind.EVENT_IN),
                PortSpec("EO", PortKind.EVENT_OUT),
                PortSpec("DO", PortKind.DATA_OUT, Variant.BOOL),
            ], lambda ctx, ev, i, s: (s, reused if reuse else [(None, {"DO": TRUE}), ("EO", {})])))
            for t, traced in enumerate([False, True, False, True, True]):
                sched.run_until(t)
                net.trace = trace if traced else None
                net.dispatch("X", "EI")
            traces.append(trace.entries)
        assert traces[0] == traces[1] and len(traces[0]) == 9

    def test_latch_setters_check_port_and_variant(self):
        net, _ = fresh_net()
        net.add(make_block("A"))
        net.dispatch("A", "EI")
        for setter in (net.set_data_in, net.set_data_out):
            with pytest.raises(UnknownPortError):
                setter("A", "NOPE", Bool(True))
            with pytest.raises(UnknownPortError):
                setter("A", "EI", Bool(True))
        with pytest.raises(UnknownPortError):
            net.set_data_in("A", "DO", Bool(True))
        with pytest.raises(UnknownPortError):
            net.set_data_out("A", "DI", Bool(True))
        with pytest.raises(VariantMismatchError):
            net.set_data_in("A", "DI", Int(1))
        with pytest.raises(VariantMismatchError):
            net.set_data_out("A", "DO", Int(1))
        assert net.data_in("A", "DI") == Bool(False)
        assert net.data_out("A", "DO") == Bool(False)


class TestFanout:
    def sink(self, id, hits):
        return FBInstance(id, [PortSpec("EI", PortKind.EVENT_IN)],
                          lambda ctx, ev, i, s: (hits.append(id) or s, []))

    def test_fanout_runs_in_post_order(self):
        """Wired fan-out queues exactly what posting each destination in
        connection order would: same order, same entries, same count."""
        runs = []
        for wired in (True, False):
            net, sched = fresh_net()
            hits = []
            net.add(make_block("A"))
            for id in ("W", "X", "Y", "Z", "V"):
                net.add(self.sink(id, hits))
            if wired:
                for id in ("Y", "X", "Z"):
                    net.connect("A.EO", f"{id}.EI")
            net.post("W", "EI")
            net.dispatch("A", "EI")
            if not wired:
                for id in ("Y", "X", "Z"):
                    net.post(id, "EI")
            net.post("V", "EI")
            pending = sched.pending()
            sched.run_until(0)
            runs.append((hits, pending, sched.processed))
        assert runs[0] == runs[1]
        assert runs[0][0] == ["W", "Y", "X", "Z", "V"]


class TestLatches:
    """Data latches live on each instance; plans and contexts are reused."""

    def test_equal_port_names_keep_separate_latches(self):
        net, _ = fresh_net()
        net.add(make_block("A")).add(make_block("B"))
        net.set_data_in("A", "DI", Bool(True))
        assert net.data_in("B", "DI") == Bool(False)
        net.dispatch("A", "EI")
        net.dispatch("B", "EI")
        assert net.data_out("A", "DO") == Bool(True)
        assert net.data_out("B", "DO") == Bool(False)
        net.set_data_out("B", "DO", Bool(True))
        net.set_data_out("A", "DO", Bool(False))
        assert net.data_out("B", "DO") == Bool(True)

    def test_cached_plan_samples_the_newest_writer_value(self):
        net, _ = fresh_net()
        seen = []
        net.add(make_block("SRC")).add(FBInstance("X", [
            PortSpec("EI", PortKind.EVENT_IN, associated_data=("DI",)),
            PortSpec("DI", PortKind.DATA_IN, Variant.BOOL),
        ], lambda ctx, ev, inputs, s: (seen.append(inputs["DI"].raw) or s, [])))
        net.connect("SRC.DO", "X.DI")
        net.dispatch("X", "EI")                  # resolves and caches the plan
        net.set_data_out("SRC", "DO", Bool(True))
        net.dispatch("X", "EI")
        net.set_data_in("SRC", "DI", Bool(False))
        net.dispatch("SRC", "EI")                # the writer latches DO itself
        net.dispatch("X", "EI")
        assert seen == [False, True, False]
        assert net.data_in("X", "DI") == Bool(False)

    def test_ctx_reads_scheduler_time_on_every_dispatch(self):
        net, sched = fresh_net()
        seen = []

        def outer(ctx, event, inputs, state):
            before = ctx.now
            net.dispatch("Inner", "EI")          # nested, same instant
            seen.append(("outer", before, ctx.now, sched.now))
            return state, []

        def inner(ctx, event, inputs, state):
            seen.append(("inner", ctx.now, ctx.now, sched.now))
            return state, []

        net.add(FBInstance("Outer", [PortSpec("EI", PortKind.EVENT_IN)], outer))
        net.add(FBInstance("Inner", [PortSpec("EI", PortKind.EVENT_IN)], inner))
        for t in (3, 7, 7, 12):
            sched.at(t, lambda: net.dispatch("Outer", "EI"))
        sched.at(9, lambda: net.dispatch("Inner", "EI"))
        sched.run_until(20)
        assert [r[3] for r in seen] == [3, 3, 7, 7, 7, 7, 9, 12, 12]
        assert all(before == after == now for _, before, after, now in seen)

    def test_untraced_network_dispatches_and_latches(self):
        net = FBNetwork(Scheduler())
        net.add(make_block("A"))
        net.set_data_in("A", "DI", Bool(True))
        assert net.dispatch("A", "EI") == [("EO", {"DO": Bool(True)})]
        assert net.trace is None
        assert net.data_out("A", "DO") == Bool(True)


class _SortedModel:
    """Reference scheduler: a plain list, each pop the least pending entry
    by (time, lane, key, seq); it never runs an entry inline."""

    def __init__(self, max_events):
        self.pending = []
        self.seq = 0
        self.now = 0
        self.processed = 0
        self.max_events = max_events

    def at(self, time, fn, lane=LANE_FB, key=""):
        assert time >= self.now
        self.seq += 1
        self.pending.append((time, lane, key, self.seq, fn))

    def inline_bound(self):
        return -1, 0

    def run_until(self, until):
        while due := [e for e in self.pending if e[0] <= until]:
            entry = min(due, key=lambda e: e[:4])
            self.pending.remove(entry)
            self.now = entry[0]
            self.processed += 1
            if self.processed > self.max_events:
                raise EventBudgetExceeded("budget")
            entry[4]()
        self.now = until


# An entry: (delay, lane, key, whether its last child asks to run inline,
# children it schedules when it runs).  Delays and keys are drawn from tiny
# ranges so that entries collide on time, lane and key.
_leaf = st.tuples(st.integers(0, 3), st.sampled_from([LANE_FB, LANE_NET]),
                  st.sampled_from(["", "a", "b"]), st.booleans(), st.just(()))
_entry = st.recursive(
    _leaf,
    lambda kids: st.tuples(st.integers(0, 3), st.sampled_from([LANE_FB, LANE_NET]),
                           st.sampled_from(["", "a", "b"]), st.booleans(),
                           st.lists(kids, max_size=3).map(tuple)),
    max_leaves=12)
_ops = st.lists(st.one_of(
    st.tuples(st.just("at"), _entry),
    st.tuples(st.just("run"), st.integers(0, 4)),
), max_size=25)


def drive(sched, ops):
    """Apply `ops` to a scheduler; return what ran, at what time, and how
    the run ended."""
    log = []

    def schedule(entry, label, inline):
        delay, lane, key, _, _ = entry
        when = sched.now + delay
        if inline:  # as a flood pump runs its next packet
            last, left = sched.inline_bound()
            if when <= last and left >= 1:
                sched.now = when
                sched.processed += 1
                fire(entry, label)
                return
        sched.at(when, lambda: fire(entry, label), lane=lane, key=key)

    def fire(entry, label):
        log.append((sched.now, label))
        _, _, _, tail_inline, kids = entry
        for n, kid in enumerate(kids):
            schedule(kid, label + (n,), tail_inline and n == len(kids) - 1)

    try:
        for n, (op, arg) in enumerate(ops):
            if op == "run":
                sched.run_until(sched.now + arg)
            else:
                schedule(arg, (n,), False)
        sched.run_until(sched.now + 100)
        ending = "drained"
    except EventBudgetExceeded:
        ending = "budget"
    return log, sched.processed, sched.now, ending


class TestSchedulerOrder:
    @settings(max_examples=300, deadline=None)
    @given(_ops, st.one_of(st.just(10**6), st.integers(1, 30)))
    def test_entries_run_in_time_lane_key_seq_order(self, ops, budget):
        """Entries at colliding instants, entries scheduled from callbacks
        (some asking to run inline) and repeated horizons all run in the
        order a sorted list gives, with the same counts and budget trip."""
        model = _SortedModel(budget)
        assert drive(Scheduler(max_events=budget), ops) == drive(model, ops)

    def test_inline_bound_outside_run_until(self):
        sched = Scheduler(max_events=5)
        assert sched.inline_bound() == (-1, 5)

    def test_inline_bound_ends_one_us_before_the_queued_head(self):
        sched = Scheduler()
        seen = []
        sched.at(2, lambda: seen.append(sched.inline_bound()))
        sched.at(5, lambda: seen.append("queued"), lane=LANE_NET, key=("x", 0))
        sched.run_until(10)
        assert seen == [(4, sched.max_events - 1), "queued"]

    def test_inline_bound_is_the_horizon_when_nothing_is_queued(self):
        sched = Scheduler()
        seen = []
        sched.at(2, lambda: seen.append(sched.inline_bound()[0]))
        sched.run_until(10)
        sched.at(12, lambda: seen.append(sched.inline_bound()[0]))
        sched.at(31, lambda: seen.append("late"))  # past the horizon
        sched.run_until(20)
        assert seen == [10, 20]

    def test_inline_bound_counts_down_the_budget(self):
        sched = Scheduler(max_events=3)
        seen = []
        for t in (1, 2, 3):
            sched.at(t, lambda: seen.append(sched.inline_bound()[1]))
        sched.run_until(10)
        assert seen == [2, 1, 0]


class TestSameInstantFifo:
    """Entries `at` the current instant on LANE_FB with key "" wait in a
    FIFO instead of the heap; they still run in (time, lane, key, seq) order."""

    def test_later_ats_of_a_fifo_caller_keep_their_order(self):
        """An entry on LANE_FB asks to run its second child inline while the
        FIFO holds its first: the child is queued behind it, not run."""
        ops = [("at", (0, LANE_FB, "", False, ())),
               ("at", (0, LANE_FB, "", False, ((0, LANE_FB, "", False, ()),
                                               (0, LANE_FB, "", True, ((0, LANE_FB, "", False, ()),)),
                                               (0, LANE_FB, "", False, ((0, LANE_FB, "", False, ()),)))))]
        assert drive(Scheduler(), ops) == drive(_SortedModel(10**6), ops)

    def test_queued_entries_of_an_instant_run_before_its_fifo(self):
        sched = Scheduler()
        order = []
        sched.at(5, lambda: (order.append("a"), sched.at(5, lambda: order.append("c"))))
        sched.at(5, lambda: order.append("b"))
        sched.at(5, lambda: order.append("net"), lane=LANE_NET, key=("x", 0))
        sched.run_until(5)
        assert order == ["a", "b", "c", "net"]

    def test_pending_counts_fifo_entries(self):
        sched = Scheduler()
        sched.at(0, lambda: None)
        sched.at(0, lambda: None)
        sched.at(5, lambda: None)
        assert sched.pending() == 3
        sched.run_until(0)
        assert sched.pending() == 1

    @staticmethod
    def pumped(sched, log, drain, fanouts=1):
        """A LANE_NET entry at 5 that leaves `fanouts` entries in the FIFO,
        then runs its successor at 7 inline if `inline_bound` lets it, after
        draining the FIFO if `drain`, else queues it."""
        def successor():
            log.append(("successor", sched.now, sched.processed))

        def pump():
            log.append(("pump", sched.now, sched.processed))
            for n in range(fanouts):
                sched.at(sched.now, lambda n=n: log.append(("fanout", n, sched.now, sched.processed)))
            assert sched.inline_bound()[0] == sched.now - 1
            if drain:
                sched.run_ready()
            last, left = sched.inline_bound()
            if 7 <= last and left >= 1:
                sched.now = 7
                sched.processed += 1
                successor()
            else:
                sched.at(7, successor, lane=LANE_NET, key=("x", 1))

        sched.at(5, pump, lane=LANE_NET, key=("x", 0))
        sched.at(9, lambda: log.append(("late", sched.now, sched.processed)))

    def test_drained_fifo_runs_before_an_inline_successor(self):
        """An `at(now)` from a running LANE_NET entry runs, through the
        drain, before that entry's inline successor, as an event."""
        sched, log = Scheduler(), []
        self.pumped(sched, log, drain=True)
        sched.run_until(10)
        assert log == [("pump", 5, 1), ("fanout", 0, 5, 2), ("successor", 7, 3), ("late", 9, 4)]

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_budget_trips_in_the_drain_as_in_the_heap(self, budget):
        runs = []
        for drain in (True, False):
            sched, log = Scheduler(max_events=budget), []
            self.pumped(sched, log, drain, fanouts=3)
            with pytest.raises(EventBudgetExceeded):
                sched.run_until(10)
            runs.append((log, sched.processed, sched.now))
        assert runs[0] == runs[1]
        assert runs[0][1:] == (budget + 1, 5)
