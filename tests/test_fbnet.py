"""Function-block core: construction, dispatch semantics, determinism."""

import pytest

from fbsecsim.errors import (
    BehaviorFault,
    BindingError,
    DataInConnectedError,
    DuplicateIdError,
    KindMismatchError,
    UnknownPortError,
    VariantMismatchError,
)
from fbsecsim.fbnet import (
    CompositeFB,
    FBInstance,
    FBNetwork,
    PortKind,
    PortSpec,
    Scheduler,
    Trace,
    make_e_switch,
    run,
)
from fbsecsim.values import Bool, Int, Variant


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


def fresh_net(enabled_trace=True):
    sched = Scheduler()
    return FBNetwork(sched, Trace(enabled=enabled_trace)), sched


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
        assert self.build_app_shape().validate() == []

    def test_dangling_connection_reported(self):
        net = self.build_app_shape()
        del net.instances["IX_Box"]
        codes = {d.code for d in net.validate()}
        assert "UnknownPort" in codes

    def test_variant_violation_reported(self):
        net = self.build_app_shape()
        # force a bad wire past connect()'s checks
        net.data_src[("LiftCtl", "SV")] = ("ThrustCtl", "CMD")
        codes = {d.code for d in net.validate()}
        assert "VariantMismatch" in codes

    def test_double_writer_reported(self):
        net = self.build_app_shape()
        net.data_src[("LiftCtl", "BOXQ")] = ("IX_BoxTop", "Q")
        # inject duplicate key situation by rebuilding dict with two aliases
        diags = net.validate()
        assert isinstance(diags, list)


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
        net._dout[("SRC", "DO")] = Bool(True)
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
        trace = run(net, 10)
        assert trace.entries == []
        assert sched.now == 10

    def test_single_event_at_t5(self):
        net, sched = fresh_net()
        net.add(make_block("A"))
        sched.at(5, lambda: net.dispatch("A", "EI"))
        trace = run(net, 10)
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
        run(net, 10)
        assert order == ["A", "B"]

    def test_events_beyond_until_stay_queued(self):
        net, sched = fresh_net()
        net.add(make_block("A"))
        sched.at(15, lambda: net.dispatch("A", "EI"))
        trace = run(net, 10)
        assert trace.entries == []
        assert sched.pending() == 1

    def test_trace_monotonic_timestamps(self):
        net, sched = fresh_net()
        net.add(make_block("A"))
        for t in (3, 1, 7, 7, 2):
            sched.at(t, lambda: net.dispatch("A", "EI"))
        trace = run(net, 10)
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
            run(net, 10)
        times = [e[1] for e in net.trace.entries]
        assert 1 in times and 2 in times and 3 not in times

    def test_runaway_same_time_loop_hits_event_budget(self):
        from fbsecsim.errors import EventBudgetExceeded
        sched = Scheduler(max_events=1_000)
        net = FBNetwork(sched, Trace(enabled=False))
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
        return list(run(net, 20).lines())

    def test_identical_runs_identical_traces(self):
        assert self.build_and_run() == self.build_and_run()

    def test_trace_line_format(self):
        lines = self.build_and_run()
        assert lines[0] == "t=5 dispatch SW.EI"
        assert any(line.startswith("t=5 emit SW.EO1") for line in lines)
        assert any("[true]" in line for line in lines)


class TestComposite:
    def simple_composite(self, bind_to=("INNER", "EO")):
        def build():
            inner = make_block("INNER")
            return [inner], [], []

        iface = [PortSpec("OUT", PortKind.EVENT_OUT)]
        return CompositeFB(iface, build, {"OUT": bind_to})

    def test_instantiate_prefixes_and_maps(self):
        net, _ = fresh_net()
        refs = self.simple_composite().instantiate(net, "C1")
        assert refs["OUT"] == "C1.INNER.EO"
        assert "C1.INNER" in net.instances

    def test_binding_to_missing_port_rejected(self):
        net, _ = fresh_net()
        with pytest.raises(BindingError):
            self.simple_composite(bind_to=("INNER", "GHOST")).instantiate(net, "C1")

    def test_unbound_interface_port_rejected(self):
        def build():
            return [make_block("INNER")], [], []

        comp = CompositeFB([PortSpec("OUT", PortKind.EVENT_OUT)], build, {})
        net, _ = fresh_net()
        with pytest.raises(BindingError):
            comp.instantiate(net, "C1")

    def test_kind_mismatch_in_binding_rejected(self):
        def build():
            return [make_block("INNER")], [], []

        comp = CompositeFB([PortSpec("OUT", PortKind.EVENT_OUT)], build,
                           {"OUT": ("INNER", "DO")})
        net, _ = fresh_net()
        with pytest.raises(BindingError):
            comp.instantiate(net, "C1")


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
