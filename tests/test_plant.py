"""Plant motion, hazard predicate, push-off, arrivals, cycle detection, and
the actuator adapter that writes the plant's commands."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from fbsecsim.control import make_qx
from fbsecsim.fbnet import FBNetwork, Scheduler
from fbsecsim.plant import Command, Plant, completed_cycles
from fbsecsim.values import TRUE, Int


def stepped(plant, ticks, tick_us=10_000, start=0):
    for i in range(ticks):
        plant.step(start + (i + 1) * tick_us)
    return plant


class TestMotion:
    def test_full_stroke_in_ten_ticks(self):
        p = Plant(rate_per_tick=0.1)
        p.set_command(2, Command.EXTEND, 0)
        stepped(p, 10)
        assert p.cyl2 == 1000

    def test_hold_keeps_position(self):
        p = Plant(rate_per_tick=0.1)
        p.set_command(2, Command.EXTEND, 0)
        stepped(p, 3)
        p.set_command(2, Command.HOLD, 30_000)
        stepped(p, 5, start=30_000)
        assert p.cyl2 == 300

    def test_positions_clamped(self):
        p = Plant(rate_per_tick=0.1)
        p.set_command(1, Command.EXTEND, 0)
        stepped(p, 25)
        assert p.cyl1 == 1000
        p.set_command(1, Command.RETRACT, 0)
        stepped(p, 25)
        assert p.cyl1 == 0


class TestHazard:
    def lifted_box(self):
        p = Plant(rate_per_tick=0.1)
        p.try_box_arrival(0)
        p.set_command(2, Command.EXTEND, 0)
        stepped(p, 10)
        assert p.box_present and not p.box_pushed_off
        return p

    def test_retract_with_box_latches_hazard(self):
        p = self.lifted_box()
        p.set_command(2, Command.RETRACT, 110_000)
        assert p.hazard and p.hazard_time == 110_000
        assert not p.box_present  # the box fell

    def test_hazard_is_latched(self):
        p = self.lifted_box()
        p.set_command(2, Command.RETRACT, 110_000)
        p.set_command(2, Command.EXTEND, 120_000)
        p.set_command(2, Command.RETRACT, 130_000)
        assert p.hazard and p.hazard_time == 110_000

    def test_retract_after_pushoff_is_safe(self):
        p = self.lifted_box()
        p.set_command(1, Command.EXTEND, 100_000)
        stepped(p, 10, start=100_000)
        assert p.box_pushed_off and not p.box_present
        p.set_command(2, Command.RETRACT, 210_000)
        assert not p.hazard

    def test_repeated_retract_write_no_edge_no_hazard(self):
        p = Plant(rate_per_tick=0.1)
        p.set_command(2, Command.RETRACT, 0)
        p.try_box_arrival(10_000)
        p.set_command(2, Command.RETRACT, 20_000)  # no transition
        assert not p.hazard


class TestPushOff:
    def test_pushoff_needs_both_extended(self):
        p = Plant(rate_per_tick=0.1)
        p.try_box_arrival(0)
        p.set_command(2, Command.EXTEND, 0)
        stepped(p, 10)
        assert not p.box_pushed_off
        p.set_command(1, Command.EXTEND, 100_000)
        stepped(p, 9, start=100_000)
        assert not p.box_pushed_off
        p.step(200_000)
        assert p.box_pushed_off and not p.box_present


# one plant operation: a step, a box landing, or a command write
_OPS = st.one_of(st.just(("step",)), st.just(("box",)),
                 st.tuples(st.just("cmd"), st.sampled_from([1, 2]), st.sampled_from(Command)))


class TestSettled:
    @staticmethod
    def fields(plant):
        return {k: v for k, v in vars(plant).items() if k != "settled"}

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from([0.001, 0.1, 0.3, 0.7, 1.0]), st.lists(_OPS, max_size=60))
    def test_settled_iff_another_step_changes_nothing(self, rate, ops):
        p = Plant(rate_per_tick=rate)
        for n, (op, *args) in enumerate(ops):
            if op == "cmd":
                p.set_command(*args, n)
            elif op == "box":
                p.try_box_arrival(n)
            else:
                p.step(n)
                again = copy.deepcopy(p)
                again.step(n + 1)
                assert p.settled is (self.fields(again) == self.fields(p))

    def test_a_change_of_command_or_a_landing_unsettles(self):
        p = Plant(rate_per_tick=0.1)
        p.step(0)
        assert p.settled
        p.set_command(2, Command.HOLD, 1)  # no change: still settled
        assert p.settled
        p.set_command(2, Command.EXTEND, 2)
        assert not p.settled
        stepped(p, 10)
        assert p.settled and p.cyl2 == 1000
        p.set_command(2, Command.RETRACT, 3)
        stepped(p, 10)
        assert p.settled and p.cyl2 == 0
        assert p.try_box_arrival(5)
        assert not p.settled


class TestArrivals:
    def test_arrival_skipped_when_plate_raised(self):
        p = Plant(rate_per_tick=0.1)
        p.set_command(2, Command.EXTEND, 0)
        stepped(p, 10)
        assert not p.try_box_arrival(200_000)
        assert p.boxes_skipped == 1

    def test_arrival_skipped_when_box_already_there(self):
        p = Plant(rate_per_tick=0.1)
        assert p.try_box_arrival(0)
        assert not p.try_box_arrival(1)
        assert p.boxes_arrived == 1 and p.boxes_skipped == 1

    def test_arrival_resets_pushed_flag(self):
        p = Plant(rate_per_tick=0.1)
        p.box_pushed_off = True
        assert p.try_box_arrival(0)
        assert not p.box_pushed_off


class TestCycles:
    def test_completed_cycle_detection(self):
        samples = [
            (0, 0, 0, False, False, False),
            (1, 0, 500, True, False, False),
            (2, 1000, 1000, True, False, False),
            (3, 500, 500, False, True, False),
            (4, 0, 0, False, True, False),     # cycle completes here
            (5, 0, 0, False, True, False),     # still home: no double count
            (6, 0, 0, True, False, False),     # next box
            (7, 0, 0, False, True, False),     # and home again
        ]
        assert completed_cycles(samples) == [4, 7]

    def test_no_cycle_without_pushoff(self):
        samples = [(t, 0, 0, False, False, False) for t in range(5)]
        assert completed_cycles(samples) == []


class TestActuatorGate:
    def qx_net(self):
        plant = Plant(rate_per_tick=0.1)
        net = FBNetwork(Scheduler())
        net.add(make_qx("QX", plant, cylinder=2))
        net.set_data_in("QX", "CMD", Int(int(Command.EXTEND)))
        return net, plant

    def test_unwired_gate_writes_the_command(self):
        net, plant = self.qx_net()
        net.dispatch("QX", "REQ")
        assert plant.cmd2 is Command.EXTEND

    def test_true_gate_freezes_the_command(self):
        net, plant = self.qx_net()
        net.set_data_in("QX", "GATE", TRUE)
        net.dispatch("QX", "REQ")
        assert plant.cmd2 is Command.HOLD
