"""Two-cylinder material-transfer plant.

Cylinder 2 lifts an arriving box; cylinder 1 pushes it off the raised
plate; both return home.  Positions are held in integer milli-units so
stroke arithmetic is exact.  Retracting cylinder 2 while a box is still on
the plate drops the box: the hazard flag latches for the rest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

FULL = 1000  # milli-position of a fully extended cylinder


class Command(IntEnum):
    HOLD = 0
    EXTEND = 1
    RETRACT = 2


# Module names for the per-tick path: an Enum class read is ~10x a global on 3.10/3.11.
EXTEND, RETRACT = Command.EXTEND, Command.RETRACT


@dataclass
class CommandWrite:
    time: int
    cylinder: int
    command: Command
    changed: bool


class Plant:
    """The plant's state, moved one tick at a time by `step`.

    `settled` is true when another `step` would change nothing: each
    cylinder is at rest or against the stop its command drives it to, and
    the push-off predicate is false.  `step` sets it; a command write that
    changes something and a box that lands clear it.  A tick that finds the
    plant settled and no box due has nothing to move or scan
    (`scenario._run`'s tick).
    """

    def __init__(self, rate_per_tick: float = 0.1):
        self.rate_milli = round(rate_per_tick * FULL)
        if self.rate_milli <= 0:
            raise ValueError("cylinder rate must be positive")
        self.cyl1 = 0
        self.cyl2 = 0
        self.cmd1 = Command.HOLD
        self.cmd2 = Command.HOLD
        self.box_present = False
        self.box_pushed_off = False
        self.hazard = False
        self.hazard_time: int | None = None
        self.settled = False
        self.boxes_arrived = 0
        self.boxes_skipped = 0
        self.writes: list[CommandWrite] = []
        self.samples: list[tuple[int, int, int, bool, bool, bool]] = []

    # -- actuation ----------------------------------------------------------

    def set_command(self, cylinder: int, command: Command, now: int) -> None:
        current = self.cmd1 if cylinder == 1 else self.cmd2
        changed = command != current
        self.writes.append(CommandWrite(now, cylinder, command, changed))
        if not changed:
            return
        self.settled = False
        if cylinder == 1:
            self.cmd1 = command
        else:
            if (command is RETRACT and self.box_present
                    and not self.box_pushed_off and not self.hazard):
                # Box dropped mid-lift: permanent damage, box leaves the plate.
                self.hazard = True
                self.hazard_time = now
                self.box_present = False
            self.cmd2 = command

    # -- physics ------------------------------------------------------------

    @staticmethod
    def _move(pos: int, cmd: Command, step: int) -> int:
        if cmd is EXTEND:
            return min(FULL, pos + step)
        if cmd is RETRACT:
            return max(0, pos - step)
        return pos

    def step(self, now: int) -> None:
        """Advance one tick of motion, evaluate the push-off predicate, and
        note whether the plant has settled."""
        move, rate = self._move, self.rate_milli
        cyl1 = self.cyl1 = move(self.cyl1, self.cmd1, rate)
        cyl2 = self.cyl2 = move(self.cyl2, self.cmd2, rate)
        if cyl1 == FULL and cyl2 == FULL and self.box_present:
            self.box_pushed_off = True
            self.box_present = False
        # the push-off predicate is false by now, so only motion is left
        self.settled = move(cyl1, self.cmd1, rate) == cyl1 and move(cyl2, self.cmd2, rate) == cyl2

    def try_box_arrival(self, now: int) -> bool:
        """A new box lands only on an empty, lowered plate."""
        if self.box_present or self.cyl2 != 0:
            self.boxes_skipped += 1
            return False
        self.box_present = True
        self.box_pushed_off = False
        self.settled = False
        self.boxes_arrived += 1
        return True

    def sample(self, now: int) -> None:
        self.samples.append((now, self.cyl1, self.cyl2,
                             self.box_present, self.box_pushed_off, self.hazard))

    # -- sensors ------------------------------------------------------------

    def sensor_box(self) -> bool:
        return self.box_present

    def sensor_box_top(self) -> bool:
        return self.cyl2 == FULL and self.box_present

    def sensor_cyl1_end(self) -> bool:
        return self.cyl1 == FULL


def completed_cycles(samples: list[tuple]) -> list[int]:
    """Timestamps where both cylinders return home with the box pushed off."""
    done: list[int] = []
    prev_home = False
    for t, c1, c2, _bp, pushed, _hz in samples:
        home = c1 == 0 and c2 == 0 and pushed
        if home and not prev_home:
            done.append(t)
        prev_home = home
    return done
