"""Controller blocks for the two-cylinder application.

ThrustCtl drives cylinder 1 and publishes the shared Boolean exactly when
it commands retraction; LiftCtl raises cylinder 2 on box arrival and
lowers it when the shared value arrives.  IX/QX are thin adapters: one
sensor bit in, one actuator command out.
"""

from __future__ import annotations

from .fbnet import FBInstance, PortKind, PortSpec
from .plant import Command, Plant
from .values import TRUE, Int, Variant

CMD_HOLD = Int(int(Command.HOLD))
CMD_EXTEND = Int(int(Command.EXTEND))
CMD_RETRACT = Int(int(Command.RETRACT))


def make_ix(id: str) -> FBInstance:
    """Sensor adapter: relays the scanned bit as an IND event."""

    def behavior(ctx, event, inputs, state):
        return state, [("IND", {"Q": inputs["NEWQ"]})]

    ports = [
        PortSpec("SCAN", PortKind.EVENT_IN, associated_data=("NEWQ",)),
        PortSpec("NEWQ", PortKind.DATA_IN, Variant.BOOL),
        PortSpec("IND", PortKind.EVENT_OUT, associated_data=("Q",)),
        PortSpec("Q", PortKind.DATA_OUT, Variant.BOOL),
    ]
    return FBInstance(id, ports, behavior)


def make_qx(id: str, plant: Plant, cylinder: int) -> FBInstance:
    """Actuator adapter; commands freeze while GATE (false unwired) holds."""

    def behavior(ctx, event, inputs, state):
        if inputs["GATE"].raw:
            return state, []
        plant.set_command(cylinder, Command(inputs["CMD"].raw), ctx.now)
        return state, []

    ports = [
        PortSpec("REQ", PortKind.EVENT_IN, associated_data=("CMD", "GATE")),
        PortSpec("CMD", PortKind.DATA_IN, Variant.INT),
        PortSpec("GATE", PortKind.DATA_IN, Variant.BOOL),
    ]
    return FBInstance(id, ports, behavior)


def make_thrustctl(id: str) -> FBInstance:
    """Cylinder 1 controller: extend on a box at the top, retract at the end
    of the stroke and publish the shared true."""

    def behavior(ctx, event, inputs, state):
        if event == "BOXTOP" and inputs["BOXQ"].raw:
            return state, [("DRIVE", {"CMD": CMD_EXTEND})]
        if event == "CYLEND" and inputs["ENDQ"].raw:
            # Retract and hand the cycle over to the other controller.
            return state, [("DRIVE", {"CMD": CMD_RETRACT}),
                           ("SEND", {"SV": TRUE})]
        return state, []

    ports = [
        PortSpec("BOXTOP", PortKind.EVENT_IN, associated_data=("BOXQ",)),
        PortSpec("CYLEND", PortKind.EVENT_IN, associated_data=("ENDQ",)),
        PortSpec("BOXQ", PortKind.DATA_IN, Variant.BOOL),
        PortSpec("ENDQ", PortKind.DATA_IN, Variant.BOOL),
        PortSpec("DRIVE", PortKind.EVENT_OUT, associated_data=("CMD",)),
        PortSpec("SEND", PortKind.EVENT_OUT, associated_data=("SV",)),
        PortSpec("CMD", PortKind.DATA_OUT, Variant.INT),
        PortSpec("SV", PortKind.DATA_OUT, Variant.BOOL),
    ]
    return FBInstance(id, ports, behavior)


def make_liftctl(id: str) -> FBInstance:
    """Cylinder 2 controller: extend on box arrival, retract on shared true."""

    def behavior(ctx, event, inputs, state):
        if event == "BOX" and inputs["BOXQ"].raw:
            return state, [("DRIVE", {"CMD": CMD_EXTEND})]
        if event == "REQ" and inputs["SV"].raw:
            return state, [("DRIVE", {"CMD": CMD_RETRACT})]
        return state, []

    ports = [
        PortSpec("BOX", PortKind.EVENT_IN, associated_data=("BOXQ",)),
        PortSpec("REQ", PortKind.EVENT_IN, associated_data=("SV",)),
        PortSpec("BOXQ", PortKind.DATA_IN, Variant.BOOL),
        PortSpec("SV", PortKind.DATA_IN, Variant.BOOL),
        PortSpec("DRIVE", PortKind.EVENT_OUT, associated_data=("CMD",)),
        PortSpec("CMD", PortKind.DATA_OUT, Variant.INT),
    ]
    return FBInstance(id, ports, behavior)
