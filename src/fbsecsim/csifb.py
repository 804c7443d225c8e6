"""Communication service-interface blocks.

PUBLISH/SUBSCRIBE ride simulated UDP multicast, CLIENT/SERVER simulated
TCP.  Network arrivals re-enter the block as an internal event (RCV/TCPEV)
carrying the raw bytes in a STRING latch, so everything downstream of the
socket is ordinary dispatch.  Subscribers act purely on the payload: a
convincingly crafted packet is indistinguishable from the real thing here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .errors import StringTooLong
from .fbnet import FBInstance, FBNetwork, PortKind, PortSpec
from .transport import TCP_DATA, TCP_SYNACK, Endpoint, GroupAddress, Proto, Transport, ip_to_int
from .values import BOOL, FALSE, STRING, TRUE, DataValue, Str, Variant
from .wire import decode, encode, try_decode  # noqa: F401  decode: bench/spans.py wraps csifb.decode

DEFAULT_GROUP = "239.192.0.2"
DEFAULT_PORT = 61499
_MALFORMED = [(None, {"QO": FALSE})]  # a subscriber's RCV emissions for any junk; never mutated
_DECODED_MAX = 256  # payloads a subscriber remembers before it forgets them all


def parse_id(raw: bytes) -> tuple[str, int]:
    """ID data input: 'address:port', defaulting when left empty."""
    text = raw.decode()
    if not text:
        return DEFAULT_GROUP, DEFAULT_PORT
    addr, sep, port = text.rpartition(":")
    if not sep:
        raise ValueError(f"bad ID {text!r}")
    return addr, int(port)


@dataclass(frozen=True)
class PubState:
    inited: bool = False
    group: GroupAddress | None = None
    sent: int = 0


def make_publisher(id: str, transport: Transport, device_id: str, address: int,
                   src_port: int) -> FBInstance:
    """One packet per REQ, carrying SD_1, to the multicast group named by ID."""

    def behavior(ctx, event, inputs, state: PubState):
        if event == "INIT":
            if not inputs["QI"].raw:
                return state, [(None, {"QO": FALSE})]
            gaddr, gport = parse_id(inputs["ID"].raw)
            group = GroupAddress(ip_to_int(gaddr), gport)
            return replace(state, inited=True, group=group), [("INITO", {"QO": TRUE})]
        if event == "REQ":
            if not state.inited:
                return state, [(None, {"QO": FALSE})]
            try:
                payload = encode([inputs["SD_1"]])
            except StringTooLong:
                return state, [(None, {"QO": FALSE})]
            pkt = transport.make_packet(
                Proto.UDP, Endpoint(device_id, address, src_port), state.group,
                payload, device_id)
            transport.send(pkt)
            return replace(state, sent=state.sent + 1), [("CNF", {"QO": TRUE})]
        return state, []

    ports = [
        PortSpec("INIT", PortKind.EVENT_IN, associated_data=("QI", "ID")),
        PortSpec("REQ", PortKind.EVENT_IN, associated_data=("SD_1",)),
        PortSpec("INITO", PortKind.EVENT_OUT, associated_data=("QO",)),
        PortSpec("CNF", PortKind.EVENT_OUT, associated_data=("QO",)),
        PortSpec("QI", PortKind.DATA_IN, Variant.BOOL),
        PortSpec("ID", PortKind.DATA_IN, Variant.STRING),
        PortSpec("QO", PortKind.DATA_OUT, Variant.BOOL),
        PortSpec("SD_1", PortKind.DATA_IN, Variant.BOOL),
    ]
    return FBInstance(id, ports, behavior, state=PubState())


@dataclass
class SubState:
    """Mutable: the receive path counts in place, once per packet."""

    inited: bool = False
    accepted: int = 0
    malformed: int = 0


def make_subscriber(id: str, network: FBNetwork, transport: Transport,
                    device_id: str) -> FBInstance:
    """Joins the group on INIT; IND fires exactly once per accepted packet,
    one whose payload decodes to a single BOOL, latched on RD_1."""
    decoded = {}  # payload -> (its RX latch value, its RCV emissions); bytes never change

    def remember(raw):
        if len(decoded) >= _DECODED_MAX:
            decoded.clear()
        values = try_decode(raw)
        emissions = _MALFORMED
        if values is not None and len(values) == 1 and values[0].variant is BOOL:
            emissions = [("IND", {"RD_1": values[0], "QO": TRUE})]
        return decoded.setdefault(raw, (DataValue(STRING, raw), emissions))  # no Str() copy

    def quiet():
        """Whether an RCV would run untraced and unsuppressed."""
        host = network.host
        return (network.trace is None and id not in network.suspended
                and (host is None or not host.down))

    def count_malformed(rx, k):
        """What k RCVs of junk whose RX latch value is `rx` do when `quiet`."""
        if k:
            inst.din["RX"] = rx
            inst.dout["QO"] = FALSE
            inst.state.malformed += k

    def handler(view):
        payload = view.payload
        entry = decoded.get(payload) or remember(payload)
        if entry[1] is _MALFORMED and quiet():
            count_malformed(entry[0], 1)
            return
        # a flood sends one payload object, so RX often holds it already
        if inst.din["RX"].raw is not payload:
            network.set_data_in(id, "RX", entry[0])
        network.dispatch(id, "RCV")

    def count_only(view):
        """A counter of k receipts of `view` if `handler` would take them
        without a dispatch: the memo says its payload is junk and an RCV
        would run `quiet`; else None."""
        entry = decoded.get(view.payload)
        if entry is not None and entry[1] is _MALFORMED and quiet():
            return partial(count_malformed, entry[0])
        return None

    handler.count_only = count_only  # read by Transport.segment

    def behavior(ctx, event, inputs, state: SubState):
        if event == "INIT":
            if not inputs["QI"].raw:
                return state, [(None, {"QO": FALSE})]
            gaddr, gport = parse_id(inputs["ID"].raw)
            device = transport.devices[device_id]
            member = Endpoint(device_id, device.address, gport)
            transport.join_group(ip_to_int(gaddr), member)
            transport.bind(device_id, gport, handler)
            state.inited = True
            return state, [("INITO", {"QO": TRUE})]
        if event == "RCV":
            raw = inputs["RX"].raw
            emissions = (decoded.get(raw) or remember(raw))[1]
            if emissions is _MALFORMED:
                state.malformed += 1
            else:
                state.accepted += 1
            return state, emissions
        return state, []

    ports = [
        PortSpec("INIT", PortKind.EVENT_IN, associated_data=("QI", "ID")),
        PortSpec("RCV", PortKind.EVENT_IN, associated_data=("RX",)),
        PortSpec("INITO", PortKind.EVENT_OUT, associated_data=("QO",)),
        PortSpec("IND", PortKind.EVENT_OUT, associated_data=("RD_1", "QO")),
        PortSpec("QI", PortKind.DATA_IN, Variant.BOOL),
        PortSpec("ID", PortKind.DATA_IN, Variant.STRING),
        PortSpec("RX", PortKind.DATA_IN, Variant.STRING),
        PortSpec("QO", PortKind.DATA_OUT, Variant.BOOL),
        PortSpec("RD_1", PortKind.DATA_OUT, Variant.BOOL),
    ]
    inst = FBInstance(id, ports, behavior, state=SubState())
    return inst


@dataclass(frozen=True)
class ServerState:
    inited: bool = False
    received: int = 0


def make_server(id: str, network: FBNetwork, transport: Transport,
                device_id: str, listen_port: int) -> FBInstance:
    """TCP server: handshakes happen at the device; established data fires IND.

    The transport only routes TCP_DATA from established connections to the
    socket, so IND cannot fire for strays.
    """

    def handler(view):
        if view.proto is not TCP_DATA:
            return
        network.set_data_in(id, "RX", Str(view.payload))
        network.dispatch(id, "RCV")

    def behavior(ctx, event, inputs, state: ServerState):
        if event == "INIT":
            if not inputs["QI"].raw:
                return state, [(None, {"QO": FALSE})]
            transport.bind(device_id, listen_port, handler)
            return replace(state, inited=True), [("INITO", {"QO": TRUE})]
        if event == "RCV":
            return replace(state, received=state.received + 1), [
                ("IND", {"RD_1": Str(inputs["RX"].raw), "QO": TRUE})]
        return state, []

    ports = [
        PortSpec("INIT", PortKind.EVENT_IN, associated_data=("QI",)),
        PortSpec("RCV", PortKind.EVENT_IN, associated_data=("RX",)),
        PortSpec("INITO", PortKind.EVENT_OUT, associated_data=("QO",)),
        PortSpec("IND", PortKind.EVENT_OUT, associated_data=("RD_1", "QO")),
        PortSpec("QI", PortKind.DATA_IN, Variant.BOOL),
        PortSpec("RX", PortKind.DATA_IN, Variant.STRING),
        PortSpec("QO", PortKind.DATA_OUT, Variant.BOOL),
        PortSpec("RD_1", PortKind.DATA_OUT, Variant.STRING),
    ]
    return FBInstance(id, ports, behavior, state=ServerState())


@dataclass(frozen=True)
class ClientAttempt:
    started: int
    established: int | None = None


@dataclass(frozen=True)
class ClientState:
    remote: Endpoint | None = None
    local_port: int = 0
    connected: bool = False
    attempts: tuple[ClientAttempt, ...] = ()


def make_client(id: str, network: FBNetwork, transport: Transport,
                device_id: str, address: int, local_port: int) -> FBInstance:
    """TCP client: INIT sends the SYN; the SYN-ACK completes the handshake."""

    def handler(view):
        if view.proto is not TCP_SYNACK:
            return
        network.dispatch(id, "TCPEV")

    def behavior(ctx, event, inputs, state: ClientState):
        me = Endpoint(device_id, address, local_port)
        if event == "INIT":
            raw = inputs["ID"].raw.decode()
            host, sep, port = raw.rpartition(":")
            remote_dev, _, remote_addr = host.partition("@")
            remote = Endpoint(remote_dev, ip_to_int(remote_addr), int(port))
            transport.bind(device_id, local_port, handler)
            transport.send(transport.make_packet(Proto.TCP_SYN, me, remote, b"", device_id))
            attempts = state.attempts + (ClientAttempt(ctx.now),)
            return replace(state, remote=remote, connected=False, attempts=attempts), []
        if event == "TCPEV":
            if state.remote is None or state.connected:
                return state, []
            transport.send(transport.make_packet(Proto.TCP_ACK, me, state.remote, b"", device_id))
            attempts = state.attempts[:-1] + (replace(state.attempts[-1], established=ctx.now),)
            return replace(state, connected=True, attempts=attempts), [("INITO", {"QO": TRUE})]
        if event == "REQ":
            if not state.connected:
                return state, [(None, {"QO": FALSE})]
            payload = encode([inputs["SD_1"]])
            transport.send(transport.make_packet(Proto.TCP_DATA, me, state.remote, payload, device_id))
            return state, [("CNF", {"QO": TRUE})]
        return state, []

    ports = [
        PortSpec("INIT", PortKind.EVENT_IN, associated_data=("ID",)),
        PortSpec("TCPEV", PortKind.EVENT_IN),
        PortSpec("REQ", PortKind.EVENT_IN, associated_data=("SD_1",)),
        PortSpec("INITO", PortKind.EVENT_OUT, associated_data=("QO",)),
        PortSpec("CNF", PortKind.EVENT_OUT, associated_data=("QO",)),
        PortSpec("ID", PortKind.DATA_IN, Variant.STRING),
        PortSpec("SD_1", PortKind.DATA_IN, Variant.BOOL),
        PortSpec("QO", PortKind.DATA_OUT, Variant.BOOL),
    ]
    return FBInstance(id, ports, behavior, state=ClientState())
