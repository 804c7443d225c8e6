"""Communication service-interface blocks.

PUBLISH/SUBSCRIBE ride simulated UDP multicast, CLIENT/SERVER simulated
TCP.  Network arrivals re-enter the block as an internal event (RCV/TCPEV)
carrying the raw bytes in a STRING latch, so everything downstream of the
socket is ordinary dispatch.  Subscribers act purely on the payload: a
convincingly crafted packet is indistinguishable from the real thing here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import MalformedPayload, StringTooLong
from .fbnet import FBInstance, FBNetwork, PortKind, PortSpec
from .transport import Endpoint, GroupAddress, Proto, Transport, ip_to_int
from .values import FALSE, TRUE, DataValue, Str, Variant
from .wire import decode, encode

DEFAULT_GROUP = "239.192.0.2"
DEFAULT_PORT = 61499


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
                   src_port: int, sd_count: int = 1) -> FBInstance:
    """One packet per REQ to the multicast group named by ID."""

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
                payload = encode([inputs[f"SD_{i + 1}"] for i in range(sd_count)])
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
        PortSpec("REQ", PortKind.EVENT_IN, associated_data=tuple(f"SD_{i + 1}" for i in range(sd_count))),
        PortSpec("INITO", PortKind.EVENT_OUT, associated_data=("QO",)),
        PortSpec("CNF", PortKind.EVENT_OUT, associated_data=("QO",)),
        PortSpec("QI", PortKind.DATA_IN, Variant.BOOL),
        PortSpec("ID", PortKind.DATA_IN, Variant.STRING),
        PortSpec("QO", PortKind.DATA_OUT, Variant.BOOL),
    ] + [PortSpec(f"SD_{i + 1}", PortKind.DATA_IN, Variant.BOOL) for i in range(sd_count)]
    return FBInstance(id, ports, behavior, state=PubState())


@dataclass
class SubState:
    """Mutable: the receive path counts in place, once per packet."""

    inited: bool = False
    accepted: int = 0
    malformed: int = 0


def make_subscriber(id: str, network: FBNetwork, transport: Transport,
                    device_id: str, rd_count: int = 1) -> FBInstance:
    """Joins the group on INIT; IND fires exactly once per accepted packet."""
    rd_names = tuple(f"RD_{i + 1}" for i in range(rd_count))

    def handler(view):
        network.set_data_in(id, "RX", Str(view.payload))
        network.dispatch(id, "RCV")

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
            try:
                values = decode(inputs["RX"].raw)
            except MalformedPayload:
                values = None
            if values is None or len(values) != rd_count or any(
                    v.variant is not Variant.BOOL for v in values):
                state.malformed += 1
                return state, [(None, {"QO": FALSE})]
            assigns: dict[str, DataValue] = dict(zip(rd_names, values))
            assigns["QO"] = TRUE
            state.accepted += 1
            return state, [("IND", assigns)]
        return state, []

    ports = [
        PortSpec("INIT", PortKind.EVENT_IN, associated_data=("QI", "ID")),
        PortSpec("RCV", PortKind.EVENT_IN, associated_data=("RX",)),
        PortSpec("INITO", PortKind.EVENT_OUT, associated_data=("QO",)),
        PortSpec("IND", PortKind.EVENT_OUT,
                 associated_data=rd_names + ("QO",)),
        PortSpec("QI", PortKind.DATA_IN, Variant.BOOL),
        PortSpec("ID", PortKind.DATA_IN, Variant.STRING),
        PortSpec("RX", PortKind.DATA_IN, Variant.STRING),
        PortSpec("QO", PortKind.DATA_OUT, Variant.BOOL),
    ] + [PortSpec(name, PortKind.DATA_OUT, Variant.BOOL) for name in rd_names]
    return FBInstance(id, ports, behavior, state=SubState())


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
        if view.proto is not Proto.TCP_DATA:
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
        if view.proto is not Proto.TCP_SYNACK:
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
