"""Rule-based intrusion detection/prevention engine and its function-block
packaging.

Grammar (line-oriented, `#` comments):
  <action:alert|block> <proto:udp|tcp|icmp|any> <src-addr> <src-port> ->
      <dst-addr> <dst-port> [payload "<hex>"] [rate <N>/<W>] \
      [srcallow <addr>[,<addr>...]] msg "<text>"
Addresses are dotted quads, a.b.c.d/n prefixes, or `any`; ports are a
number, n:m range, or `any`.  Rules evaluate in file order, first match
wins.  The engine inspects at most `inspection_capacity` packets per
sliding second; arrivals beyond that bypass inspection uninspected
(fail-open) and are counted as dropped by the engine.
"""

from __future__ import annotations

import logging
import shlex
from collections import deque
from dataclasses import dataclass
from enum import Enum

from .errors import RuleSyntaxError
from .fbnet import CompositeFB, FBInstance, PortKind, PortSpec
from .transport import Proto, PacketView, int_to_ip, ip_to_int
from .values import Bool, Int, Str, Variant

log = logging.getLogger(__name__)

WINDOW_US = 1_000_000


class Action(Enum):
    ALERT = "alert"
    BLOCK = "block"


class EngineMode(Enum):
    OFF = "off"
    IDS = "ids"
    IPS = "ips"


_PROTO_SETS = {
    "udp": frozenset({Proto.UDP}),
    "tcp": frozenset({Proto.TCP_SYN, Proto.TCP_SYNACK, Proto.TCP_ACK, Proto.TCP_DATA}),
    "icmp": frozenset({Proto.ICMP_ECHO}),
    "any": frozenset(Proto),
}


@dataclass(frozen=True)
class AddrMatcher:
    """Exact address or CIDR prefix; None means any."""

    prefix: int
    bits: int

    def matches(self, address: int) -> bool:
        shift = 32 - self.bits
        return (address >> shift) == (self.prefix >> shift)


@dataclass(frozen=True)
class PortMatcher:
    lo: int
    hi: int

    def matches(self, port: int) -> bool:
        return self.lo <= port <= self.hi


@dataclass(frozen=True)
class RateClause:
    threshold: int      # match when the window count exceeds this
    window_us: int


@dataclass
class Rule:
    id: str
    action: Action
    protos: frozenset[Proto]
    proto_name: str
    src_addr: AddrMatcher | None
    src_port: PortMatcher | None
    dst_addr: AddrMatcher | None
    dst_port: PortMatcher | None
    payload_sub: bytes | None
    rate: RateClause | None
    srcallow: tuple[AddrMatcher, ...]
    msg: str

    def static_match(self, view: PacketView) -> bool:
        """Every non-rate matcher against the claimed header and payload."""
        if view.proto not in self.protos:
            return False
        if self.src_addr is not None and not self.src_addr.matches(view.src_address):
            return False
        if self.src_port is not None and not self.src_port.matches(view.src_port):
            return False
        if self.dst_addr is not None and not self.dst_addr.matches(view.dst_address):
            return False
        if self.dst_port is not None and not self.dst_port.matches(view.dst_port):
            return False
        if self.payload_sub is not None and self.payload_sub not in view.payload:
            return False
        if self.srcallow and any(m.matches(view.src_address) for m in self.srcallow):
            return False
        return True

    def has_matchers(self) -> bool:
        return (self.proto_name != "any" or self.src_addr is not None
                or self.src_port is not None or self.dst_addr is not None
                or self.dst_port is not None or self.payload_sub is not None
                or self.rate is not None or bool(self.srcallow))


def _parse_addr(token: str, line: int) -> AddrMatcher | None:
    if token == "any":
        return None
    addr, _, bits = token.partition("/")
    try:
        prefix = ip_to_int(addr)
    except ValueError:
        raise RuleSyntaxError(line, f"bad address {token!r}") from None
    if bits:
        try:
            nbits = int(bits)
        except ValueError:
            raise RuleSyntaxError(line, f"bad prefix length in {token!r}") from None
        if not 0 <= nbits <= 32:
            raise RuleSyntaxError(line, f"prefix length out of range in {token!r}")
        return AddrMatcher(prefix, nbits)
    return AddrMatcher(prefix, 32)


def _parse_port(token: str, line: int) -> PortMatcher | None:
    if token == "any":
        return None
    lo, sep, hi = token.partition(":")
    try:
        lo_v = int(lo)
        hi_v = int(hi) if sep else lo_v
    except ValueError:
        raise RuleSyntaxError(line, f"bad port {token!r}") from None
    if not (0 <= lo_v <= 65535 and 0 <= hi_v <= 65535 and lo_v <= hi_v):
        raise RuleSyntaxError(line, f"port out of range in {token!r}")
    return PortMatcher(lo_v, hi_v)


def parse_rules(text: str) -> list[Rule]:
    """Parse a ruleset file; an empty file is a legal empty ruleset."""
    rules: list[Rule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            tokens = shlex.split(stripped, comments=True)
        except ValueError as e:
            raise RuleSyntaxError(lineno, str(e)) from None
        if len(tokens) < 7:
            raise RuleSyntaxError(lineno, "expected: action proto src sport -> dst dport ... msg \"...\"")
        action_tok, proto_tok, src_a, src_p, arrow, dst_a, dst_p = tokens[:7]
        if action_tok not in ("alert", "block"):
            raise RuleSyntaxError(lineno, f"unknown action {action_tok!r}")
        if proto_tok not in _PROTO_SETS:
            raise RuleSyntaxError(lineno, f"unknown proto {proto_tok!r}")
        if arrow != "->":
            raise RuleSyntaxError(lineno, "missing '->'")
        payload_sub = None
        rate = None
        srcallow: tuple[AddrMatcher, ...] = ()
        msg = None
        rest = tokens[7:]
        i = 0
        while i < len(rest):
            word = rest[i]
            if word == "payload":
                if i + 1 >= len(rest):
                    raise RuleSyntaxError(lineno, "payload needs a hex argument")
                hex_s = rest[i + 1].removeprefix("0x")
                try:
                    payload_sub = bytes.fromhex(hex_s)
                except ValueError:
                    raise RuleSyntaxError(lineno, f"bad payload hex {rest[i + 1]!r}") from None
                i += 2
            elif word == "rate":
                if i + 1 >= len(rest):
                    raise RuleSyntaxError(lineno, "rate needs N/W")
                n_s, sep, w_s = rest[i + 1].partition("/")
                if not sep:
                    raise RuleSyntaxError(lineno, "rate needs N/W")
                try:
                    n, w = int(n_s), int(w_s)
                except ValueError:
                    raise RuleSyntaxError(lineno, f"bad rate {rest[i + 1]!r}") from None
                if n < 1 or w <= 0:
                    raise RuleSyntaxError(lineno, "rate needs N >= 1 and W > 0")
                rate = RateClause(n, w * WINDOW_US)
                i += 2
            elif word == "srcallow":
                if i + 1 >= len(rest):
                    raise RuleSyntaxError(lineno, "srcallow needs addresses")
                parts = rest[i + 1].split(",")
                matchers = []
                for p in parts:
                    m = _parse_addr(p, lineno)
                    if m is None:
                        raise RuleSyntaxError(lineno, "srcallow entries cannot be 'any'")
                    matchers.append(m)
                srcallow = tuple(matchers)
                i += 2
            elif word == "msg":
                if i + 1 >= len(rest):
                    raise RuleSyntaxError(lineno, "msg needs quoted text")
                msg = rest[i + 1]
                i += 2
                if i != len(rest):
                    raise RuleSyntaxError(lineno, "trailing tokens after msg")
            else:
                raise RuleSyntaxError(lineno, f"unknown clause {word!r}")
        if msg is None:
            raise RuleSyntaxError(lineno, "missing msg clause")
        rule = Rule(
            id=f"r{len(rules) + 1}",
            action=Action(action_tok),
            protos=_PROTO_SETS[proto_tok],
            proto_name=proto_tok,
            src_addr=_parse_addr(src_a, lineno),
            src_port=_parse_port(src_p, lineno),
            dst_addr=_parse_addr(dst_a, lineno),
            dst_port=_parse_port(dst_p, lineno),
            payload_sub=payload_sub,
            rate=rate,
            srcallow=srcallow,
            msg=msg,
        )
        if rule.action is Action.BLOCK and not rule.has_matchers():
            raise RuleSyntaxError(lineno, "block rule with no matchers would blackhole everything")
        rules.append(rule)
    return rules


@dataclass(frozen=True)
class Alert:
    time: int
    rule_id: str
    proto: str
    claimed_src: str
    dst: str
    payload_len: int
    msg: str


@dataclass(frozen=True)
class Verdict:
    blocked: bool
    rule_id: str | None
    inspected: bool


_PASS = Verdict(False, None, True)
_UNINSPECTED = Verdict(False, None, False)


class RateCounter:
    """Sliding-window count of static matches per (rule, claimed source).

    Only `count > threshold` is ever needed, so we keep the newest
    threshold+1 timestamps: the window is exceeded exactly when the deque
    is full and its oldest entry is still inside the window.
    """

    __slots__ = ("threshold", "window_us", "times")

    def __init__(self, clause: RateClause):
        self.threshold = clause.threshold
        self.window_us = clause.window_us
        self.times: deque[int] = deque(maxlen=clause.threshold + 1)

    def hit(self, now: int) -> bool:
        self.times.append(now)
        return len(self.times) == self.threshold + 1 and self.times[0] > now - self.window_us


def match_packet(rule: Rule, view: PacketView, counters: dict, now: int) -> bool:
    """Evaluate one rule; rate counters update on every static match."""
    if not rule.static_match(view):
        return False
    if rule.rate is None:
        return True
    key = (rule.id, view.src_address, view.src_port)
    counter = counters.get(key)
    if counter is None:
        counter = counters[key] = RateCounter(rule.rate)
    return counter.hit(now)


class IdpsEngine:
    """The inspection tap between device ingest and CSIFB delivery."""

    def __init__(self, inspection_capacity: int = 5_000):
        self.inspection_capacity = inspection_capacity
        self.mode = EngineMode.OFF
        self.running = False
        self.rules: list[Rule] = []
        self.rate_counters: dict = {}
        self._inspected_times: deque[int] = deque()
        self.presented = 0
        self.inspected = 0
        self.dropped_by_engine = 0
        self.alerts: list[Alert] = []
        self.alert_seq = 0
        self.on_alert = None  # callable(alert_seq) or None

    def start(self, rules: list[Rule], mode: EngineMode) -> None:
        """(Re)start with fresh counters, as a lifecycle INIT does."""
        self.rules = rules
        self.mode = mode
        self.running = mode is not EngineMode.OFF
        self.rate_counters = {}
        self._inspected_times = deque()
        self.presented = 0
        self.inspected = 0
        self.dropped_by_engine = 0
        self.alerts = []
        self.alert_seq = 0

    def stop(self) -> None:
        self.running = False

    def inspect(self, view: PacketView, now: int) -> Verdict:
        if not self.running:
            return _PASS
        self.presented += 1
        times = self._inspected_times
        low = now - WINDOW_US
        while times and times[0] <= low:
            times.popleft()
        if len(times) >= self.inspection_capacity:
            # Saturated: fail open, skip rule evaluation entirely.
            self.dropped_by_engine += 1
            return _UNINSPECTED
        times.append(now)
        self.inspected += 1
        for rule in self.rules:
            if match_packet(rule, view, self.rate_counters, now):
                self._raise_alert(rule, view, now)
                if rule.action is Action.BLOCK and self.mode is EngineMode.IPS:
                    return Verdict(True, rule.id, True)
                return Verdict(False, rule.id, True)
        return _PASS

    def _raise_alert(self, rule: Rule, view: PacketView, now: int) -> None:
        self.alerts.append(Alert(
            now, rule.id, view.proto.value,
            f"{int_to_ip(view.src_address)}:{view.src_port}",
            f"{int_to_ip(view.dst_address)}:{view.dst_port}",
            len(view.payload), rule.msg))
        self.alert_seq += 1
        if self.on_alert is not None:
            self.on_alert(self.alert_seq)


# -- function-block packaging ------------------------------------------------

STATUS_STOPPED = b"STOPPED"
STATUS_RUNNING = b"RUNNING"
STATUS_FAULT = b"FAULT"


def parse_params(params: bytes) -> tuple[EngineMode, str]:
    """PARAMS string: 'mode=<off|ids|ips>;rules=<path>'."""
    mode = None
    path = None
    for part in params.decode(errors="replace").split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"bad PARAMS fragment {part!r}")
        if key == "mode":
            try:
                mode = EngineMode(value)
            except ValueError:
                raise ValueError(f"unknown mode {value!r}") from None
        elif key == "rules":
            path = value
        else:
            raise ValueError(f"unknown PARAMS key {key!r}")
    if mode is None:
        raise ValueError("PARAMS missing mode")
    if path is None and mode is not EngineMode.OFF:
        raise ValueError("PARAMS missing rules path")
    return mode, path or ""


def make_idps_sifb(id: str, engine: IdpsEngine, read_rules=None) -> FBInstance:
    """Service-interface block that starts/stops the engine.

    `read_rules(path)` returns ruleset text; defaults to reading the file.
    STATUS reflects the lifecycle; ALERT_SEQ is also pushed from the service
    side on every alert so a poller can sample it between events.
    """
    if read_rules is None:
        def read_rules(path: str) -> str:
            with open(path, "r", encoding="utf-8") as f:
                return f.read()

    def behavior(ctx, event, inputs, state):
        status = state
        if event == "INIT":
            if status == STATUS_RUNNING:
                return status, [(None, {"QO": Bool(False)})]  # DoubleInit ignored
            try:
                mode, path = parse_params(inputs["PARAMS"].raw)
                rules = parse_rules(read_rules(path)) if mode is not EngineMode.OFF else []
            except Exception as e:
                # Fail open: the application keeps running uninspected.
                log.warning("%s: engine start failed, all traffic passes: %s", id, e)
                engine.stop()
                return STATUS_FAULT, [(None, {"STATUS": Str(STATUS_FAULT), "QO": Bool(False)})]
            engine.start(rules, mode)
            return STATUS_RUNNING, [("INITO", {
                "STATUS": Str(STATUS_RUNNING), "ALERT_SEQ": Int(0), "QO": Bool(True)})]
        if event == "STOP":
            if status != STATUS_RUNNING:
                return status, [(None, {"QO": Bool(False)})]  # StopWhileStopped ignored
            engine.stop()
            return STATUS_STOPPED, [(None, {"STATUS": Str(STATUS_STOPPED), "QO": Bool(True)})]
        return status, []

    ports = [
        PortSpec("INIT", PortKind.EVENT_IN, associated_data=("PARAMS",)),
        PortSpec("STOP", PortKind.EVENT_IN),
        PortSpec("INITO", PortKind.EVENT_OUT, associated_data=("STATUS", "QO")),
        PortSpec("PARAMS", PortKind.DATA_IN, Variant.STRING),
        PortSpec("STATUS", PortKind.DATA_OUT, Variant.STRING),
        PortSpec("ALERT_SEQ", PortKind.DATA_OUT, Variant.INT),
        PortSpec("QO", PortKind.DATA_OUT, Variant.BOOL),
    ]
    return FBInstance(id, ports, behavior, state=STATUS_STOPPED)


def make_alertcheck(id: str, hold_window_us: int = 2_000_000) -> FBInstance:
    """Polls the alert counter; QO holds true while an increase is recent."""

    def behavior(ctx, event, inputs, state):
        last_seq, rise = state
        seq = inputs["SEQ"].raw
        if seq > last_seq:
            rise = ctx.now
        qo = rise is not None and (ctx.now - rise) < hold_window_us
        return (seq, rise), [("EO", {"QO": Bool(qo)})]

    ports = [
        PortSpec("POLL", PortKind.EVENT_IN, associated_data=("SEQ",)),
        PortSpec("SEQ", PortKind.DATA_IN, Variant.INT),
        PortSpec("EO", PortKind.EVENT_OUT, associated_data=("QO",)),
        PortSpec("QO", PortKind.DATA_OUT, Variant.BOOL),
    ]
    return FBInstance(id, ports, behavior, state=(0, None))


def make_idps_cfb(engine: IdpsEngine, hold_window_us: int = 2_000_000,
                  read_rules=None) -> CompositeFB:
    """Composite of the lifecycle SIFB and the alert poller; A is the flag."""

    def build_interior():
        sifb = make_idps_sifb("SIFB", engine, read_rules=read_rules)
        check = make_alertcheck("ALERTCHECK", hold_window_us)
        return [sifb, check], [], [("SIFB.ALERT_SEQ", "ALERTCHECK.SEQ")]

    interface = [
        PortSpec("INIT", PortKind.EVENT_IN),
        PortSpec("STOP", PortKind.EVENT_IN),
        PortSpec("POLL", PortKind.EVENT_IN),
        PortSpec("INITO", PortKind.EVENT_OUT),
        PortSpec("PARAMS", PortKind.DATA_IN, Variant.STRING),
        PortSpec("STATUS", PortKind.DATA_OUT, Variant.STRING),
        PortSpec("A", PortKind.DATA_OUT, Variant.BOOL),
    ]
    bindings = {
        "INIT": ("SIFB", "INIT"),
        "STOP": ("SIFB", "STOP"),
        "POLL": ("ALERTCHECK", "POLL"),
        "INITO": ("SIFB", "INITO"),
        "PARAMS": ("SIFB", "PARAMS"),
        "STATUS": ("SIFB", "STATUS"),
        "A": ("ALERTCHECK", "QO"),
    }
    return CompositeFB(interface, build_interior, bindings)
