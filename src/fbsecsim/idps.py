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

import shlex
from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat
from typing import Callable

from .errors import RuleSyntaxError
from .fbnet import US, FBInstance, FBNetwork, PortKind, PortSpec
from .transport import Proto, PacketView, first_held, int_to_ip, ip_to_int
from .values import Bool, Int, Str, Variant


class Action(Enum):
    ALERT = "alert"
    BLOCK = "block"


class EngineMode(Enum):
    OFF = "off"
    IDS = "ids"
    IPS = "ips"


# Module names for per-packet code: an Enum class read is ~10x a global on 3.10/3.11.
BLOCK, IPS = Action.BLOCK, EngineMode.IPS


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
        """Every non-rate matcher against the claimed header and payload; the
        caller has matched the protocol (it picks rules by `protos`)."""
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

    def has_static_matchers(self) -> bool:  # does `static_match` test anything?
        return (self.src_addr is not None or self.src_port is not None
                or self.dst_addr is not None or self.dst_port is not None
                or self.payload_sub is not None or bool(self.srcallow))


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
                rate = RateClause(n, w * US)
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
        if rule.action is Action.BLOCK and not (
                proto_tok != "any" or rate is not None or rule.has_static_matchers()):
            raise RuleSyntaxError(lineno, "block rule with no matchers would blackhole everything")
        rules.append(rule)
    return rules


@dataclass(slots=True)
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


_SWEEP_MIN = 1024  # a rate table never sweeps below this many windows


class RateCounters(dict):
    """(rule id, claimed address, claimed port) -> the newest threshold+1
    hit times, which exceed the rate exactly when all are inside the window;
    a key's first hit is its bare timestamp, since one hit never fires.

    A new key first sweeps out every key whose newest hit has left its
    rule's window, once the table has doubled since the last sweep, so a
    flood that rotates its claimed source keeps a bounded table; a window
    with a stale hit cannot fire, so no verdict changes.  Hit times never
    go backwards, so no newest hit is older than `floor`, the last scan's
    time or the oldest key it kept; a sweep while that lies inside the
    shortest window skips the scan.
    """

    # no instance __dict__: `get` stays as fast as a dict's
    __slots__ = ("sweep_at", "window_us", "floor")

    def __init__(self):
        super().__init__()
        self.sweep_at = _SWEEP_MIN
        self.window_us: dict[str, int] = {}  # rule id -> window length of its keys
        self.floor = 0

    def _sweep(self, now: int) -> None:
        window_us = self.window_us
        if self.floor <= now - min(window_us.values()):
            for k in [k for k, w in self.items()
                      if (w if type(w) is int else w[-1]) <= now - window_us[k[0]]]:
                del self[k]
            self.floor = min([now, *(w if type(w) is int else w[-1] for w in self.values())])
        self.sweep_at = max(_SWEEP_MIN, 2 * len(self))

    def add(self, key: tuple, clause: RateClause, now: int) -> None:
        """Store the first hit of a new key as its bare timestamp."""
        self.window_us[key[0]] = clause.window_us
        if len(self) >= self.sweep_at:
            self._sweep(now)
        self[key] = now

    def fill(self, rules: list[Rule], addresses: Sequence[int], ports: Sequence[int],
             times: list[int]) -> None:
        """`add` the first hits of new keys: source i's (addresses[i],
        ports[i]) under each of `rules` at times[i], for each i of `times`,
        a stretch at a time between the keys that sweep."""
        for rule in rules:
            self.window_us[rule.id] = rule.rate.window_us
        hits = first_hits(rules, addresses, ports, times)
        left = len(rules) * len(times)
        while left:
            take = min(left, self.sweep_at - len(self))  # keys before the one that sweeps
            if take > 0:
                self.update(islice(hits, take))
                left -= take
            else:
                key, now = next(hits)
                self._sweep(now)
                self[key] = now
                left -= 1


def first_hits(rules: list[Rule], addresses: Sequence[int], ports: Sequence[int],
               times: list[int]) -> Iterator[tuple[tuple, int]]:
    """(rate key, time) of source i's (addresses[i], ports[i]) hit under
    each of `rules` in turn at times[i], for each i of `times` in order."""
    if len(rules) == 1:  # the general form's 1-tuples add about 14% to syn_backlog's wall_s
        return zip(zip(repeat(rules[0].id), addresses, ports), times)
    return zip(chain.from_iterable(zip(*[zip(repeat(r.id), addresses, ports) for r in rules])),
               chain.from_iterable(zip(*[times] * len(rules))))


def unseen(table: dict, rules: list[Rule], addresses: Sequence[int], ports: Sequence[int],
           n: int) -> int:
    """How many of the first n sources (addresses[i], ports[i]) come before
    the first with a key under one of `rules` in the rate table `table`."""
    for rule in rules:
        n = first_held(table, zip(repeat(rule.id), addresses, ports), n)
    return n


class StaticMatches:
    """The rules of a view's protocol that `static_match` it, in file order, as
    entries [rule, rate key, alert fields (None before its first alert)]; the
    two views that last missed keep theirs, by identity.  A protocol whose
    rules test only protocol and rate is not tested: its views share entries
    (rule, None, None): the caller makes the key from the view and keeps no
    alert fields, so a rotating source costs no entry and leaves nothing here."""

    __slots__ = ("_by_proto", "rate_only", "_v0", "_m0", "_v1", "_m1")

    def __init__(self, rules: list[Rule]):
        self._by_proto = {}  # proto -> (its rules, their shared entries if it is not tested)
        self.rate_only = {}  # proto -> its rules, if none has a static matcher and each a rate
        for p in Proto:
            mine = [r for r in rules if p in r.protos]
            tested = any(r.has_static_matchers() for r in mine)
            self._by_proto[p] = mine, None if tested else [(r, None, None) for r in mine]
            self.rate_only[p] = None if tested or any(r.rate is None for r in mine) else mine
        self._v0 = self._m0 = self._v1 = self._m1 = None

    def matching(self, view: PacketView) -> list:
        if view is self._v0:
            return self._m0
        if view is self._v1:
            return self._m1
        rules, shared = self._by_proto[view.proto]
        if shared is not None:
            return shared
        matches = [[r, (r.id, view.src_address, view.src_port), None]
                   for r in rules if r.static_match(view)]
        self._v1, self._m1, self._v0, self._m0 = self._v0, self._m0, view, matches
        return matches


class IdpsEngine:
    """The inspection tap between device ingest and CSIFB delivery."""

    def __init__(self, inspection_capacity: int = 5_000):
        self.inspection_capacity = inspection_capacity
        self.start([], EngineMode.OFF)

    def start(self, rules: list[Rule], mode: EngineMode) -> None:
        """(Re)start with fresh counters, as a lifecycle INIT does."""
        self.rules = rules
        self.mode = mode
        self.running = mode is not EngineMode.OFF
        blocking = mode is EngineMode.IPS
        self._verdicts = {r.id: Verdict(blocking and r.action is Action.BLOCK, r.id, True) for r in rules}
        self._static = StaticMatches(rules)
        self.rate_counters = RateCounters()
        self._inspected_times: deque[int] = deque()
        self.presented = 0
        self.inspected = 0
        self.dropped_by_engine = 0
        self.alerts: list[Alert] = []
        self._endpoints: dict[tuple[int, int], str] = {}  # (address, port) -> "a.b.c.d:port"

    def inspect(self, view: PacketView, now: int) -> Verdict:
        if not self.running:
            return _PASS
        self.presented += 1
        times = self._inspected_times
        low = now - US
        while times and times[0] <= low:
            times.popleft()
        if len(times) >= self.inspection_capacity:
            # Saturated: fail open, skip rule evaluation entirely.
            self.dropped_by_engine += 1
            return _UNINSPECTED
        times.append(now)
        self.inspected += 1
        counters = self.rate_counters
        for match in self._static.matching(view):
            rule, key, fields = match
            rate = rule.rate
            if rate is not None:
                if key is None:  # a shared entry
                    key = (rule.id, view.src_address, view.src_port)
                hits = counters.get(key)
                if hits is None:
                    counters.add(key, rate, now)
                    continue  # one hit never exceeds a threshold
                if type(hits) is int:
                    hits = counters[key] = deque((hits,), rate.threshold + 1)
                hits.append(now)
                if len(hits) <= rate.threshold or hits[0] <= now - rate.window_us:
                    continue  # rate not exceeded: later rules still get the packet
            if fields is None:
                fields = self._alert_fields(rule, view)
                if match[1] is not None:  # a view's own entry keeps them
                    match[2] = fields
            self.alerts.append(Alert(now, *fields))
            return self._verdicts[rule.id]
        return _PASS

    # A segment of SYNs, each the first hit of new keys, is checked with
    # `span_rules`, `room` and `unseen`, then taken by `pass_span`.

    def span_rules(self, proto: Proto) -> list[Rule] | None:
        """The rules an arrival of `proto` meets, if it passes them all when
        it is the first hit of a new key under each: `StaticMatches` hands
        them back untested and each has a rate clause; else None."""
        return self._static.rate_only[proto]

    def room(self, now: int) -> int:
        """How many arrivals from `now` on `inspect` inspects before it
        saturates, if no inspection time leaves the window meanwhile."""
        times = self._inspected_times
        low = now - US
        while times and times[0] <= low:
            times.popleft()
        return self.inspection_capacity - len(times)

    def unseen(self, rules: list[Rule], addresses: Sequence[int], ports: Sequence[int],
               n: int) -> int:
        return unseen(self.rate_counters, rules, addresses, ports, n)

    def pass_span(self, rules: list[Rule], addresses: Sequence[int], ports: Sequence[int],
                  times: list[int]) -> None:
        """Count an arrival from each source (addresses[i], ports[i]) at
        times[i], for each i of `times`, presented and inspected, and fill
        the rate table with their first hits under `rules`.  Where
        `span_rules`, `room` and `unseen` allow them, that is what one
        `inspect` each does (`tests/test_idps.py::TestSpans`)."""
        self.presented += len(times)
        self.inspected += len(times)
        self._inspected_times.extend(times)
        self.room(times[-1])  # expire what the last arrival's inspect would
        self.rate_counters.fill(rules, addresses, ports, times)

    def _alert_fields(self, rule: Rule, view: PacketView) -> tuple:
        # An Alert's fields after its time; one string per endpoint per run.
        names = self._endpoints
        src, dst = (view.src_address, view.src_port), (view.dst_address, view.dst_port)
        return (rule.id, view.proto._value_,
                names.get(src) or names.setdefault(src, f"{int_to_ip(src[0])}:{src[1]}"),
                names.get(dst) or names.setdefault(dst, f"{int_to_ip(dst[0])}:{dst[1]}"),
                len(view.payload), rule.msg)


# -- function-block packaging ------------------------------------------------

STATUS_STOPPED = b"STOPPED"
STATUS_RUNNING = b"RUNNING"


def make_idps_sifb(id: str, engine: IdpsEngine, rules: list[Rule],
                   mode: EngineMode) -> FBInstance:
    """Service-interface block whose INIT starts the engine on the parsed
    `rules` in `mode`; a second INIT is ignored.

    STATUS reads RUNNING once started.  ALERT_SEQ holds the engine's alert
    count as last sampled: INIT zeroes it, and `add_idps`'s poll writes it
    just before the poller reads it.
    """

    def behavior(ctx, event, inputs, state):
        # INIT is the only event input
        if state == STATUS_RUNNING:
            return state, [(None, {"QO": Bool(False)})]  # DoubleInit ignored
        engine.start(rules, mode)
        return STATUS_RUNNING, [("INITO", {
            "STATUS": Str(STATUS_RUNNING), "ALERT_SEQ": Int(0), "QO": Bool(True)})]

    ports = [
        PortSpec("INIT", PortKind.EVENT_IN),
        PortSpec("INITO", PortKind.EVENT_OUT, associated_data=("STATUS", "QO")),
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


FLAG = "IDPS.ALERTCHECK.QO"  # the attack flag A


def add_idps(net: FBNetwork, engine: IdpsEngine, rules: list[Rule], mode: EngineMode,
             hold_window_us: int) -> Callable[[], bool]:
    """Add the lifecycle SIFB (`IDPS.SIFB`) and the alert poller
    (`IDPS.ALERTCHECK`) to `net`, with ALERT_SEQ wired to the poller's SEQ.

    Returns `poll`: it writes the engine's alert count into ALERT_SEQ,
    dispatches the poller's POLL, which samples it, and returns A.
    """
    net.add(make_idps_sifb("IDPS.SIFB", engine, rules, mode))
    net.add(make_alertcheck("IDPS.ALERTCHECK", hold_window_us))
    net.connect("IDPS.SIFB.ALERT_SEQ", "IDPS.ALERTCHECK.SEQ")

    def poll() -> bool:
        net.set_data_out("IDPS.SIFB", "ALERT_SEQ", Int(len(engine.alerts)))
        net.dispatch("IDPS.ALERTCHECK", "POLL")
        return net.data_out("IDPS.ALERTCHECK", "QO").raw

    return poll
