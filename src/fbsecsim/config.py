"""Scenario configuration: line-oriented `section.key = value` text with
repeated `[attacks]` blocks.

The keys are the fields of the config dataclasses below: `idps.*`,
`plant.*` and `tcp_probe.*` name the fields of their section,
`device.<id>.*` those of `DeviceConfig`, keys inside an `[attacks]`
block those of `AttackConfig`, and `_ALIASES` maps the flat
`run.*`, `net.*` and `safemode.policy` keys onto `ScenarioConfig`.  A
field's annotation names its domain in `_DOMAINS`: the coercion of its
text and the check of its value.  Each string format has one parser here,
for `validate` to check a value with and for `scenario` to resolve it.

`parse_scenario_text` only parses and coerces: an unknown block,
section or key, or a value its field's type rejects, is an error there.
`validate` is the one check of what the values mean, for a config parsed
or built in code; it runs once per run, in `run_scenario` and `run_sweep`,
and `fbsecsim validate` calls it.  It checks every domain, in enabled
sections or not, then the rules across fields.  The seed is mandatory
(runs must be reproducible, never wall-clock seeded).  Every error names
its key path.
"""

from __future__ import annotations

import math
import os
from collections.abc import Container
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Callable

from .attacks import GHOST_ID, AttackKind
from .errors import ConfigError, RuleSyntaxError
from .fbnet import US
from .idps import Rule, parse_rules
from .plant import FULL
from .transport import ip_to_int

# Annotations that name a field's domain (see `_DOMAINS`), aliases of its type.
Positive = Port = int
Period = Instant = Fraction = float
Instants = tuple[float, ...]
Address = MaybeAddress = GroupEndpoint = ClaimedSource = Mode = Policy = str


@dataclass
class DeviceConfig:
    address: Address
    capacity: Positive = 10_000
    critical_rate: Positive = 1_000_000
    halfopen_capacity: Positive = 128
    halfopen_timeout_s: Period = 3.0


@dataclass
class IdpsConfig:
    enabled: bool = False
    mode: Mode = "ids"
    ruleset: str = ""
    inspection_capacity: Positive = 5_000
    poll_period_ms: Positive = 100
    hold_window_s: Period = 2.0


@dataclass
class PlantConfig:
    tick_ms: Positive = 10
    rate_per_tick: Fraction = 0.1
    box_period_s: Period = 5.0
    first_box_s: Instant = 5.0


@dataclass
class TcpProbeConfig:
    enabled: bool = False
    server_port: Port = 61500
    client_address: Address = "192.168.1.30"
    connect_at_s: Instants = ()


@dataclass
class AttackConfig:
    name: str
    kind: AttackKind
    target: str = "group"                 # "group" or "device:port"
    rate: int = 0
    start_s: Instant = 0.0
    stop_s: Instant = 0.0
    at_s: Instants = ()
    payload: bytes = b"\x00"
    claimed_src: ClaimedSource = ""       # "a.b.c.d:port", "plc1", or "" (own)
    attacker: str = ""
    attacker_address: MaybeAddress = ""
    attacker_count: Positive = 1


@dataclass
class ScenarioConfig:
    seed: int
    duration_s: Period = 60.0
    event_budget: Positive = 50_000_000
    latency_us: Positive = 500
    group: GroupEndpoint = "239.192.0.2:61499"
    devices: dict[str, DeviceConfig] = field(default_factory=dict)
    idps: IdpsConfig = field(default_factory=IdpsConfig)
    safemode: Policy = "gate_and_hold"
    plant: PlantConfig = field(default_factory=PlantConfig)
    tcp_probe: TcpProbeConfig = field(default_factory=TcpProbeConfig)
    attacks: list[AttackConfig] = field(default_factory=list)

    @property
    def duration_us(self) -> int:
        return round(self.duration_s * US)

    def attack(self, name: str) -> AttackConfig:
        for a in self.attacks:
            if a.name == name:
                return a
        raise ConfigError("attacks", f"no attack named {name!r}")

    def with_attack_rate(self, name: str, rate: int) -> "ScenarioConfig":
        """Same scenario with one flood's rate substituted (for sweeps)."""
        old = self.attack(name)
        return replace(self, attacks=[replace(a, rate=rate) if a is old else a
                                      for a in self.attacks])

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)


def _parser(convert: Callable[[str], Any], reason: str | None) -> Callable[[str, str], Any]:
    """The parse of a text by `convert`: a ValueError or KeyError it raises
    is a ConfigError, `reason` formatted with the text, or the error's own."""
    def parse(value: str, path: str) -> Any:
        try:
            return convert(value)
        except (ValueError, KeyError) as e:
            raise ConfigError(path, str(e) if reason is None else reason.format(value)) from None
    return parse


def _check(ok: Callable[[Any], bool], reason: str) -> Callable[[Any, str], Any]:
    """The check of a domain: a ConfigError, `reason` formatted with the
    value, unless `ok(value)`; returns the value."""
    def check(value: Any, path: str) -> Any:
        if not ok(value):
            raise ConfigError(path, reason.format(value))
        return value
    return check


_BOOLS = {**dict.fromkeys(("true", "yes", "1", "on"), True),
          **dict.fromkeys(("false", "no", "0", "off"), False)}
_parse_bool = _parser(_BOOLS.__getitem__, "expected a boolean, got {!r}")
_parse_int = _parser(int, "expected an integer, got {!r}")
_parse_float = _parser(float, "expected a number, got {!r}")
_parse_hex = _parser(lambda value: bytes.fromhex(value.removeprefix("0x")), "bad hex {!r}")
_parse_kind = _parser(AttackKind, "unknown kind {!r}")
_text = _parser(str, None)  # the text itself
parse_address = _parser(ip_to_int, None)  # a dotted IPv4 address, as its int
_port = _check(lambda port: 0 <= port <= 65535, "port {} is outside 0-65535")


def _parse_floats(value: str, path: str) -> tuple[float, ...]:
    return tuple(_parse_float(p.strip(), path) for p in value.split(",")) if value.strip() else ()


def _us_at_least(least: int, each: bool = False) -> Callable[[Any, str], Any]:
    """The check of a time a run rounds to whole microseconds, or of each of
    a tuple of them: finite in us, and at least `least` us once rounded."""
    def ok(t: float) -> bool:
        return math.isfinite(t * US) and round(t * US) >= least
    return _check((lambda ts: all(map(ok, ts))) if each else ok,
                  f"must be finite and at least {least} us once rounded to whole us")


def parse_endpoint(value: str, path: str, port_required: bool = True) -> tuple[int, int | None]:
    """`a.b.c.d:port` as (address, port); the port may be left empty, as
    None, unless it is required."""
    addr, sep, port = value.rpartition(":")
    if not sep:
        raise ConfigError(path, f"expected address:port, got {value!r}")
    address = parse_address(addr, path)
    if port or port_required:
        return address, _port(_parse_int(port, path), path)
    return address, None


def parse_target(value: str, devices: Container[str], path: str) -> tuple[str, int] | None:
    """An attack's target: None for "group", else `device:port`, the device
    one of `devices`, as (device id, port)."""
    if value == "group":
        return None
    dev_id, _, port = value.partition(":")
    if dev_id not in devices:
        raise ConfigError(path, f"unknown target device {dev_id!r}")
    if not port:
        raise ConfigError(path, "target needs device:port")
    return dev_id, _port(_parse_int(port, path), path)


# Each field's domain, keyed by its annotation as written: the coercion of a
# key's text, and the check of its value in `validate` (None: any value of
# the type).  A field of any other type is not a key.
_DOMAINS = {
    "bool": (_parse_bool, None),
    "int": (_parse_int, None),
    "str": (_text, None),
    "bytes": (_parse_hex, None),
    "AttackKind": (_parse_kind, None),
    "Positive": (_parse_int, _check(lambda value: value > 0, "must be positive")),
    "Port": (_parse_int, _port),
    "Period": (_parse_float, _us_at_least(1)),
    "Instant": (_parse_float, _us_at_least(0)),
    "Instants": (_parse_floats, _us_at_least(0, each=True)),
    # the plant moves in whole milli-positions per tick
    "Fraction": (_parse_float, _check(lambda value: math.isfinite(value)
                                      and 0 < round(value * FULL) <= FULL,
                                      "must be in (0, 1] once rounded to 0.001")),
    "Address": (_text, parse_address),
    "MaybeAddress": (_text, lambda value, path: value and parse_address(value, path)),
    "GroupEndpoint": (_text, parse_endpoint),
    "ClaimedSource": (_text, lambda value, path: value in ("", "plc1")
                      or parse_endpoint(value, path, port_required=False)),
    "Mode": (_text, _check(("off", "ids", "ips").__contains__,
                           "mode must be off|ids|ips, got {!r}")),
    "Policy": (_text, _check(("gate_and_hold", "log_only", "shutdown").__contains__,
                             "unknown policy {!r}")),
}

_ALIASES = {
    "run.seed": "seed",
    "run.duration_s": "duration_s",
    "run.event_budget": "event_budget",
    "net.latency_us": "latency_us",
    "net.group": "group",
    "safemode.policy": "safemode",
}
_KEY_OF = {name: key for key, name in _ALIASES.items()}
_FLAT_SECTIONS = {key.partition(".")[0] for key in _ALIASES}

# Section name -> its config class, for the dataclass-valued fields.
_SECTIONS = {f.name: f.default_factory for f in fields(ScenarioConfig)
             if is_dataclass(f.default_factory)}

# Key table: config class -> {field name: (coercion, check)}.
_KEYS = {
    cls: {f.name: _DOMAINS[f.type] for f in fields(cls) if f.type in _DOMAINS}
    for cls in (ScenarioConfig, DeviceConfig, AttackConfig, *_SECTIONS.values())
}
# What `validate` walks: config class -> [(field name, check, default)].
# Every default is in its field's domain, so a value equal to it passes.
_CHECKS = {cls: [(f.name, _DOMAINS[f.type][1], f.default) for f in fields(cls)
                 if _DOMAINS.get(f.type, (None, None))[1]] for cls in _KEYS}

_DEFAULT_ADDRESSES = {"plc1": "192.168.1.1", "plc2": "192.168.1.2"}
PROBE_CLIENT_ID = "client1"  # device id of the TCP probe's client


def _target(cfg: ScenarioConfig, key: str) -> tuple[object, str]:
    """The config object and field name a top-level key sets."""
    if key in _ALIASES:
        return cfg, _ALIASES[key]
    section, _, rest = key.partition(".")
    if section in _SECTIONS:
        return getattr(cfg, section), rest
    if section == "device":
        dev_id, _, attr = rest.partition(".")
        if dev_id not in cfg.devices:
            raise ConfigError(key, f"unknown device {dev_id!r} (plc1 and plc2 exist)")
        return cfg.devices[dev_id], attr
    if section in _FLAT_SECTIONS:
        raise ConfigError(key, "unknown key")
    raise ConfigError(key, "unknown section")


def _assign(obj: object, name: str, value: str, path: str) -> None:
    domain = _KEYS[type(obj)].get(name)
    if domain is None:
        raise ConfigError(path, "unknown key")
    setattr(obj, name, domain[0](value, path))


def parse_scenario_text(text: str, base_dir: str = ".") -> ScenarioConfig:
    cfg = ScenarioConfig(seed=None)
    cfg.devices = {pid: DeviceConfig(address=addr) for pid, addr in _DEFAULT_ADDRESSES.items()}
    in_attack = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[attacks]":
            cfg.attacks.append(AttackConfig(name="", kind=AttackKind.UDP_FLOOD))
            in_attack = True
            continue
        if line.startswith("["):
            raise ConfigError(f"line {lineno}", f"unknown block {line!r}")
        key, sep, value = (p.strip() for p in line.partition("="))
        if not sep or not key:
            raise ConfigError(f"line {lineno}", "expected 'key = value'")
        if in_attack and "." not in key:
            _assign(cfg.attacks[-1], key, value, f"attacks[{len(cfg.attacks) - 1}].{key}")
        else:
            _assign(*_target(cfg, key), value, key)

    if cfg.idps.ruleset:
        cfg.idps.ruleset = os.path.normpath(os.path.join(base_dir, cfg.idps.ruleset))
    return cfg


def validate(cfg: ScenarioConfig) -> list[Rule]:
    """Raise ConfigError, with its key path, at the first value a run would
    reject.  Run once at the start of every run, and by `fbsecsim validate`.
    Returns the parsed ruleset, or [] when no engine inspects."""
    if cfg.seed is None:
        raise ConfigError("seed", "run.seed is mandatory: runs must be reproducible")
    scopes = [(cfg, None), *((dev, f"device.{dev_id}") for dev_id, dev in cfg.devices.items()),
              *((getattr(cfg, s), s) for s in _SECTIONS),
              *((a, f"attacks[{i}]") for i, a in enumerate(cfg.attacks))]
    for obj, scope in scopes:
        for name, check, default in _CHECKS[type(obj)]:
            value = getattr(obj, name)
            if value != default:
                check(value, f"{scope}.{name}" if scope else _KEY_OF[name])

    idps = cfg.idps
    rules: list[Rule] = []
    if idps.enabled:
        if idps.mode != "off" and not idps.ruleset:
            raise ConfigError("idps.ruleset", "required when the engine is enabled")
        if idps.ruleset and not os.path.isfile(idps.ruleset):
            raise ConfigError("idps.ruleset", f"file not found: {idps.ruleset}")
        if idps.mode != "off":
            try:
                rules = parse_rules(read_text(idps.ruleset))
            except (RuleSyntaxError, ConfigError) as e:
                raise ConfigError("idps.ruleset", str(e)) from None

    seen: set[str] = set()
    for i, a in enumerate(cfg.attacks):
        path = f"attacks[{i}]"
        if not a.name:
            raise ConfigError(f"{path}.name", "attack needs a name")
        if a.name in seen:
            raise ConfigError(f"{path}.name", f"duplicate attack name {a.name!r}")
        seen.add(a.name)
        parse_target(a.target, cfg.devices, f"{path}.target")
        if a.attacker == GHOST_ID:
            raise ConfigError(f"{path}.attacker", f"{GHOST_ID!r} is reserved for spoofed sources")
        if a.attacker in cfg.devices or a.attacker == PROBE_CLIENT_ID:
            raise ConfigError(f"{path}.attacker", f"{a.attacker!r} names a scenario device")
        if a.kind is AttackKind.SPOOF_PUBLISH:
            if not a.at_s:
                raise ConfigError(f"{path}.at_s", "spoof needs send times")
            continue
        if a.rate <= 0:
            raise ConfigError(f"{path}.rate", "flood rate must be positive")
        span_us = round(a.stop_s * US) - round(a.start_s * US)
        if span_us <= 0:
            raise ConfigError(f"{path}.start_s", "start must precede stop by at least 1 us "
                                                 "once both are rounded to whole us")
        if a.rate % a.attacker_count:
            raise ConfigError(f"{path}.rate", "must divide evenly across attackers")
        if a.rate * span_us // US > cfg.event_budget:
            raise ConfigError(f"{path}.rate", f"{a.rate}/s over {span_us / US:.3f}s "
                                              f"exceeds the event budget of {cfg.event_budget}")
    return rules


def read_text(path: str) -> str:
    """The file's UTF-8 text; a ConfigError naming `path` if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(path, str(e)) from None


def parse_scenario_file(path: str) -> ScenarioConfig:
    return parse_scenario_text(read_text(path), base_dir=os.path.dirname(os.path.abspath(path)))
