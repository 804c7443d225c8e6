"""Scenario configuration: line-oriented `section.key = value` text with
repeated `[attacks]` blocks.

The keys are the fields of the config dataclasses below: `idps.*`,
`plant.*` and `tcp_probe.*` name the fields of their section,
`device.<id>.*` those of `DeviceConfig`, keys inside an `[attacks]`
block those of `AttackConfig`, and `_ALIASES` maps the flat
`run.*`, `net.*` and `safemode.policy` keys onto `ScenarioConfig`.  Each
value is coerced by its field's type.

`parse_scenario_text` only parses and coerces: an unknown block,
section or key, or a value its field's type rejects, is an error there.
`validate` is the one check of what the values mean, for a config parsed
or built in code; it runs once per run, in `run_scenario` and `run_sweep`,
and `fbsecsim validate` calls it.  The seed is mandatory (runs must be
reproducible, never wall-clock seeded).  Every error names its key path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .attacks import GHOST_ID, AttackKind
from .errors import ConfigError, RuleSyntaxError
from .fbnet import US
from .idps import Rule, parse_rules
from .plant import FULL
from .transport import ip_to_int


@dataclass
class DeviceConfig:
    address: str
    capacity: int = 10_000
    critical_rate: int = 1_000_000
    halfopen_capacity: int = 128
    halfopen_timeout_s: float = 3.0


@dataclass
class IdpsConfig:
    enabled: bool = False
    mode: str = "ids"
    ruleset: str = ""
    inspection_capacity: int = 5_000
    poll_period_ms: int = 100
    hold_window_s: float = 2.0


@dataclass
class PlantConfig:
    tick_ms: int = 10
    rate_per_tick: float = 0.1
    box_period_s: float = 5.0
    first_box_s: float = 5.0


@dataclass
class TcpProbeConfig:
    enabled: bool = False
    server_port: int = 61500
    client_address: str = "192.168.1.30"
    connect_at_s: tuple[float, ...] = ()


@dataclass
class AttackConfig:
    name: str
    kind: AttackKind
    target: str = "group"                 # "group" or "device:port"
    rate: int = 0
    start_s: float = 0.0
    stop_s: float = 0.0
    at_s: tuple[float, ...] = ()
    payload: bytes = b"\x00"
    claimed_src: str = ""                 # "a.b.c.d:port", "plc1", or "" (own)
    attacker: str = ""
    attacker_address: str = ""
    attacker_count: int = 1


@dataclass
class ScenarioConfig:
    seed: int
    duration_s: float = 60.0
    event_budget: int = 50_000_000
    latency_us: int = 500
    group: str = "239.192.0.2:61499"
    devices: dict[str, DeviceConfig] = field(default_factory=dict)
    idps: IdpsConfig = field(default_factory=IdpsConfig)
    safemode: str = "gate_and_hold"
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


def _parse_bool(value: str, path: str) -> bool:
    if value in ("true", "yes", "1", "on"):
        return True
    if value in ("false", "no", "0", "off"):
        return False
    raise ConfigError(path, f"expected a boolean, got {value!r}")


def _parse_int(value: str, path: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(path, f"expected an integer, got {value!r}") from None


def _parse_float(value: str, path: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(path, f"expected a number, got {value!r}") from None


def _parse_floats(value: str, path: str) -> tuple[float, ...]:
    if not value.strip():
        return ()
    return tuple(_parse_float(p.strip(), path) for p in value.split(","))


def _parse_hex(value: str, path: str) -> bytes:
    try:
        return bytes.fromhex(value.removeprefix("0x"))
    except ValueError:
        raise ConfigError(path, f"bad hex {value!r}") from None


def _parse_kind(value: str, path: str) -> AttackKind:
    try:
        return AttackKind(value)
    except ValueError:
        raise ConfigError(path, f"unknown kind {value!r}") from None


# One coercion per field type, keyed by the annotation as written; a field
# of any other type is not a key.
_COERCE = {
    "bool": _parse_bool,
    "int": _parse_int,
    "float": _parse_float,
    "str": lambda value, path: value,
    "tuple[float, ...]": _parse_floats,
    "bytes": _parse_hex,
    "AttackKind": _parse_kind,
}

_ALIASES = {
    "run.seed": "seed",
    "run.duration_s": "duration_s",
    "run.event_budget": "event_budget",
    "net.latency_us": "latency_us",
    "net.group": "group",
    "safemode.policy": "safemode",
}
_FLAT_SECTIONS = {key.partition(".")[0] for key in _ALIASES}

# Section name -> its config class, for the dataclass-valued fields.
_SECTIONS = {f.name: f.default_factory for f in fields(ScenarioConfig)
             if is_dataclass(f.default_factory)}

# Key table: config class -> {field name: coercion}.
_KEYS = {
    cls: {f.name: _COERCE[f.type] for f in fields(cls) if f.type in _COERCE}
    for cls in (ScenarioConfig, DeviceConfig, AttackConfig, *_SECTIONS.values())
}

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
    coerce = _KEYS[type(obj)].get(name)
    if coerce is None:
        raise ConfigError(path, "unknown key")
    setattr(obj, name, coerce(value, path))


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


def _check_address(value: str, path: str) -> None:
    try:
        ip_to_int(value)
    except ValueError as e:
        raise ConfigError(path, str(e)) from None


def _check_endpoint(value: str, path: str, port_required: bool) -> None:
    """`a.b.c.d:port`; the port may be left empty unless it is required."""
    addr, sep, port = value.rpartition(":")
    if not sep:
        raise ConfigError(path, f"expected address:port, got {value!r}")
    _check_address(addr, path)
    if port or port_required:
        _check_port(_parse_int(port, path), path)


def _check_port(port: int, path: str) -> None:
    if not 0 <= port <= 65535:
        raise ConfigError(path, f"port {port} is outside 0-65535")


def _check_positive(obj: object, section: str, *names: str) -> None:
    for name in names:
        if getattr(obj, name) <= 0:
            raise ConfigError(f"{section}.{name}", "must be positive")


def _check_us(obj: object, section: str, *names: str, least: int = 1) -> None:
    """Times a run rounds to whole microseconds, alone or in a tuple: each
    must be finite in us and round to at least `least` us."""
    for name in names:
        value = getattr(obj, name)
        for t in value if isinstance(value, tuple) else (value,):
            if not (math.isfinite(t * US) and round(t * US) >= least):
                raise ConfigError(f"{section}.{name}", f"must be finite and at least "
                                                       f"{least} us once rounded to whole us")


def validate(cfg: ScenarioConfig) -> list[Rule]:
    """Raise ConfigError, with its key path, at the first value a run would
    reject.  Run once at the start of every run, and by `fbsecsim validate`.
    Returns the parsed ruleset, or [] when no engine inspects."""
    if cfg.seed is None:
        raise ConfigError("seed", "run.seed is mandatory: runs must be reproducible")
    _check_us(cfg, "run", "duration_s")
    _check_positive(cfg, "run", "event_budget")
    _check_positive(cfg, "net", "latency_us")
    _check_endpoint(cfg.group, "net.group", port_required=True)
    if cfg.safemode not in ("gate_and_hold", "log_only", "shutdown"):
        raise ConfigError("safemode.policy", f"unknown policy {cfg.safemode!r}")
    for dev_id, dev in cfg.devices.items():
        _check_address(dev.address, f"device.{dev_id}.address")
        _check_positive(dev, f"device.{dev_id}", "capacity", "critical_rate", "halfopen_capacity")
        _check_us(dev, f"device.{dev_id}", "halfopen_timeout_s")
    idps = cfg.idps
    if idps.mode not in ("off", "ids", "ips"):
        raise ConfigError("idps.mode", f"mode must be off|ids|ips, got {idps.mode!r}")
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
        _check_positive(idps, "idps", "inspection_capacity", "poll_period_ms")
        _check_us(idps, "idps", "hold_window_s")
    _check_positive(cfg.plant, "plant", "tick_ms")
    _check_us(cfg.plant, "plant", "box_period_s")
    _check_us(cfg.plant, "plant", "first_box_s", least=0)
    # the plant moves in whole milli-positions per tick
    rate = cfg.plant.rate_per_tick
    if not (math.isfinite(rate) and 0 < round(rate * FULL) <= FULL):
        raise ConfigError("plant.rate_per_tick", "must be in (0, 1] once rounded to 0.001")
    _check_address(cfg.tcp_probe.client_address, "tcp_probe.client_address")
    _check_port(cfg.tcp_probe.server_port, "tcp_probe.server_port")
    if cfg.tcp_probe.enabled:
        _check_us(cfg.tcp_probe, "tcp_probe", "connect_at_s", least=0)

    seen: set[str] = set()
    for i, a in enumerate(cfg.attacks):
        path = f"attacks[{i}]"
        if not a.name:
            raise ConfigError(f"{path}.name", "attack needs a name")
        if a.name in seen:
            raise ConfigError(f"{path}.name", f"duplicate attack name {a.name!r}")
        seen.add(a.name)
        if a.target != "group":
            dev_id, _, port = a.target.partition(":")
            if dev_id not in cfg.devices:
                raise ConfigError(f"{path}.target", f"unknown target device {dev_id!r}")
            if not port:
                raise ConfigError(f"{path}.target", "target needs device:port")
            _check_port(_parse_int(port, f"{path}.target"), f"{path}.target")
        if a.claimed_src not in ("", "plc1"):
            _check_endpoint(a.claimed_src, f"{path}.claimed_src", port_required=False)
        if a.attacker == GHOST_ID:
            raise ConfigError(f"{path}.attacker", f"{GHOST_ID!r} is reserved for spoofed sources")
        if a.attacker in cfg.devices or a.attacker == PROBE_CLIENT_ID:
            raise ConfigError(f"{path}.attacker", f"{a.attacker!r} names a scenario device")
        if a.attacker_address:
            _check_address(a.attacker_address, f"{path}.attacker_address")
        if a.kind is AttackKind.SPOOF_PUBLISH:
            if not a.at_s:
                raise ConfigError(f"{path}.at_s", "spoof needs send times")
            _check_us(a, path, "at_s", least=0)
            continue
        if a.rate <= 0:
            raise ConfigError(f"{path}.rate", "flood rate must be positive")
        _check_us(a, path, "start_s", "stop_s", least=0)
        span_us = round(a.stop_s * US) - round(a.start_s * US)
        if span_us <= 0:
            raise ConfigError(f"{path}.start_s", "start must precede stop by at least 1 us "
                                                 "once both are rounded to whole us")
        if a.attacker_count < 1:
            raise ConfigError(f"{path}.attacker_count", "must be >= 1")
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
