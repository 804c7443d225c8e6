"""Scenario file parsing and validation diagnostics."""

import dataclasses
import glob
import os
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsecsim import cli, config
from fbsecsim.attacks import AttackKind
from fbsecsim.config import (
    AttackConfig,
    DeviceConfig,
    IdpsConfig,
    PlantConfig,
    ScenarioConfig,
    TcpProbeConfig,
    parse_scenario_file,
    parse_scenario_text,
    validate,
)
from fbsecsim.data import list_scenarios, rules_path, scenario_path
from fbsecsim.errors import ConfigError
from fbsecsim.scenario import run_scenario

MINIMAL = "run.seed = 1\n"
BENCH_SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "scenarios")
FLOOD = "[attacks]\nname = f\nkind = udp_flood\ntarget = plc2:61499\n"
SPOOF = "[attacks]\nname = s\nkind = spoof_publish\npayload = 41\n"


class TestParsing:
    def test_shipped_baseline_is_valid_and_attack_free(self):
        cfg = parse_scenario_file(scenario_path("baseline"))
        assert cfg.seed == 42 and cfg.duration_s == 60
        assert cfg.attacks == []
        assert not cfg.idps.enabled

    def test_every_shipped_scenario_parses(self):
        for name in list_scenarios():
            validate(parse_scenario_file(scenario_path(name)))
        bench = sorted(glob.glob(os.path.join(BENCH_SCENARIOS, "*.scenario")))
        assert bench, "the benchmark's scenarios are missing"
        for path in bench:
            validate(parse_scenario_file(path))

    def test_parsing_checks_no_meaning(self):
        """Only `validate` checks what a value means: a missing seed, a
        missing ruleset file and a zero flood rate all parse."""
        cfg = parse_scenario_text("idps.enabled = true\nidps.ruleset = nowhere.rules\n"
                                  + FLOOD + "rate = 0\n")
        assert cfg.seed is None and cfg.attacks[0].rate == 0
        with pytest.raises(ConfigError) as exc:
            validate(cfg)
        assert exc.value.path == "seed"

    def test_minimal_defaults(self):
        cfg = parse_scenario_text(MINIMAL)
        assert cfg.devices["plc1"].capacity == 10_000
        assert cfg.devices["plc2"].critical_rate == 1_000_000
        assert cfg.devices["plc2"].halfopen_capacity == 128
        assert cfg.latency_us == 500
        assert cfg.safemode == "gate_and_hold"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_scenario_text("# hello\n\nrun.seed = 5  # trailing\n")
        assert cfg.seed == 5

    def test_attack_block(self):
        cfg = parse_scenario_text(MINIMAL + "[attacks]\nname = f\nkind = udp_flood\n"
                                            "rate = 100\nstart_s = 1\nstop_s = 2\n"
                                            "target = plc2:61499\n")
        assert len(cfg.attacks) == 1
        a = cfg.attacks[0]
        assert a.kind is AttackKind.UDP_FLOOD and a.rate == 100

    def test_with_attack_rate_substitution(self):
        cfg = parse_scenario_file(scenario_path("sweep"))
        cfg2 = cfg.with_attack_rate("flood", 777)
        assert cfg2.attack("flood").rate == 777
        assert cfg.attack("flood").rate == 50_000  # original untouched


class TestErrors:
    def test_missing_seed(self):
        with pytest.raises(ConfigError) as exc:
            validate(parse_scenario_text("run.duration_s = 5\n"))
        assert exc.value.path == "seed"

    def test_negative_rate_path(self):
        text = MINIMAL + "[attacks]\nname = f\nkind = udp_flood\nrate = -5\nstart_s = 1\nstop_s = 2\n"
        with pytest.raises(ConfigError) as exc:
            validate(parse_scenario_text(text))
        assert exc.value.path == "attacks[0].rate"

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError) as exc:
            parse_scenario_text(MINIMAL + "run.durration_s = 5\n")
        assert "durration" in exc.value.path

    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            parse_scenario_text(MINIMAL + "network.latency = 3\n")

    def test_unknown_device(self):
        with pytest.raises(ConfigError) as exc:
            parse_scenario_text(MINIMAL + "device.plc3.capacity = 5\n")
        assert "plc3" in str(exc.value)

    def test_unknown_attack_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_scenario_text(MINIMAL + "[attacks]\nname = f\nspeed = 9\n")
        assert exc.value.path == "attacks[0].speed"

    def test_missing_ruleset_file(self):
        text = MINIMAL + "idps.enabled = true\nidps.ruleset = nowhere.rules\n"
        with pytest.raises(ConfigError) as exc:
            validate(parse_scenario_text(text, base_dir="/tmp"))
        assert exc.value.path == "idps.ruleset"

    def test_start_after_stop(self):
        text = MINIMAL + "[attacks]\nname = f\nkind = udp_flood\nrate = 10\nstart_s = 2\nstop_s = 1\n"
        with pytest.raises(ConfigError):
            validate(parse_scenario_text(text))

    def test_duplicate_attack_names(self):
        block = "[attacks]\nname = f\nkind = udp_flood\nrate = 10\nstart_s = 1\nstop_s = 2\n"
        with pytest.raises(ConfigError):
            validate(parse_scenario_text(MINIMAL + block + block))

    def test_spoof_needs_times(self):
        text = MINIMAL + "[attacks]\nname = s\nkind = spoof_publish\n"
        with pytest.raises(ConfigError) as exc:
            validate(parse_scenario_text(text))
        assert exc.value.path == "attacks[0].at_s"

    def test_bad_boolean(self):
        with pytest.raises(ConfigError):
            parse_scenario_text(MINIMAL + "idps.enabled = maybe\n")

    def test_zero_duration(self):
        with pytest.raises(ConfigError):
            validate(parse_scenario_text("run.seed = 1\nrun.duration_s = 0\n"))

    def test_unknown_attack_lookup(self):
        cfg = parse_scenario_text(MINIMAL)
        with pytest.raises(ConfigError):
            cfg.with_attack_rate("ghost", 1)

    def test_budget_overflow_path(self):
        text = (MINIMAL + "run.event_budget = 10000000\n" + FLOOD
                + "rate = 1000000\nstart_s = 0\nstop_s = 100\n")
        with pytest.raises(ConfigError) as exc:
            validate(parse_scenario_text(text))
        assert exc.value.path == "attacks[0].rate"
        assert "event budget of 10000000" in exc.value.reason

    def test_rate_must_split_evenly(self):
        text = MINIMAL + FLOOD + "rate = 1000\nattacker_count = 3\nstart_s = 0\nstop_s = 1\n"
        with pytest.raises(ConfigError) as exc:
            validate(parse_scenario_text(text))
        assert exc.value.path == "attacks[0].rate"


class TestRejectedBeforeRun:
    """Inputs the run used to reject only after it had started, each with the
    key path validation now names."""

    @pytest.mark.parametrize("text,path", [
        (MINIMAL + "net.group = nope:1\n", "net.group"),
        (MINIMAL + "net.group = 239.192.0.2\n", "net.group"),
        (MINIMAL + FLOOD.replace("plc2:61499", "plc2:abc") + "rate = 10\nstop_s = 1\n",
         "attacks[0].target"),
        (MINIMAL + SPOOF + "at_s = 5\nclaimed_src = 1.2.3:5\n", "attacks[0].claimed_src"),
        (MINIMAL + "idps.enabled = true\nidps.ruleset =\n", "idps.ruleset"),
        (MINIMAL + "idps.enabled = true\nidps.ruleset = "
         + os.path.dirname(rules_path("flood")) + "\n", "idps.ruleset"),
        (MINIMAL + FLOOD + "rate = 0\nstop_s = 1\n", "attacks[0].rate"),
        (MINIMAL + FLOOD + "rate = 1000000\nstop_s = 60\n", "attacks[0].rate"),
        (MINIMAL + SPOOF + "at_s = -1\n", "attacks[0].at_s"),
        (MINIMAL + FLOOD + "rate = 10\nstart_s = -1\nstop_s = 1\n", "attacks[0].start_s"),
        (MINIMAL + "tcp_probe.enabled = true\ntcp_probe.connect_at_s = -2\n",
         "tcp_probe.connect_at_s"),
        # a time a run rounds to whole us must be finite
        (MINIMAL + SPOOF + "at_s = nan\n", "attacks[0].at_s"),
        (MINIMAL + SPOOF + "at_s = 5, inf\n", "attacks[0].at_s"),
        (MINIMAL + "tcp_probe.enabled = true\ntcp_probe.connect_at_s = nan\n",
         "tcp_probe.connect_at_s"),
        (MINIMAL + "tcp_probe.enabled = true\ntcp_probe.connect_at_s = 1, inf\n",
         "tcp_probe.connect_at_s"),
        (MINIMAL + "run.event_budget = 0\n", "run.event_budget"),
        # a run's plant ticks alone may not exceed its event budget
        (MINIMAL + "run.duration_s = 1e300\nrun.event_budget = 1000\n", "run.duration_s"),
        (MINIMAL + "run.duration_s = 1e300\n", "run.duration_s"),
        (MINIMAL + "run.duration_s = 10\nplant.tick_ms = 1\nrun.event_budget = 9999\n",
         "run.duration_s"),
        (MINIMAL + FLOOD.replace("plc2:61499", "plc2:99999") + "rate = 10\nstop_s = 1\n",
         "attacks[0].target"),
        (MINIMAL + FLOOD.replace("plc2:61499", "plc2:-1") + "rate = 10\nstop_s = 1\n",
         "attacks[0].target"),
        (MINIMAL + SPOOF + "at_s = 5\nclaimed_src = 1.2.3.4:70000\n", "attacks[0].claimed_src"),
        (MINIMAL + "net.group = 239.192.0.2:65536\n", "net.group"),
        (MINIMAL + FLOOD + "rate = 10\nstop_s = 1\nattacker = ghost\n", "attacks[0].attacker"),
        (MINIMAL + FLOOD + "rate = 10\nstop_s = 1\nattacker = plc1\n", "attacks[0].attacker"),
        (MINIMAL + FLOOD + "rate = 10\nstop_s = 1\nattacker = plc2\n", "attacks[0].attacker"),
        (MINIMAL + SPOOF + "at_s = 5\nattacker = client1\n", "attacks[0].attacker"),
        (MINIMAL + "tcp_probe.server_port = 70000\n", "tcp_probe.server_port"),
        (MINIMAL + "tcp_probe.enabled = true\ntcp_probe.server_port = -1\n",
         "tcp_probe.server_port"),
        # times and rates are checked as the run rounds them: to whole us,
        # and the plant's rate to whole milli-positions per tick
        (MINIMAL + "plant.rate_per_tick = 0.0004\n", "plant.rate_per_tick"),
        (MINIMAL + "plant.box_period_s = 0.0000004\n", "plant.box_period_s"),
        (MINIMAL + "idps.enabled = true\nidps.ruleset = " + rules_path("flood")
         + "\nidps.hold_window_s = 0.0000004\n", "idps.hold_window_s"),
        (MINIMAL + "device.plc2.halfopen_timeout_s = 0.0000004\n",
         "device.plc2.halfopen_timeout_s"),
        (MINIMAL + "run.duration_s = 0.0000004\n", "run.duration_s"),
        (MINIMAL + FLOOD + "rate = 10\nstart_s = 1.0000001\nstop_s = 1.0000004\n",
         "attacks[0].start_s"),
        (MINIMAL + FLOOD + "rate = 10\nstart_s = 2\nstop_s = 1\n", "attacks[0].start_s"),
        # a time must be finite, and the first box may not land before the run
        (MINIMAL + "plant.first_box_s = -20\n", "plant.first_box_s"),
        (MINIMAL + "plant.first_box_s = nan\n", "plant.first_box_s"),
        (MINIMAL + "run.duration_s = nan\n", "run.duration_s"),
        (MINIMAL + "run.duration_s = inf\n", "run.duration_s"),
        (MINIMAL + "plant.box_period_s = inf\n", "plant.box_period_s"),
        (MINIMAL + "plant.box_period_s = nan\n", "plant.box_period_s"),
        (MINIMAL + "plant.rate_per_tick = nan\n", "plant.rate_per_tick"),
        (MINIMAL + "plant.rate_per_tick = inf\n", "plant.rate_per_tick"),
        (MINIMAL + "device.plc2.halfopen_timeout_s = nan\n", "device.plc2.halfopen_timeout_s"),
        (MINIMAL + "device.plc2.halfopen_timeout_s = inf\n", "device.plc2.halfopen_timeout_s"),
        (MINIMAL + FLOOD + "rate = 10\nstart_s = nan\nstop_s = 1\n", "attacks[0].start_s"),
        (MINIMAL + FLOOD + "rate = 10\nstop_s = inf\n", "attacks[0].stop_s"),
        # a domain holds whether or not its section or attack kind uses the field
        (MINIMAL + "idps.poll_period_ms = 0\n", "idps.poll_period_ms"),
        (MINIMAL + "idps.inspection_capacity = -1\n", "idps.inspection_capacity"),
        (MINIMAL + "idps.hold_window_s = nan\n", "idps.hold_window_s"),
        (MINIMAL + "tcp_probe.connect_at_s = -1\n", "tcp_probe.connect_at_s"),
        (MINIMAL + SPOOF + "at_s = 5\nattacker_count = 0\n", "attacks[0].attacker_count"),
        (MINIMAL + SPOOF + "at_s = 5\nstart_s = -1\n", "attacks[0].start_s"),
        (MINIMAL + FLOOD + "rate = 10\nstop_s = 1\nat_s = inf\n", "attacks[0].at_s"),
        # an unknown section fails in parsing, before validate runs
        (MINIMAL + "heartbeat.enabled = true\n", "heartbeat.enabled"),
        # the plant always runs: it has no `enabled` key
        (MINIMAL + "plant.enabled = false\n", "plant.enabled"),
    ])
    def test_error_path(self, text, path):
        with pytest.raises(ConfigError) as exc:
            validate(parse_scenario_text(text))
        assert exc.value.path == path

    def test_every_default_is_in_its_domain(self):
        """`validate` passes a value equal to its field's default unchecked."""
        for cls, checks in config._CHECKS.items():
            for name, check, default in checks:
                if default is not dataclasses.MISSING:
                    check(default, f"{cls.__name__}.{name}")

    def test_plant_ticks_up_to_the_budget_are_valid(self):
        """The budget bounds `duration_us // tick_us` plant ticks; the
        reason names neither the duration nor the tick count in digits."""
        text = MINIMAL + "run.duration_s = 10.009999\nrun.event_budget = 1000\n"
        validate(parse_scenario_text(text))
        with pytest.raises(ConfigError) as exc:
            validate(parse_scenario_text(text.replace("10.009999", "10.01")))
        assert exc.value.path == "run.duration_s"
        with pytest.raises(ConfigError) as exc:
            validate(parse_scenario_text(MINIMAL + "run.duration_s = 1e300\n"))
        assert len(str(exc.value)) < 100

    def test_one_microsecond_run_and_flood_are_valid(self):
        validate(parse_scenario_text(MINIMAL + "run.duration_s = 0.000001\n" + FLOOD
                                     + "rate = 1000000\nstart_s = 0\nstop_s = 0.000001\n"))

    def test_bad_ruleset_syntax(self, tmp_path):
        (tmp_path / "bad.rules").write_text("block any\n")
        text = MINIMAL + "idps.enabled = true\nidps.ruleset = bad.rules\n"
        with pytest.raises(ConfigError) as exc:
            validate(parse_scenario_text(text, base_dir=str(tmp_path)))
        assert exc.value.path == "idps.ruleset" and "line 1" in exc.value.reason

    def test_sweep_rate_zero(self):
        cfg = parse_scenario_file(scenario_path("sweep"))
        with pytest.raises(ConfigError) as exc:
            validate(cfg.with_attack_rate("flood", 0))
        assert exc.value.path == "attacks[0].rate"

    def test_run_validates_a_config_built_in_code(self):
        cfg = parse_scenario_text(MINIMAL)
        cfg = dataclasses.replace(cfg, plant=PlantConfig(tick_ms=0))
        with pytest.raises(ConfigError) as exc:
            run_scenario(cfg, record_trace=False)
        assert exc.value.path == "plant.tick_ms"


class TestTcpProbe:
    def test_probe_fields(self):
        text = (MINIMAL + "tcp_probe.enabled = true\ntcp_probe.server_port = 61500\n"
                "tcp_probe.connect_at_s = 4.5, 9.5\n")
        cfg = parse_scenario_text(text)
        assert cfg.tcp_probe.enabled
        assert cfg.tcp_probe.connect_at_s == (4.5, 9.5)


# Valid values for every config field, keyed by class and field name: the
# property below renders them as scenario text and parses them back.
_ips = st.tuples(*[st.integers(0, 255)] * 4).map(lambda q: ".".join(map(str, q)))
_ports = st.integers(0, 65535)
_ip_ports = st.tuples(_ips, _ports).map(lambda a: f"{a[0]}:{a[1]}")
_pos_int = st.integers(1, 10**9)
_pos_float = st.floats(1e-3, 1e6)
_times = st.lists(st.floats(0, 1e3), min_size=1, max_size=4).map(tuple)
_word = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
FIELD_VALUES = {
    ScenarioConfig: {
        "seed": st.integers(0, 2**32), "duration_s": _pos_float,
        "event_budget": st.integers(10**6, 10**9),  # above any flood drawn below
        "latency_us": _pos_int, "group": _ip_ports,
        "safemode": st.sampled_from(["gate_and_hold", "log_only", "shutdown"]),
    },
    DeviceConfig: {
        "address": _ips, "capacity": _pos_int, "critical_rate": _pos_int,
        "halfopen_capacity": _pos_int, "halfopen_timeout_s": _pos_float,
    },
    IdpsConfig: {
        "enabled": st.booleans(), "mode": st.sampled_from(["off", "ids", "ips"]),
        "ruleset": st.sampled_from(["flood", "spoof", "combined"]).map(rules_path),
        "inspection_capacity": _pos_int, "poll_period_ms": _pos_int,
        "hold_window_s": _pos_float,
    },
    PlantConfig: {
        "tick_ms": _pos_int, "rate_per_tick": st.floats(1e-3, 1),
        "box_period_s": _pos_float, "first_box_s": st.floats(0, 1e3),
    },
    TcpProbeConfig: {
        "enabled": st.booleans(), "server_port": _ports,
        "client_address": _ips, "connect_at_s": _times,
    },
    AttackConfig: {
        "name": _word, "kind": st.sampled_from(AttackKind),
        "target": st.sampled_from(["group", "plc1:61499", "plc2:0", "plc2:65535"]),
        "rate": st.integers(1, 1000), "start_s": st.floats(0, 100),
        "stop_s": st.floats(1e-3, 100), "at_s": _times, "payload": st.binary(max_size=8),
        "claimed_src": st.sampled_from(["", "plc1"]) | _ip_ports,
        "attacker": _word.filter(lambda w: w != "ghost"), "attacker_address": _ips, "attacker_count": st.integers(1, 8),
    },
}


def _scalar_fields(cls):
    """Fields that are set by a key, not containers or sections."""
    return [f.name for f in dataclasses.fields(cls)
            if f.name not in ("devices", "attacks") and f.name not in config._SECTIONS]


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(map(repr, value))
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, AttackKind):
        return value.value
    return str(value)


def _keys(cls):
    """The scenario-text key of every field of one config class."""
    if cls is ScenarioConfig:
        return {name: key for key, name in config._ALIASES.items()}
    if cls is DeviceConfig:
        return {name: f"device.plc2.{name}" for name in _scalar_fields(cls)}
    if cls is AttackConfig:
        return {name: name for name in _scalar_fields(cls)}
    section = next(s for s, c in config._SECTIONS.items() if c is cls)
    return {name: f"{section}.{name}" for name in _scalar_fields(cls)}


class TestKeyTable:
    def test_every_field_is_a_key(self):
        for cls, values in FIELD_VALUES.items():
            assert set(values) == set(_scalar_fields(cls)) == set(_keys(cls)), cls.__name__

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rendered_values_parse_back(self, data):
        drawn = {cls: {name: data.draw(strategy, label=f"{cls.__name__}.{name}")
                       for name, strategy in values.items()}
                 for cls, values in FIELD_VALUES.items()}
        atk = drawn[AttackConfig]
        # A flood's rate splits evenly and its stop follows its start; the
        # plant's ticks fit the event budget.
        atk["rate"] *= atk["attacker_count"]
        atk["stop_s"] += atk["start_s"]
        run = drawn[ScenarioConfig]
        ticks = round(run["duration_s"] * 1e6) // (drawn[PlantConfig]["tick_ms"] * 1000)
        run["event_budget"] = max(run["event_budget"], ticks)
        lines = []
        for cls, values in drawn.items():
            keys = _keys(cls)
            block = [f"{keys[name]} = {_render(v)}" for name, v in values.items()]
            lines += ["[attacks]", *block] if cls is AttackConfig else block
        cfg = parse_scenario_text("\n".join(lines) + "\n")
        validate(cfg)
        got = {ScenarioConfig: cfg, DeviceConfig: cfg.devices["plc2"], IdpsConfig: cfg.idps,
               PlantConfig: cfg.plant, TcpProbeConfig: cfg.tcp_probe,
               AttackConfig: cfg.attacks[0]}
        for cls, values in drawn.items():
            for name, value in values.items():
                assert getattr(got[cls], name) == value, f"{cls.__name__}.{name}"


# Every key line of every shipped and bench scenario file: (file, line index,
# key path, class and field name).
SCENARIO_FILES = [scenario_path(name) for name in list_scenarios()] + sorted(
    glob.glob(os.path.join(BENCH_SCENARIOS, "*.scenario")))
_FIELD_OF = {key: (cls, name) for cls in FIELD_VALUES for name, key in _keys(cls).items()}


def _key_lines(path):
    attacks = -1
    for i, raw in enumerate(config.read_text(path).splitlines()):
        line = raw.split("#", 1)[0].strip()
        attacks += line == "[attacks]"
        key = line.partition("=")[0].strip()
        if "=" not in line:
            continue
        if attacks >= 0 and "." not in key:
            yield path, i, f"attacks[{attacks}].{key}", AttackConfig, key
        else:
            yield (path, i, key, *_FIELD_OF[key.replace("device.plc1.", "device.plc2.")])


KEY_LINES = [line for path in SCENARIO_FILES for line in _key_lines(path)]
TOKENS = ["nan", "inf", "-inf", "-1", "0", "1e-7", "1e300"]
# A value valid alone may break a rule across fields, which names another
# key: keys with their attack index dropped.
CROSS_FIELD = {
    "run.event_budget": {"attacks[].rate", "run.duration_s"},
    "plant.tick_ms": {"run.duration_s"},
    "idps.enabled": {"idps.ruleset"},
    "idps.mode": {"idps.ruleset"},
    "attacks[].name": {"attacks[].name"},
    "attacks[].kind": {"attacks[].at_s", "attacks[].rate"},
    "attacks[].start_s": {"attacks[].rate"},
    "attacks[].stop_s": {"attacks[].start_s", "attacks[].rate"},
    "attacks[].attacker_count": {"attacks[].rate"},
}
RUN_CAP_S = 60.0  # the longest shipped run; a drawn duration or box period may be huge


def _unindexed(path):
    return re.sub(r"\[\d+\]", "[]", path)


def _substituted(data):
    """One key line of a shipped or bench scenario set to an edge token or a
    valid value: (the file, the key path, the file's lines)."""
    path, index, key_path, cls, name = data.draw(st.sampled_from(KEY_LINES), label="key")
    token = data.draw(st.sampled_from(TOKENS) | FIELD_VALUES[cls][name].map(_render),
                      label="value")
    lines = config.read_text(path).splitlines()
    key = lines[index].partition("=")[0].strip()
    lines[index] = f"{key} = {token}"
    return path, key_path, lines


class TestOneKeySubstituted:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def test_validate_names_the_key_or_the_run_completes(self, data):
        """One key of a shipped or bench scenario set to an edge token or a
        valid value: `validate` accepts it or fails at that key (or at a
        key of a rule across fields it joins), and an accepted config runs
        to its end or trips only the event budget."""
        path, key_path, lines = _substituted(data)
        try:
            cfg = parse_scenario_text("\n".join(lines) + "\n", base_dir=os.path.dirname(path))
            validate(cfg)
        except ConfigError as e:
            assert e.path == key_path or _unindexed(e.path) in CROSS_FIELD.get(
                _unindexed(key_path), ()), (e.path, e.reason)
            return
        cfg = dataclasses.replace(cfg, duration_s=min(cfg.duration_s, RUN_CAP_S))
        try:
            run_scenario(cfg, record_trace=False)
        except ConfigError as e:
            assert e.path == "run.event_budget", (e.path, e.reason)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_the_cli_exits_with_a_scenario_code(self, data, tmp_path_factory):
        """The same substitutions, each written to a file beside a copy of
        its ruleset: `fbsecsim validate` exits 0 or 2, and `fbsecsim run`,
        of at most `RUN_CAP_S`, exits 0, 2, 10 or 11, never 1 (a simulation
        error) and never with an exception."""
        path, _, lines = _substituted(data)
        folder = tmp_path_factory.mktemp("cli")
        for i, line in enumerate(lines):
            key, _, value = line.split("#", 1)[0].partition("=")
            ruleset = os.path.join(os.path.dirname(path), value.strip())
            if key.strip() == "idps.ruleset" and os.path.isfile(ruleset):
                shutil.copy(ruleset, folder)
                lines[i] = f"idps.ruleset = {os.path.basename(ruleset)}"
        scenario = folder / "substituted.scenario"
        scenario.write_text("\n".join(lines) + "\n")
        code = cli.main(["validate", str(scenario)])
        assert code in (0, 2)
        if code == 0 and parse_scenario_file(str(scenario)).duration_s > RUN_CAP_S:
            scenario.write_text("\n".join(lines) + f"\nrun.duration_s = {RUN_CAP_S}\n")
        assert cli.main(["run", str(scenario), "--out", str(folder / "out")]) in (0, 2, 10, 11)
