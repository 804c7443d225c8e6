"""CLI surface: commands, exit-status taxonomy, output files."""

import csv
import os

import pytest

from fbsecsim import config
from fbsecsim.cli import main
from fbsecsim.data import scenario_path
from fbsecsim.idps import parse_rules


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


MINI_COLLAPSE = """\
run.seed = 9
run.duration_s = 3
device.plc2.critical_rate = 5000

[attacks]
name = burst
kind = icmp_flood
target = plc2:0
rate = 10000
start_s = 1
stop_s = 2
"""


class TestRun:
    def test_clean_run_exit_zero_and_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["run", scenario_path("spoof_blocked"), "--out", out])
        assert code == 0
        for f in ("metrics.csv", "alerts.csv", "plant.csv", "transitions.csv", "trace.txt"):
            assert os.path.exists(os.path.join(out, f)), f
        assert "exit=0" in capsys.readouterr().out

    def test_hazard_exit_ten(self, tmp_path):
        assert main(["run", scenario_path("spoof_unprotected"), "--out", str(tmp_path)]) == 10

    def test_collapse_exit_eleven(self, tmp_path):
        scen = write(tmp_path, "mini.scenario", MINI_COLLAPSE)
        assert main(["run", scen, "--out", str(tmp_path / "o")]) == 11

    def test_config_error_exit_two(self, tmp_path):
        scen = write(tmp_path, "bad.scenario", "run.duration_s = 5\n")
        assert main(["run", scen, "--out", str(tmp_path / "o")]) == 2

    def test_plant_enabled_is_an_unknown_key(self, tmp_path, capsys):
        scen = write(tmp_path, "p.scenario", MINI_COLLAPSE + "plant.enabled = false\n")
        assert main(["run", scen, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: plant.enabled: unknown key\n"

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["run", str(tmp_path / "ghost.scenario")]) == 2


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", scenario_path("baseline")]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bad(self, tmp_path):
        scen = write(tmp_path, "bad.scenario", "run.seed = 1\nrun.wat = 2\n")
        assert main(["validate", scen]) == 2

    def test_budget_overflow_is_a_config_error(self, tmp_path, capsys):
        scen = write(tmp_path, "big.scenario", MINI_COLLAPSE + "run.event_budget = 1000\n")
        assert main(["validate", scen]) == 2
        assert "attacks[0].rate" in capsys.readouterr().err
        assert main(["run", scen, "--out", str(tmp_path / "o")]) == 2

    def test_whole_run_budget_overflow_is_a_config_error(self, tmp_path, capsys):
        """validate bounds each flood alone and the plant's 500 ticks, so
        this passes it; the run then stops at the budget and names it."""
        scen = write(tmp_path, "long.scenario",
                     "run.seed = 1\nrun.duration_s = 5\nrun.event_budget = 500\n\n"
                     "[attacks]\nname = trickle\nkind = icmp_flood\ntarget = plc2:0\n"
                     "rate = 10\nstart_s = 1\nstop_s = 2\n")
        assert main(["validate", scen]) == 0
        capsys.readouterr()
        assert main(["run", scen, "--out", str(tmp_path / "o")]) == 2
        assert "run.event_budget" in capsys.readouterr().err
        assert main(["sweep", scen, "--attack", "trickle", "--rates", "10,20",
                     "--out", str(tmp_path / "s")]) == 2
        assert "run.event_budget" in capsys.readouterr().err


class TestOneRulesetParsePerRun:
    """`validate` parses the ruleset and the run uses what it returned, so
    each command parses it once per run it makes."""

    @pytest.mark.parametrize("argv,parses", [
        (["validate", scenario_path("spoof_blocked")], 1),
        (["run", scenario_path("spoof_blocked"), "--out", "{out}"], 1),
        (["sweep", scenario_path("sweep"), "--attack", "flood", "--rates", "100,200,300",
          "--out", "{out}"], 3),
    ])
    def test_parse_count(self, tmp_path, monkeypatch, argv, parses):
        calls = []

        def counting(text):
            calls.append(text)
            return parse_rules(text)

        monkeypatch.setattr(config, "parse_rules", counting)
        assert main([a.format(out=tmp_path / "o") for a in argv]) == 0
        assert len(calls) == parses


class TestRules:
    def test_check_ok(self, tmp_path, capsys):
        rules = write(tmp_path, "a.rules",
                      'alert udp any any -> any 61499 rate 100/1 msg "flood"\n')
        assert main(["rules", "check", rules]) == 0
        out = capsys.readouterr().out
        assert "1 rule(s) ok" in out and "rate 100/1s" in out

    def test_check_syntax_error(self, tmp_path):
        rules = write(tmp_path, "b.rules", "block any\n")
        assert main(["rules", "check", rules]) == 2


def unreadable_inputs(tmp_path):
    """A directory, and a file whose bytes are not UTF-8."""
    binary = tmp_path / "latin1.txt"
    binary.write_bytes("run.seed = 1  # \xe9t\xe9\n".encode("latin-1"))
    return [str(tmp_path), str(binary)]


class TestUnreadableInput:
    """An input that cannot be read as text is a configuration error that
    names the path, for every command that reads one."""

    @pytest.mark.parametrize("argv", [
        ["run", "{path}", "--out", "{out}"],
        ["validate", "{path}"],
        ["sweep", "{path}", "--attack", "a", "--rates", "10", "--out", "{out}"],
        ["rules", "check", "{path}"],
    ])
    def test_exit_two_naming_the_path(self, tmp_path, capsys, argv):
        for path in unreadable_inputs(tmp_path):
            args = [a.format(path=path, out=tmp_path / "o") for a in argv]
            assert main(args) == 2
            assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestSweep:
    MINI_SWEEP = """\
run.seed = 5
run.duration_s = 3
device.plc2.capacity = 1000000

[attacks]
name = f
kind = udp_flood
target = plc2:61499
rate = 100
start_s = 1
stop_s = 2
"""

    def test_sweep_csv(self, tmp_path, capsys):
        scen = write(tmp_path, "s.scenario", self.MINI_SWEEP)
        out = str(tmp_path / "o")
        assert main(["sweep", scen, "--attack", "f", "--rates", "100,1000,10000",
                     "--out", out]) == 0
        with open(os.path.join(out, "sweep.csv")) as f:
            rows = list(csv.DictReader(f))
        assert [int(r["rate"]) for r in rows] == [100, 1000, 10000]
        assert [int(r["offered"]) for r in rows] == [100, 1000, 10000]

    def test_single_rate_below_capacity_drops_nothing(self, tmp_path):
        scen = write(tmp_path, "s.scenario", self.MINI_SWEEP)
        out = str(tmp_path / "o")
        assert main(["sweep", scen, "--attack", "f", "--rates", "50", "--out", out]) == 0
        with open(os.path.join(out, "sweep.csv")) as f:
            row = next(csv.DictReader(f))
        assert row["dropped_capacity"] == "0"
        assert row["dropped_by_engine"] == "0"
        assert row["device_final_state"] == "RESPONSIVE"

    def test_rates_must_increase(self, tmp_path):
        scen = write(tmp_path, "s.scenario", self.MINI_SWEEP)
        assert main(["sweep", scen, "--attack", "f", "--rates", "10,5"]) == 2

    def test_empty_rates_usage_error(self, tmp_path):
        scen = write(tmp_path, "s.scenario", self.MINI_SWEEP)
        assert main(["sweep", scen, "--attack", "f", "--rates", ""]) == 2

    def test_unknown_attack_name(self, tmp_path):
        scen = write(tmp_path, "s.scenario", self.MINI_SWEEP)
        assert main(["sweep", scen, "--attack", "ghost", "--rates", "10"]) == 2

    def test_zero_rate_is_a_config_error(self, tmp_path, capsys):
        scen = write(tmp_path, "s.scenario", self.MINI_SWEEP)
        out = str(tmp_path / "o")
        assert main(["sweep", scen, "--attack", "f", "--rates", "0,100", "--out", out]) == 2
        assert "attacks[0].rate" in capsys.readouterr().err
        assert not os.path.exists(out)
