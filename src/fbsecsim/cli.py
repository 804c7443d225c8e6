"""Command-line front end.

Exit codes are scriptable: 0 clean, 2 configuration or output-path error,
10 hazard latched, 11 a controller device collapsed.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

from .config import parse_scenario_file, read_text, validate
from .errors import ConfigError, RuleSyntaxError, SimError
from .fbnet import US
from .idps import parse_rules
from .metrics import EXIT_CONFIG, write_csv
from .scenario import run_scenario, run_sweep, write_outputs

SWEEP_HEADER = ["rate", "offered", "ingested", "dropped_capacity", "dropped_by_engine",
                "alerts", "true_matches", "availability", "device_final_state"]


def _cmd_run(args) -> int:
    cfg = parse_scenario_file(args.scenario)
    # --out is made once the config is valid, before the run: an --out that
    # cannot be written fails at once, and a bad config leaves none behind
    result = run_scenario(cfg, record_trace=True,
                          on_valid=partial(os.makedirs, args.out, exist_ok=True))
    write_outputs(result, args.out)
    r = result.report
    print(f"run finished: t={r.duration}us exit={r.exit_code}")
    for dev_id in sorted(r.devices):
        c = r.devices[dev_id]
        print(f"  {dev_id}: state={r.final_states[dev_id]} offered={c['offered']} "
              f"ingested={c['ingested']} dropped_capacity={c['dropped_capacity']} "
              f"dropped_unresponsive={c['dropped_unresponsive']}")
    if r.engine is not None:
        e = r.engine
        print(f"  engine: presented={e.presented} inspected={e.inspected} "
              f"dropped_by_engine={e.dropped_by_engine} alerts={e.alerts} "
              f"true_matches={e.true_matches}")
    p = r.plant
    print(f"  plant: cycles={len(p.cycles)} availability={p.availability:.6f} "
          f"hazard={'yes' if p.hazard else 'no'}")
    print(f"  outputs in {args.out}")
    return r.exit_code


def _cmd_sweep(args) -> int:
    cfg = parse_scenario_file(args.scenario)
    try:
        rates = [int(r) for r in args.rates.split(",") if r.strip()]
    except ValueError:
        raise ConfigError("rates", f"bad rate list {args.rates!r}") from None
    # --out is made as in `_cmd_run`, before the first run
    rows, _results = run_sweep(cfg, args.attack, rates,
                               on_valid=partial(os.makedirs, args.out, exist_ok=True))
    out_path = os.path.join(args.out, "sweep.csv")
    write_csv(out_path, SWEEP_HEADER, rows)
    for row in rows:
        print(",".join(str(v) for v in row))
    print(f"sweep written to {out_path}")
    return 0


def _cmd_validate(args) -> int:
    validate(parse_scenario_file(args.scenario))
    print(f"{args.scenario}: ok")
    return 0


def _cmd_rules_check(args) -> int:
    rules = parse_rules(read_text(args.ruleset))
    for rule in rules:
        clauses = [rule.action.value, rule.proto_name]
        if rule.rate:
            clauses.append(f"rate {rule.rate.threshold}/{rule.rate.window_us // US}s")
        if rule.srcallow:
            clauses.append("srcallow")
        if rule.payload_sub is not None:
            clauses.append("payload")
        print(f"{rule.id}: {' '.join(clauses)} msg={rule.msg!r}")
    print(f"{args.ruleset}: {len(rules)} rule(s) ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fbsecsim",
        description="Deterministic availability-attack simulator for distributed "
                    "function-block applications")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write CSVs plus the trace")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default="./out")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="re-run a scenario across attack rates")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--attack", required=True, help="name of the attack to vary")
    p_sweep.add_argument("--rates", required=True, help="comma-separated packets/second")
    p_sweep.add_argument("--out", default="./out")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(fn=_cmd_validate)

    p_rules = sub.add_parser("rules", help="ruleset utilities")
    rules_sub = p_rules.add_subparsers(dest="rules_command", required=True)
    p_check = rules_sub.add_parser("check", help="parse a ruleset and list its rules")
    p_check.add_argument("ruleset")
    p_check.set_defaults(fn=_cmd_rules_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, RuleSyntaxError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:  # `config.read_text` reports an unreadable input, so this is an output
        print(f"error: {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except SimError as e:
        print(f"simulation error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
