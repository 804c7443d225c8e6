"""fbsecsim benchmark: host time and memory of simulated floods.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1] [--profile]

Run from the repository root; the simulator is imported from `src/`.
Workloads, metric names, units and bounds are defined in BENCHMARK.json;
`bench/movers.json` records which per-layer metric should move which
end-to-end metric on which workload.  Load comes from one process running
simulations one after another (the simulator is single-threaded).

--trace 0  times whole workload passes with tracing off for --seconds and
           reports the end-to-end metrics: wall_s is the median pass, the
           run_ms_* figures are over single run_scenario calls.  Set-up time
           is the median over fresh interpreters (see setup_probe.py).
           Every time is normalised to a nominal host speed by a reference
           kernel timed beside it (see reference.py); the measured seconds
           are kept in the result file.
--trace 1  reports the per-layer metrics: untraced passes for a third of
           --seconds (the base of the trace overhead), then one traced pass
           (spans around the calls into each fbsecsim module, see spans.py),
           one run of the first config under tracemalloc, and the layer
           micro-benchmarks (micro.py).
--profile  also profiles one more pass with cProfile and writes the top
           rows beside the results.

Every run is gated (see workloads.py).  Results, the run manifest and, in
trace mode, all spans are written under bench/out/.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

import reference

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
MOVERS_PATH = os.path.join(BENCH_DIR, "movers.json")

SETUP_REPEATS = 11      # fresh interpreters per set-up measurement
MIN_RUNS = 20           # timed runs per invocation, whatever --seconds says
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile


def import_simulator() -> None:
    """Put src/ first on the path and make sure fbsecsim comes from there."""
    sys.path.insert(0, SRC)
    import fbsecsim

    if not os.path.abspath(fbsecsim.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"fbsecsim was imported from {fbsecsim.__file__}, not from {SRC}")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as f:
        spec = json.load(f)
    with open(MOVERS_PATH, encoding="utf-8") as f:
        movers = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    layer = {m["name"] for m in spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for row in movers:
        bad = (set(row["metrics"]) - layer) | (set(row["moves"]) - e2e)
        bad |= set(row["on"] + row["no_change_on"]) - workloads
        if bad:
            raise SystemExit(f"movers.json names unknown metrics or workloads: {sorted(bad)}")
    return spec


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the maximum is reported as the 100th.
    """
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def measure_setup(workload, seed: int) -> tuple[float, list[dict]]:
    """Median normalised set-up time over fresh interpreters; the first is discarded."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), SRC, workload.path, str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    samples = samples[1:]
    norm = [reference.normalise(s["setup_s"], s["kernel_s"], s["kernel_s"]) for s in samples]
    return statistics.median(norm), samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024   # Linux reports KiB


def git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(workload, seed, seconds, gate, accounts) -> tuple[dict, dict]:
    from workloads import measure

    setup_s, setup_samples = measure_setup(workload, seed)
    stats = measure(workload.configs(seed), gate, seconds, MIN_RUNS)
    accounts.append(stats)
    counts = gate.pass_counts()
    run_s = stats.norm_run_s or [0.0]
    wall_s = statistics.median(stats.norm_pass_s or [0.0])
    tail_s, tail_pct = tail(run_s)
    metrics = {
        "wall_s": wall_s,
        "offered_pkts_per_s": ratio(counts.get("transport.offered", 0), wall_s),
        "run_ms_p50": statistics.median(run_s) * 1e3,
        "run_ms_tail": tail_s * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "passes": len(stats.pass_s),
        "runs": len(stats.run_s),
        "run_ms_tail_percentile": tail_pct,
        "measured_wall_s": statistics.median(stats.pass_s or [0.0]),
        "run_s": stats.run_s,
        "kernel_s": stats.kernel_s,
        "setup_samples": setup_samples,
        "counts": counts,
    }
    return metrics, details


def per_layer(workload, seed, seconds, gate, accounts) -> tuple[dict, dict, object]:
    import micro
    from fbsecsim import attacks, config, metrics as metrics_mod
    from spans import SPANS, MemorySampler, Tracer
    from workloads import PassStats, measure, run_once

    configs = workload.configs(seed)
    untraced = measure(configs, gate, seconds / 3, len(configs))
    accounts.append(untraced)

    traced = PassStats()
    with Tracer() as tracer:
        tracer.run_id = -1
        config.parse_scenario_file(workload.path)   # recorded as the config.parse span
        before = reference.time_kernel()
        for i, cfg in enumerate(configs):
            tracer.run_id = i
            elapsed = run_once(cfg, i, gate, traced)
            after = reference.time_kernel()
            if elapsed is not None:
                traced.run_s.append(elapsed)
                traced.norm_run_s.append(reference.normalise(elapsed, before, after))
            before = after
    accounts.append(traced)
    traced_ns = sum(traced.run_s) * 1e9

    memory = PassStats()
    with MemorySampler({"attacks": attacks, "metrics": metrics_mod}) as sampler:
        run_once(configs[0], 0, gate, memory)
    accounts.append(memory)

    counts = collections.Counter(gate.pass_counts())
    stats = tracer.stats
    out: dict[str, float] = {}
    for name in tracer.names:
        if name in ("config.parse", "scenario.run", "fbnet.loop"):
            continue
        calls, self_ns = stats[name]
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ns"] = ratio(self_ns, calls)
        out[f"{name}.self_share"] = ratio(self_ns, traced_ns)
    loop_ns = stats["fbnet.loop"][1]
    out["fbnet.loop.self_s"] = loop_ns / 1e9
    out["fbnet.loop.self_share"] = ratio(loop_ns, traced_ns)
    out["fbnet.events"] = counts["fbnet.events"]
    out["fbnet.pending_peak"] = tracer.pending_peak
    out["attacks.live_mb"] = sampler.peak_bytes["attacks"] / 2**20
    out["transport.offered"] = counts["transport.offered"]
    out["transport.ingest_ratio"] = ratio(counts["transport.ingested"], counts["transport.offered"])
    out["transport.undeliverable"] = counts["transport.undeliverable"]
    syns = counts["transport.syn_accepted"] + counts["transport.syn_refused"]
    out["transport.syn_accept_ratio"] = ratio(counts["transport.syn_accepted"], syns)
    out["idps.inspected_ratio"] = ratio(counts["idps.inspected"], counts["idps.presented"])
    out["idps.alerts"] = counts["idps.alerts"]
    out["idps.rate_counters"] = counts["idps.rate_counters"]
    out["metrics.oracle_windows"] = counts["metrics.oracle_windows"]
    out["metrics.live_mb"] = sampler.peak_bytes["metrics"] / 2**20
    out["csifb.accept_ratio"] = ratio(counts["csifb.accepted"], stats["csifb.rcv"][0])
    out["config.parse_s"] = stats["config.parse"][1] / 1e9
    out["scenario.assemble_s"] = ratio(stats["scenario.run"][1], stats["scenario.run"][0]) / 1e9
    out["trace_overhead"] = ratio(sum(traced.norm_run_s), statistics.median(untraced.norm_pass_s or [0.0]))
    out.update(micro.run_all())
    details = {
        "traced_wall_s": traced_ns / 1e9,
        "untraced_runs": len(untraced.run_s),
        "spans": len(tracer.span_id),
        "wrapped": {name: f"{owner.__name__}.{attr}" for name, (owner, attr) in SPANS.items()},
        "counts": counts,
    }
    return out, details, tracer


def profile_pass(workload, seed, gate, accounts, path: str) -> None:
    """Profile one pass; only run_scenario is profiled, not the gate."""
    import cProfile
    import pstats
    from fbsecsim import scenario
    from workloads import PassStats

    stats = PassStats()
    profiler = cProfile.Profile()
    for i, cfg in enumerate(workload.configs(seed)):
        stats.attempted += 1
        try:
            result = profiler.runcall(scenario.run_scenario, cfg, record_trace=False)
        except Exception as e:  # counted like a failed timed run
            gate.problems.append(f"run {i}: {type(e).__name__}: {e}")
            stats.failed += 1
            continue
        if not gate.check(i, result):
            stats.failed += 1
    accounts.append(stats)
    with open(path, "w", encoding="utf-8") as f:
        for key in ("tottime", "cumulative"):
            pstats.Stats(profiler, stream=f).sort_stats(key).print_stats(30)


def main(argv=None) -> int:
    import_simulator()
    spec = load_spec()
    from workloads import DEFAULT_SEED, WORKLOADS, Gate, file_digests

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    gate = Gate(workload, args.seed)
    accounts = []
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}")
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        values, details, tracer = per_layer(workload, args.seed, args.seconds, gate, accounts)
        declared = spec["per_layer"]
        tracer.write(f"{stem}-spans.csv.gz")
    else:
        values, details = end_to_end(workload, args.seed, args.seconds, gate, accounts)
        declared = spec["end_to_end"]
    if args.profile:
        profile_pass(workload, args.seed, gate, accounts, f"{stem}-profile.txt")

    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise SystemExit(f"measured metrics differ from BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(a.attempted for a in accounts)
    failed = sum(a.failed for a in accounts)
    correct = failed == 0 and not gate.problems
    manifest = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": workload.name,
        "seed": args.seed,
        "batch": workload.batch,
        "seconds": args.seconds,
        "trace": args.trace,
        "files": file_digests(),
        "run_digests": [gate.digests[i] for i in sorted(gate.digests)],
        "fbnet.events": details["counts"].get("fbnet.events"),
        "transport.offered": details["counts"].get("transport.offered"),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump({**result, "failed_run_share": ratio(failed, attempted),
                   "details": details, "manifest": manifest, "problems": gate.problems},
                  f, indent=1)

    print(f"# {workload.name} seed={args.seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_run_share':40s} {ratio(failed, attempted):>16.6g} ratio ({failed}/{attempted} runs)")
    if not args.trace:
        print(f"# run_ms_p50 and run_ms_tail (p{details['run_ms_tail_percentile']:.1f}) "
              f"over {details['runs']} runs; wall_s is the median of {details['passes']} passes")
        print(f"# times normalised to a reference kernel time of {reference.NOMINAL_S} s; "
              f"measured wall_s {details['measured_wall_s']:.6g} s")
    print("# manifest " + json.dumps(manifest, separators=(",", ":")))
    for problem in gate.problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
