"""The benchmark's workloads, their run passes and the output gate.

A workload pass is the unit the benchmark times: `batch` runs of one
scenario file over consecutive seeds starting at the workload seed.  The
single-run workloads have a batch of one, so a pass is one run.

Every run goes through the gate: its output digest must repeat for the same
config across every pass (traced or not), must equal the digest pinned here
when the workload seed is `DEFAULT_SEED`, and two packet-accounting
identities that cross the device, engine, transport and subscriber layers
must hold.  A run that raises or fails the gate counts as failed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import time
from dataclasses import dataclass

from fbsecsim import config, scenario
from fbsecsim.metrics import metrics_rows

import reference

SCENARIO_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scenarios")
DEFAULT_SEED = 1

# plc2 fates after the engine tap; with the subscriber's accepted and
# malformed counts they must add up to plc2.ingested - engine.blocked.
ROUTED_FATES = ("icmp_received", "syn_accepted", "syn_refused", "established",
                "stray_acks", "stray_data", "unbound")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str      # file name under scenarios/
    batch: int         # runs per pass, over consecutive seeds
    pinned: str        # pass digest at DEFAULT_SEED

    @property
    def path(self) -> str:
        return os.path.join(SCENARIO_DIR, self.scenario)

    def configs(self, seed: int) -> list[config.ScenarioConfig]:
        cfg = config.parse_scenario_file(self.path)
        return [cfg.with_seed(seed + i) for i in range(self.batch)]


WORKLOADS = {w.name: w for w in (
    Workload("subscriber_flood", "subscriber_flood.scenario", 1,
             "01b6783d7868432cea4f83b71e516c22e0804a72001e9fee2bedf2e1be329cf7"),
    Workload("syn_backlog", "syn_backlog.scenario", 1,
             "a56143bb32efea5457dff7b9219c3b28610f9c0bcbd8fd1eb155b64d370f410b"),
    Workload("seed_batch", "seed_batch.scenario", 4,
             "0ebde048515af1914a5f4075902ed927e28d57cc230d71afb22f0bea74a1e1fe"),
)}


def file_digests() -> dict[str, str]:
    """SHA-256 of every scenario and ruleset file the workloads read."""
    out = {}
    for name in sorted(os.listdir(SCENARIO_DIR)):
        with open(os.path.join(SCENARIO_DIR, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def run_digest(report) -> str:
    """SHA-256 over the report's metrics rows, alerts and transitions."""
    body = {
        "metrics": metrics_rows(report),
        "alerts": [dataclasses.astuple(a) for a in report.alerts],
        "transitions": sorted(report.transitions.items()),
    }
    return hashlib.sha256(json.dumps(body, separators=(",", ":")).encode()).hexdigest()


def pass_digest(run_digests: list[str]) -> str:
    return hashlib.sha256(",".join(run_digests).encode()).hexdigest()


def identity_problems(result) -> list[str]:
    """Cross-layer packet accounting on plc2, checked from outside."""
    rep = result.report
    plc2 = rep.devices["plc2"]
    problems = []
    blocked = 0
    engine = result.engine
    if engine is not None and engine.running:
        if engine.presented != plc2["ingested"]:
            problems.append(f"engine.presented {engine.presented} != "
                            f"plc2.ingested {plc2['ingested']}")
        blocked = rep.engine.blocked
    routed = sum(plc2[k] for k in ROUTED_FATES)
    routed += rep.subscriber.get("accepted", 0) + rep.subscriber.get("malformed", 0)
    if plc2["ingested"] - blocked != routed:
        problems.append(f"plc2.ingested - engine.blocked = {plc2['ingested'] - blocked} "
                        f"!= routed fates {routed}")
    return problems


def run_counts(result) -> dict[str, int]:
    """Exact simulated counts of one run; they must repeat on every pass."""
    rep = result.report
    engine = result.engine
    oracle = result.recorder.oracle
    devices = rep.devices.values()
    return {
        "fbnet.events": result.networks["plc1"].scheduler.processed,
        "transport.offered": sum(d["offered"] for d in devices),
        "transport.ingested": sum(d["ingested"] for d in devices),
        "transport.undeliverable": rep.undeliverable,
        "transport.syn_accepted": sum(d["syn_accepted"] for d in devices),
        "transport.syn_refused": sum(d["syn_refused"] for d in devices),
        "idps.presented": engine.presented if engine else 0,
        "idps.inspected": engine.inspected if engine else 0,
        "idps.alerts": len(rep.alerts),
        "idps.rate_counters": len(engine.rate_counters) if engine else 0,
        "metrics.oracle_windows": len(oracle.windows) if oracle else 0,
        "csifb.accepted": rep.subscriber.get("accepted", 0),
    }


@dataclass
class PassStats:
    """What the timed passes of one workload produced.

    `run_s` and `pass_s` are measured host seconds; the `norm_` lists hold
    the same times normalised to the nominal host speed (see reference.py).
    """

    run_s: list[float] = dataclasses.field(default_factory=list)
    pass_s: list[float] = dataclasses.field(default_factory=list)  # passes with no failed run
    norm_run_s: list[float] = dataclasses.field(default_factory=list)
    norm_pass_s: list[float] = dataclasses.field(default_factory=list)
    kernel_s: list[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0


class Gate:
    """Checks every run of a workload against its references."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.digests: dict[int, str] = {}      # config index -> run digest
        self.counts: dict[int, dict] = {}      # config index -> run counts
        self.problems: list[str] = []

    def check(self, index: int, result) -> bool:
        """Gate one run; returns False and records why if it fails."""
        problems = identity_problems(result)
        digest = run_digest(result.report)
        counts = run_counts(result)
        ref = self.digests.setdefault(index, digest)
        if digest != ref:
            problems.append(f"run {index}: digest {digest} != earlier {ref}")
        ref_counts = self.counts.setdefault(index, counts)
        if counts != ref_counts:
            problems.append(f"run {index}: counts {counts} != earlier {ref_counts}")
        if (self.seed == DEFAULT_SEED and len(self.digests) == self.workload.batch
                and index == self.workload.batch - 1):
            got = pass_digest([self.digests[i] for i in range(self.workload.batch)])
            if got != self.workload.pinned:
                problems.append(f"pass digest {got} != pinned {self.workload.pinned}")
        self.problems.extend(problems)
        return not problems

    def pass_counts(self) -> dict[str, int]:
        """Exact simulated counts summed over the configs of one pass."""
        total: dict[str, int] = {}
        for counts in self.counts.values():
            for k, v in counts.items():
                total[k] = total.get(k, 0) + v
        return total


def run_once(cfg, index: int, gate: Gate, stats: PassStats) -> float | None:
    """One timed run_scenario call, gated; returns its wall time or None."""
    stats.attempted += 1
    gc.collect()   # every run starts from a heap without the last run's garbage
    try:
        t0 = time.perf_counter()
        result = scenario.run_scenario(cfg, record_trace=False)
        elapsed = time.perf_counter() - t0
    except Exception as e:  # a raising run is a failed run, never a crash
        gate.problems.append(f"run {index}: {type(e).__name__}: {e}")
        stats.failed += 1
        return None
    if not gate.check(index, result):
        stats.failed += 1
    return elapsed


def measure(configs, gate: Gate, seconds: float, min_runs: int) -> PassStats:
    """Repeat whole passes until `seconds` of passes and `min_runs` runs.

    The first config runs once untimed beforehand, so lazy set-up inside
    the interpreter is not charged to the first timed pass.  The reference
    kernel is timed between runs; each run is normalised by the mean of the
    kernel times right before and after it.
    """
    stats = PassStats()
    run_once(configs[0], 0, gate, stats)
    reference.kernel()
    before = reference.time_kernel()
    start = time.perf_counter()
    while True:
        pass_s, norm_pass_s, complete = 0.0, 0.0, True
        for i, cfg in enumerate(configs):
            elapsed = run_once(cfg, i, gate, stats)
            after = reference.time_kernel()
            stats.kernel_s.append(after)
            if elapsed is None:
                complete = False
            else:
                norm = reference.normalise(elapsed, before, after)
                stats.run_s.append(elapsed)
                stats.norm_run_s.append(norm)
                pass_s += elapsed
                norm_pass_s += norm
            before = after
        if complete:
            stats.pass_s.append(pass_s)
            stats.norm_pass_s.append(norm_pass_s)
        if stats.failed == stats.attempted:
            break  # nothing runs; stop early and report the failures
        if time.perf_counter() - start >= seconds and stats.attempted > min_runs:
            break
    return stats
