#!/usr/bin/env python3
"""Interleaved parent/change pairs of the benchmark, judged by the claim rule.

    python3 tools/ab_pairs.py --parent REV --change REV --workload W \\
        --pairs N --seed0 S [--seconds T] [--record PATH]

Both revisions are exported with `git archive` into a temporary directory;
the script refuses to run if their `bench/` or `BENCHMARK.json` differ, so
both sides are timed by the same harness.  Pair i runs
`python3 bench/run.py --workload W --seed S+i [--seconds T]` in each
export, the parent first in even pairs and the change first in odd ones.

For every end-to-end metric of BENCHMARK.json it prints each side's median
[q1, q3] and the change's wins out of n pairs (ties count for neither), and
whether a gain may be claimed: the change wins at least nine tenths of the
pairs and its median is better than the parent's by more than the parent's
interquartile range.  The `worse` verdict is the mirror image: the change
loses at least nine tenths of the pairs and its median is worse by more than
the parent's interquartile range, which is how a metric that must not move
shows that it did.  The exit status is non-zero if any run was incorrect
(its `correct` flag false or a failed run) or did not finish.

Under the table it prints each side's `src/` line count, counted as
`find src -name '*.py' | xargs cat | wc -l` counts it.

--record PATH also appends that table as JSON to the list of rounds under
`workloads` -> W: the revisions, their `src/` trees and line counts, the
seeds and run length, and per metric each side's median, quartiles and per-pair values,
the change's wins and the claim and worse verdicts.  An existing PATH keeps its other
workloads and earlier rounds, so one file holds every round of every
workload.  A revision may be a local commit that is later lost; the `src/`
tree hashes name the timed code by content, and the file says so.  When
PATH already holds rounds of W for the same two `src/` trees, the table is
followed by each metric's wins in every such round and the range of its
deltas, so one round's verdict can be read against the others'.

Standard library only; nothing in the repository is modified.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)


def export(rev: str, dest: str) -> None:
    """Write the tree of `rev` into `dest`."""
    tar_path = dest + ".tar"
    done = git("archive", "--format=tar", "-o", tar_path, rev)
    if done.returncode != 0:
        raise SystemExit(f"git archive {rev} failed: {done.stderr.strip()}")
    os.makedirs(dest)
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    os.remove(tar_path)


def src_lines(tree: str) -> int:
    """Lines of the .py files under `tree`/src, counted as
    `find src -name '*.py' | xargs cat | wc -l` counts them: newlines."""
    total = 0
    for folder, _, names in os.walk(os.path.join(tree, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def run_bench(tree: str, workload: str, seed: int, seconds: float | None) -> dict:
    """One benchmark invocation; returns its final JSON line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                         f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    """Per-pair wins, the claim rule for one metric and its mirror, `worse`."""
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (pmed - cmed)
    n = len(parent)
    return {"parent": (pmed, pq1, pq3), "change": (cmed, cq1, cq3), "wins": wins, "n": n,
            "delta": (cmed - pmed) / pmed if pmed else 0.0,
            "claim": 10 * wins >= 9 * n and gain > pq3 - pq1,
            "worse": 10 * losses >= 9 * n and -gain > pq3 - pq1}


def spread(rounds: list[dict]) -> dict[str, tuple[list[tuple[int, int]], float, float]]:
    """Per metric of the last round: its (wins, pairs) in each round that has
    it, in order, and the smallest and largest of those rounds' deltas."""
    out = {}
    for name in rounds[-1]["metrics"]:
        cells = [r["metrics"][name] for r in rounds if name in r["metrics"]]
        deltas = [c["delta"] for c in cells]
        out[name] = [(c["wins"], c["n"]) for c in cells], min(deltas), max(deltas)
    return out


def record(path: str, workload: str, entry: dict) -> list[dict]:
    """Append one round of a workload's pairs to the JSON file at `path`;
    returns all of that workload's rounds, the new one last."""
    data = {"anchor": "src_trees: the git tree of src/ on each side; revisions may be "
                      "local commits that no longer exist", "workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    rounds = data["workloads"].setdefault(workload, [])
    rounds.append(entry)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    return rounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision timed as the parent")
    parser.add_argument("--change", required=True, help="revision timed as the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, help="run length (default: the benchmark's)")
    parser.add_argument("--record", metavar="PATH", help="also write the table as JSON here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    revs = {}
    for side in SIDES:
        done = git("rev-parse", "--verify", getattr(args, side) + "^{commit}")
        if done.returncode != 0:
            raise SystemExit(f"unknown revision {getattr(args, side)!r}")
        revs[side] = done.stdout.strip()
    if git("diff", "--quiet", revs["parent"], revs["change"], "--",
           "bench", "BENCHMARK.json").returncode != 0:
        raise SystemExit("bench/ or BENCHMARK.json differ between the revisions; "
                         "their timings would not be comparable")

    results: dict[str, list[dict]] = {side: [] for side in SIDES}
    incorrect = []
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            export(revs[side], trees[side])
        lines = {side: src_lines(trees[side]) for side in SIDES}
        with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as f:
            declared = json.load(f)["end_to_end"]
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                out = run_bench(trees[side], args.workload, seed, args.seconds)
                results[side].append(out)
                if not out["correct"] or out["failed"]:
                    incorrect.append(f"{side} seed {seed}: correct={out['correct']} "
                                     f"failed={out['failed']}/{out['attempted']}")
            row = "  ".join(f"{side}={results[side][-1]['metrics']['wall_s']['value']:.4f}"
                            for side in SIDES)
            print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): wall_s {row}",
                  flush=True)

    print(f"# {args.workload}: parent {revs['parent'][:12]} vs change {revs['change'][:12]}, "
          f"{args.pairs} pairs, seeds {args.seed0}..{args.seed0 + args.pairs - 1}")
    print(f"{'metric':22s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s}"
          f" {'delta':>8s} {'wins':>7s}  claim  worse")
    table = {}
    for metric in declared:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        j = judge(values["parent"], values["change"], metric["better"] == "lower")
        cells = [f"{m:.6g} [{q1:.6g}, {q3:.6g}]" for m, q1, q3 in (j["parent"], j["change"])]
        print(f"{name:22s} {cells[0]:>34s} {cells[1]:>34s} {j['delta']:>+8.1%}"
              f" {j['wins']:>3d}/{j['n']:<3d}  {'yes' if j['claim'] else 'no':5s}  "
              f"{'yes' if j['worse'] else 'no'}")
        table[name] = {"better": metric["better"], "wins": j["wins"], "n": j["n"],
                       "delta": j["delta"], "claim": j["claim"], "worse": j["worse"],
                       **{side: {"median": j[side][0], "q1": j[side][1], "q3": j[side][2],
                                 "values": values[side]} for side in SIDES}}
    print(f"src/ lines: parent {lines['parent']}, change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    if args.record:
        src_trees = {side: git("rev-parse", f"{revs[side]}:src").stdout.strip() for side in SIDES}
        rounds = [r for r in record(args.record, args.workload, {
            "revisions": revs, "src_trees": src_trees, "src_lines": lines,
            "pairs": args.pairs, "seeds": [args.seed0, args.seed0 + args.pairs - 1],
            "seconds": args.seconds, "incorrect": incorrect, "metrics": table})
                  if r.get("src_trees") == src_trees]
        if len(rounds) > 1:
            print(f"# {len(rounds)} rounds of {args.workload} on these src/ trees in {args.record}")
            for name, (wins, low, high) in spread(rounds).items():
                print(f"{name:22s} wins {' '.join(f'{w}/{n}' for w, n in wins)}"
                      f"  delta {low:+.1%} .. {high:+.1%}")
    for line in incorrect:
        print(f"incorrect run: {line}", file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
