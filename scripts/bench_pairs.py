#!/usr/bin/env python
"""Alternating parent/change pairs of one benchmark workload, or of all.

The rule a performance claim is judged by (``choosing-metrics`` guide §8):
run the base commit and this checkout with identical benchmark settings for
consecutive seeds, alternating which side runs first, and compare per
end-to-end metric the medians, each side's inter-quartile range and how
many pairs the change won — next to the bound ``BENCHMARK.json`` allows the
metric to worsen by.

This only *invokes* the benchmark (``bench/run.py`` of each tree, one run at
a time: the box has two cores).  The base commit's committed files are
extracted with ``git archive`` into a temporary directory, the way the
driver measures a commit; the change side is this working tree as it is.

``--workload all`` runs the four workloads in turn over the same seeds
(a performance change needs the no-regression rows of every one): one table
per workload, then one line naming every metric whose verdict is neither
"within bound" nor "gain".

Usage::

    python scripts/bench_pairs.py --base <rev> --workload catalog-fleet|all
                                  [--pairs 10] [--seed 11] [--seconds 15]
                                  [--workdir DIR]
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def extract(rev: str, target: Path) -> None:
    """The committed files of ``rev`` under ``target``."""
    archive = subprocess.Popen(
        ["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(target)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit(f"bench-pairs: git archive {rev} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``tree``; its last stdout line, parsed."""
    command = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit(f"bench-pairs: no result from {tree} (exit {done.returncode}):\n"
                 f"{done.stderr[-2000:]}")


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def run_workload(sides: dict, workload: str, args) -> list[str]:
    """Run and report one workload's pairs; the metrics outside their bound."""
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for side in order:
            record = run_once(sides[side], workload, seed, args.seconds)
            runs[side].append(record)
            values = " ".join(
                f"{metric['name']}={record['metrics'][metric['name']]['value']:.4g}"
                for metric in SPEC["end_to_end"])
            print(f"pair {pair + 1} seed {seed} {side:6} failed="
                  f"{record['failed']}/{record['attempted']} {values}", flush=True)

    print(f"\n{workload}: {args.pairs} pairs, base {args.base}, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}, {args.seconds:g} s runs")
    print("| metric | base median (IQR) | change median (IQR) | change/base "
          "| wins/pairs | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    flagged = []
    for metric in SPEC["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        b1, b2, b3 = quartiles(base)
        c1, c2, c3 = quartiles(change)
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        worse = (c2 - b2 if lower else b2 - c2) / b2 if b2 else 0.0
        if worse > metric["bound"]:
            verdict = "WORSE than bound"
            flagged.append(f"{workload} {name}: {verdict}")
        elif wins >= 0.9 * args.pairs and abs(c2 - b2) > b3 - b1:
            verdict = "gain"
        else:
            verdict = "within bound"
        print(f"| {name} [{metric['unit']}] | {b2:.4g} ({b3 - b1:.3g}) | "
              f"{c2:.4g} ({c3 - c1:.3g}) | {c2 / b2 if b2 else 0:.3f} | "
              f"{wins}/{args.pairs} | {metric['bound']:g} | {verdict} |")
    for side, records in runs.items():
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        print(f"{side}: {failed} of {attempted} operations failed", flush=True)
        if failed:
            flagged.append(f"{workload} {side}: {failed} failed operations")
    return flagged


def main() -> int:
    workloads = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision the change is compared to")
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--workdir", help="where the base tree is extracted "
                        "(default: a fresh temporary directory)")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    workdir = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.workdir))
    sides = {"base": workdir, "change": ROOT}
    flagged: list[str] = []
    try:
        extract(args.base, workdir)
        for workload in workloads if args.workload == "all" else [args.workload]:
            flagged += run_workload(sides, workload, args)
            print()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.workload == "all":
        print("not within bound / better: " + ("; ".join(flagged) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
