#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):
    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--label set1]

For every end-to-end metric in BENCHMARK.json this prints the median of the
runs, the quartiles from statistics.quantiles(values, n=4), the spread
(q3 - q1) / median and the metric's bound. With --compare it also prints how
far this set's medians moved from an earlier set's. Raw results are saved to
.perfbench/spread-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        default=None, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--label", default="latest")
    parser.add_argument("--compare", default=None, help="label of an earlier set")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs[workload] = []
        for seed in args.seeds:
            out = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            runs[workload].append(json.loads(lines[-1]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[workload][-1]["metrics"].items()), flush=True)
    path = ROOT / ".perfbench" / f"spread-{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    before = None
    if args.compare:
        before = json.loads((ROOT / ".perfbench" / f"spread-{args.compare}.json").read_text())

    print(f"\n| workload | metric | median | q1 | q3 | spread | bound |"
          + (" moved |" if before else "") + "\n|---|---|---|---|---|---|---|" + ("---|" if before else ""))
    for workload, results in runs.items():
        for name, meta in metrics.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            row = (f"| {workload} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                   f"{(q3 - q1) / med:.3f} | {meta['bound']} |")
            if before and workload in before:
                old = statistics.median(r["metrics"][name]["value"] for r in before[workload])
                worse = (med - old) / old if meta["better"] == "lower" else (old - med) / old
                row += f" {worse:+.3f} |"
            print(row)
        fails = {(r["failed"], r["attempted"]) for r in results}
        print(f"| {workload} | failed/attempted | {sorted(fails)} | | | | |" + (" |" if before else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
