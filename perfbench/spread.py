#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--out FILE]

Runs `perfbench/run.py` once per workload and seed, one run at a time,
and prints per metric the median, the quartile spread (Q3 - Q1 of
`statistics.quantiles(values, n=4)`, as a share of the median) and the
metric's bound from BENCHMARK.json. A spread at or above a third of the
bound is flagged. `--out` also writes every run's result line, with its
seed and cost digest, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    ok = True
    for w in args.workloads.split(","):
        runs[w] = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if p.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {seed}: FAILED (exit {p.returncode})\n{p.stderr[-2000:]}")
                ok = False
                continue
            result["seed"] = seed
            result["cost_digest"] = json.loads(lines[-2])["report"].get("cost_digest")
            runs[w].append(result)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), flush=True)
        if len(runs[w]) < 2:
            continue
        print(f"\n{w}: {len(runs[w])} runs")
        print(f"  {'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[w]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- over a third of the bound"
            print(f"  {name:<18} {med:>12.5g} {spread:>8.4f} {bound:>6}{flag}")
        print()
    if args.out:
        json.dump(runs, open(args.out, "w"), indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
