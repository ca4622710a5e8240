#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload append_storm --seeds 1-10

Each seed is one untraced run of run_seconds (from BENCHMARK.json). The
spread of a metric is the distance between the first and third quartile
of its values (statistics.quantiles(values, n=4)) as a share of their
median; the benchmark is steady when every end-to-end spread is below a
third of the metric's bound in BENCHMARK.json. Run from the repository
root; the binary is built first with cargo.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, env=os.environ)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
        result = json.loads(last)
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output\n{out.stdout}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread >= bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name}: median {med:.6g} spread {spread:.4f}"
              + (f" bound {bound}" if bound is not None else "") + flag)


if __name__ == "__main__":
    main()
