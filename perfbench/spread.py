#!/usr/bin/env python3
"""Run one workload under several seeds and report each end-to-end
metric's median and quartile spread (IQR as a share of the median), the
check BENCHMARK.json's bounds are held to.

    python3 perfbench/spread.py --workload figures-smoke --runs 10 [--first-seed 1]

Run from the repository root; runs go through run.py one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    digests = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or len(lines) < 2:
            sys.exit(f"seed {seed}: run failed\n{out.stderr[-2000:]}")
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        digests.add(record["digest"])
        print(
            f"seed {seed}: correct={result['correct']} noisy={record['noisy']} "
            + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True,
        )
        for k, v in result["metrics"].items():
            values[k].append(v["value"])
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"{name:<20} median {med:.6g}  iqr/median {spread:.4f}  bound {bounds[name]}  {flag}")
    print(f"distinct digests: {len(digests)}")


if __name__ == "__main__":
    main()
