#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark binary is built from source
with cargo into $CARGO_TARGET_DIR (default: .bench_build). Its progress
output and the figure text the renderers print go to
.perfbench_out/<run>.log; this script prints the run's full record and
then, as the last line of standard output, the result object
{"correct", "attempted", "failed", "metrics"}. A failed build or run
exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# One run must end well within three minutes; the build is not counted.
RUN_TIMEOUT_S = 170


def build():
    """Build the benchmark; return the executable's path, or None."""
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target, "release", "perfbench")


def run(exe, workload, seed, seconds, trace, tiny=False):
    """Run one workload; return (record, result) as parsed JSON, or None."""
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    paths = [os.path.join(OUT_DIR, stem + s) for s in (".record.json", ".result.json")]
    for p in paths:
        if os.path.exists(p):
            os.remove(p)
    args = [
        exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out-dir", OUT_DIR,
    ] + (["--tiny"] if tiny else [])
    log_path = os.path.join(OUT_DIR, stem + ".log")
    with open(log_path, "w") as log:
        try:
            code = subprocess.run(
                args, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, timeout=RUN_TIMEOUT_S
            ).returncode
        except subprocess.TimeoutExpired:
            print(f"perfbench: {stem} exceeded {RUN_TIMEOUT_S}s; see {log_path}", file=sys.stderr)
            return None
    if code != 0 or not all(os.path.exists(p) for p in paths):
        print(f"perfbench: {stem} failed (exit {code}); see {log_path}", file=sys.stderr)
        return None
    with open(paths[0]) as r, open(paths[1]) as s:
        return json.load(r), json.load(s)


def self_test(exe):
    """Every workload at tiny knobs: two untraced calls and one traced.
    Every metric BENCHMARK.json names must be present with its unit, every
    check must pass, and the two untraced calls' digests must match."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for w in (w["name"] for w in bench["workloads"]):
        before = len(problems)
        digests = []
        for trace in (0, 0, 1):
            out = run(exe, w, 7, 1, trace, tiny=True)
            if out is None:
                problems.append(f"{w} trace={trace}: run failed")
                continue
            record, result = out
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{w} trace={trace}: checks failed: {record['check_failures']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                wrong = sorted(k for k in got if k in want[trace] and got[k] != want[trace][k])
                problems.append(f"{w} trace={trace}: missing {missing} extra {extra} unit {wrong}")
            if trace == 0:
                digests.append(record["digest"])
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{w}: digests differ across calls: {digests}")
        print(f"self-test {w}: {'ok' if len(problems) == before else 'FAILED'}", file=sys.stderr)
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return 0 if self_test(exe) else 1
    out = run(exe, args.workload, args.seed, args.seconds, args.trace)
    if out is None:
        return 1
    record, result = out
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
