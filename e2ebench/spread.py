#!/usr/bin/env python3
"""Runs e2ebench on several seeds and reports each end-to-end metric's
median, quartiles, min/max and quartile spread (IQR / median), the
figures BENCHMARK.json's bounds are derived from. Each run's line on
stderr also shows the host's CPU steal share during the run, read from
/proc/stat where it exists.

Run from the checkout root:

    python3 e2ebench/spread.py --workload cohort-window --seeds 1-10 --seconds 10 [--trace 0]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def cpu_ticks():
    """Total and steal CPU ticks of the host, from /proc/stat (Linux)."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    return sum(fields), fields[7]


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    values = {}
    units = {}
    for seed in seeds(args.seeds):
        cmd = ["bash", "e2ebench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        before, t0 = cpu_ticks(), time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        after, elapsed = cpu_ticks(), time.monotonic() - t0
        steal = f" elapsed={elapsed:.1f}s"
        if before and after and after[0] > before[0]:
            steal += f" steal={100 * (after[1] - before[1]) / (after[0] - before[0]):.1f}%"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: incorrect result {res}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())) + steal,
              file=sys.stderr, flush=True)
    print(f"| {args.workload} metric | unit | n | median | q1 | q3 | min | max | (q3-q1)/median |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"| {name} | {units[name]} | {len(xs)} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
              f"{min(xs):.4g} | {max(xs):.4g} | {spread:.3f} |")


if __name__ == "__main__":
    main()
