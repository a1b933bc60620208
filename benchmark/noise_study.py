#!/usr/bin/env python3
"""Noise study for lifecycle_bench (the numbers behind NOISE.md).

Runs sets of untraced runs of the SAME binary — each set is every workload
at every seed of `--seeds` — and prints, per (workload, metric), the median
and quartiles of each set, its spread (interquartile range over median, the
statistic the benchmark's acceptance uses) and the A/A difference between
the medians of consecutive quiet sets. A set named with a trailing `+hog`
runs beside a one-core busy loop.

    python3 benchmark/noise_study.py --sets A,B,C+hog --seeds 1-10 \
        --raw target/benchmark/noise.jsonl > target/benchmark/noise.md

`--report-only` rebuilds the tables from an existing --raw file.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["powerlaw-1m", "ring-100k", "dense-2k"]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    started = time.time()
    out = subprocess.run(
        ["bash", os.path.join(HERE, "run.sh"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["wall_s"] = time.time() - started
    return result


def run_sets(args):
    with open(args.raw, "a") as raw:
        for name in args.sets.split(","):
            hog = None
            if name.endswith("+hog"):
                hog = subprocess.Popen([sys.executable, "-c", "while True: pass"])
            try:
                for seed in parse_seeds(args.seeds):
                    for workload in WORKLOADS:
                        result = run_once(workload, seed, args.seconds)
                        row = {"set": name, "workload": workload, "seed": seed, **result}
                        raw.write(json.dumps(row) + "\n")
                        raw.flush()
                        print(f"{name} {workload} seed {seed}: {result['wall_s']:.1f} s, "
                              f"failed {result['failed']}", file=sys.stderr)
            finally:
                if hog is not None:
                    hog.kill()
                    hog.wait()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def fmt(x):
    return f"{x:.4g}" if abs(x) < 1e6 else f"{x:.6g}"


def report(args):
    rows = [json.loads(line) for line in open(args.raw)]
    sets = []
    for r in rows:
        if r["set"] not in sets:
            sets.append(r["set"])
    quiet = [s for s in sets if not s.endswith("+hog")]
    metrics = list(rows[0]["metrics"].keys())
    worst = {}  # metric -> (largest spread, largest A/A) over workloads, quiet sets
    for workload in WORKLOADS:
        print(f"\n### {workload}\n")
        header = "| metric | unit |"
        rule = "|---|---|"
        for s in sets:
            header += f" {s}: median [q1, q3] | {s}: spread |"
            rule += "---|---:|"
        header += " A/A |"
        rule += "---:|"
        print(header)
        print(rule)
        for m in metrics:
            line = f"| `{m}` | {rows[0]['metrics'][m]['unit']} |"
            medians = {}
            for s in sets:
                values = [r["metrics"][m]["value"] for r in rows
                          if r["set"] == s and r["workload"] == workload]
                med = statistics.median(values)
                q1, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                medians[s] = med
                line += f" {fmt(med)} [{fmt(q1)}, {fmt(q3)}] | {100 * spread:.2f} % |"
                if s in quiet:
                    w = worst.setdefault(m, [0.0, 0.0])
                    w[0] = max(w[0], spread)
            aa = 0.0
            for a, b in zip(quiet, quiet[1:]):
                if medians[a]:
                    aa = max(aa, abs(medians[b] - medians[a]) / abs(medians[a]))
            worst.setdefault(m, [0.0, 0.0])[1] = max(worst[m][1], aa)
            line += f" {100 * aa:.2f} % |"
            print(line)
        walls = [r["wall_s"] for r in rows if r["workload"] == workload]
        failed = sum(r["failed"] for r in rows if r["workload"] == workload)
        print(f"\nRun wall: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s; "
              f"{failed} failed operations over {len(walls)} runs.")
    print("\n### Worst case per metric over the three workloads (quiet sets)\n")
    print("| metric | largest spread | largest A/A difference | 3 × spread | 2 × A/A |")
    print("|---|---:|---:|---:|---:|")
    for m in metrics:
        spread, aa = worst[m]
        print(f"| `{m}` | {100 * spread:.2f} % | {100 * aa:.2f} % | "
              f"{100 * 3 * spread:.2f} % | {100 * 2 * aa:.2f} % |")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sets", default="A,B,C+hog")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--raw", required=True)
    ap.add_argument("--report-only", action="store_true")
    args = ap.parse_args()
    if not args.report_only:
        run_sets(args)
    report(args)


if __name__ == "__main__":
    main()
