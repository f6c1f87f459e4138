#!/usr/bin/env python3
"""Steadiness check for the FastPath benchmark (see README.md).

    python3 fpbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the repository root. Runs each workload `--runs` times through
`fpbench/run.py`, each time with the next seed, at the run length that
BENCHMARK.json fixes. For every end-to-end metric it prints the median,
the quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound; and the share of failed operations. A spread at or above
a third of its bound is flagged, as is a failed share that differs
between runs. Exits 1 if any run fails or prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(config, workload, seed):
    cmd = config["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(config["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="workload name (repeatable; default all)")
    opts = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    workloads = opts.workload or [w["name"] for w in config["workloads"]]
    ok = True
    for workload in workloads:
        results = []
        for i in range(opts.runs):
            seed = opts.first_seed + i
            result = run_once(config, workload, seed)
            if result is None:
                print(f"{workload}: run with seed {seed} failed", flush=True)
                ok = False
                continue
            m = result["metrics"]
            print(
                f"{workload} seed {seed}: "
                + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items())
                + f" failed={result['failed']}/{result['attempted']}",
                flush=True,
            )
            results.append(result)
        if len(results) < 2:
            continue
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for metric in config["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if name == "setup_s" or spread < metric["bound"] / 3 else "  <- spread >= bound/3"
            print(
                f"  {name:<22} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} {metric['bound']:>6}{flag}"
            )
        shares = {(r["failed"], r["attempted"]) for r in results}
        ratios = {f / a for f, a in shares}
        print(f"  failed share: {sorted(ratios)}" + ("" if len(ratios) == 1 else "  <- differs between runs"))
        ok &= len(ratios) == 1 and all(r["correct"] for r in results)
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
