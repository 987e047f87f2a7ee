#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check
computes it.

    python3 perfbench/spread.py WORKLOAD

Runs `perfbench/run.py --workload WORKLOAD --trace 0` once for each of the
seeds 1 to 10, each for BENCHMARK.json's run_seconds, then prints for
every end-to-end metric of BENCHMARK.json its median, its quartile spread
(Q3 - Q1) / median, and whether that spread is below a third of the
metric's bound.  Exits 1 if a run fails or a spread is too wide.  Run
from the repository root.
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    workload = sys.argv[1]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for seed in SEEDS:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
            sys.exit(1)
        res = json.loads(last)
        ok &= res["correct"] and res["failed"] == 0
        row = []
        for name in values:
            v = res["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        limit = m["bound"] / 3
        good = spread < limit
        ok &= good
        print(f"{m['name']:14s} median {med:.6g} {m['unit']:7s} spread {spread:.4f} "
              f"limit {limit:.4f} {'ok' if good else 'TOO WIDE'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
