"""Run every workload, untraced and traced, and print one table.

    python3 bench/all.py [--seed N] [--seconds S]

Each workload runs in its own process (so peak memory is per workload),
first with --trace 0 for the end-to-end metrics and then with --trace 1 for
the per-layer metrics and tracing overhead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cv_horseshoe", "sim3_kde", "fine_mesh_cli")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=os.path.dirname(HERE), stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    args = p.parse_args()
    results = {w: [run(w, args.seed, args.seconds, t) for t in (0, 1)] for w in WORKLOADS}
    print(f"{'metric':40s} {'unit':6s}" + "".join(f"{w:>16s}" for w in WORKLOADS))
    for trace in (0, 1):
        rows = {"ops_failed_frac": ("1", [r[trace]["failed"] / r[trace]["attempted"]
                                          for r in results.values()])}
        for name, m in results[WORKLOADS[0]][trace]["metrics"].items():
            rows[name] = (m["unit"], [r[trace]["metrics"][name]["value"] for r in results.values()])
        for name, (unit, values) in rows.items():
            print(f"{name:40s} {unit:6s}" + "".join(f"{v:16.6g}" for v in values))
    return 0 if all(r["correct"] for pair in results.values() for r in pair) else 1


if __name__ == "__main__":
    sys.exit(main())
