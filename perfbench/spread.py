#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload city_resume --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed (one process after another) and prints,
for every metric, its median and the distance between the first and third
quartile as a share of the median -- the figure BENCHMARK.json's bounds are
held against.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def iqr_share(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=20)
    a = p.parse_args()

    values = {}
    for seed in a.seeds:
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                              a.workload, "--seed", str(seed), "--seconds", str(a.seconds),
                              "--trace", "0"], capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: output check failed" % seed, file=sys.stderr)
        line = {k: v["value"] for k, v in result["metrics"].items()}
        print("seed %d: %s" % (seed, json.dumps(line)), flush=True)
        for k, v in line.items():
            values.setdefault(k, []).append(v)
    for k, vs in values.items():
        print("%-22s median %12.6g  iqr/median %.4f" % (k, statistics.median(vs), iqr_share(vs)))


if __name__ == "__main__":
    main()
