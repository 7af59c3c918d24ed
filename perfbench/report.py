#!/usr/bin/env python3
"""Run every benchmark workload once and print its end-to-end figures as a table.

The figures carry the names users know them by (setup_s, train_samples_per_s,
train_val_loss, infer_ms_p50, infer_ms_p90, eval_images_per_s, ap, dice,
maps_ms_p50, peak_rss_mb, gradcheck_s_per_fixture), with their units, read
from the `named` line each run prints. Run from the root of a checkout:

    python3 perfbench/report.py --seed 1 --seconds 28

Exits non-zero if a run fails or reports a failed operation.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train64", "eval64", "maps512", "gradcheck16")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    args = parser.parse_args(argv)

    code = 0
    print(f"{'workload':12s} {'metric':24s} {'value':>12s}  unit")
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds)],
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        named = [line[len("named "):] for line in lines if line.startswith("named ")]
        if proc.returncode != 0 or not named:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}",
                  file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        for name, metric in json.loads(named[0]).items():
            print(f"{workload:12s} {name:24s} {metric['value']:12.5g}  {metric['unit']}")
        ops = f"{result['failed']}/{result['attempted']}"
        print(f"{workload:12s} {'failed/attempted':24s} {ops:>12s}  count")
        if not result["correct"]:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
