"""Run the benchmark untraced on a range of seeds; report each metric's median and spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10

Each run measures for the run_seconds of BENCHMARK.json. The spread is the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, the figure that the bounds in BENCHMARK.json are
set against. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    args = parser.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    with open(BENCHMARK) as fh:
        seconds = json.load(fh)["run_seconds"]
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in range(first, last + 1):
        cmd = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"] + (not result["correct"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), file=sys.stderr)
    report = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        report[name] = {"median": med, "spread": (q3 - q1) / med if med else None, "values": vals}
    print(json.dumps({"workload": args.workload, "failed": failed, "metrics": report}, indent=1))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
