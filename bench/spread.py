"""Run the benchmark over several seeds and report each end-to-end metric's spread.

Usage, from the root of a checkout:

    python3 bench/spread.py --workload cli-model --seeds 1-10 [--seconds 20]

For each metric it prints the median and quartiles of the runs (as
``statistics.quantiles(values, n=4)`` gives them) and the distance
between the quartiles as a share of the median, next to the metric's
bound in BENCHMARK.json.  Runs are sequential, one process at a time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(args.seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {elapsed:.0f} s, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)

    print(f"\n{args.workload}, {len(runs)} runs of {args.seconds} s")
    print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{name:18s} {med:12.4f} {q1:12.4f} {q3:12.4f} {(q3 - q1) / med:8.3f} "
              f"{metric['bound']:6.2f}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share(s): {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
