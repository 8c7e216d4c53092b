"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload closed_loop --seeds 1-10 [--out FILE]

Runs ``run.py`` untraced once per seed, one run at a time, for the
``run_seconds`` of ``BENCHMARK.json``, and prints for every
metric its median, first and third quartile (``statistics.quantiles`` with
n=4) and the quartile spread as a share of the median. ``--out`` writes
the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": first["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    p.add_argument("--out", default=None)
    args = p.parse_args()
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        if not result["correct"]:
            print(proc.stderr, file=sys.stderr)
        runs.append(result)

    summary = summarise(runs)
    for name, s in summary.items():
        print(f"{name:40s} {s['median']:14.6g} {s['unit']:8s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.2%}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "all_correct": all(r["correct"] for r in runs), "metrics": summary},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
