"""Run one workload k times and print each metric's median and quartiles.

    python3 perfbench/repeat.py --workload spectra --runs 10 --seconds 12
    python3 perfbench/repeat.py --workload cli --runs 10 --first-seed 101 --json out.json

Seeds run first-seed, first-seed+1, ...; every run is a fresh
``perfbench/run.py`` process.  For each metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, which is what a bound in BENCHMARK.json is set against;
then the failed share of every run, which must be identical.
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


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          stdout=subprocess.PIPE, check=True, timeout=600)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def summarize(results: list) -> dict:
    """{metric: {median, q1, q3, spread, unit, values}} over the runs."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"], "values": values}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", default=None, metavar="PATH", help="also write runs and summary here")
    args = ap.parse_args(argv)
    results = []
    for i in range(args.runs):
        r = run_once(args.workload, args.first_seed + i, args.seconds, args.trace)
        results.append(r)
        print(f"seed {args.first_seed + i}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", flush=True)
    summary = summarize(results)
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, s in summary.items():
        print(f"{name:44} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
              f"{s['spread']:8.2%}  {s['unit']}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}  all correct: {all(r['correct'] for r in results)}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                       "runs": results, "summary": summary}, fh, indent=1)
    return 0 if all(r["correct"] for r in results) and len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
