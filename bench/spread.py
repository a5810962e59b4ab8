"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload NAME --seeds 1-10 [--seconds S]
                            [--json OUT]

Runs bench/run.py once per seed, one run at a time, and reports for every
end-to-end metric its median, quartiles and the quartile distance as a
share of the median, next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace=0):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json")
    args = parser.parse_args()
    values = {}
    for seed in args.seeds:
        result, _ = run(args.workload, seed, args.seconds)
        if not result["correct"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    summary = {}
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[metric["name"]] = {
            "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": metric["bound"], "unit": metric["unit"], "values": vals}
        print(f"{metric['name']:12s} median {med:.4g} {metric['unit']}  "
              f"spread {(q3 - q1) / med:.3f}  bound {metric['bound']}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "seconds": args.seconds, "metrics": summary}, fh, indent=1)


if __name__ == "__main__":
    main()
