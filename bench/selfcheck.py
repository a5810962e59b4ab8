"""Self-check of the benchmark's steadiness.

    python3 bench/selfcheck.py --workload NAME [--seed A] [--other-seed B]

1. Two traced runs on seed A must agree exactly on the result digest and
   on the exact counters (call counts, scalar operations per field kind,
   matrix cells, monomial pairs).
2. An untraced run on seed B must give every end-to-end metric within
   the bound BENCHMARK.json sets, relative to an untraced run on seed A.

Exits 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from spread import ROOT, run


def exact(name):
    return (name.endswith("_calls") or name.startswith("scalars.ops.")
            or name in ("linalg.cells", "presentation.mono_pairs"))


def digest(lines):
    return next(line.split()[1] for line in lines if line.startswith("digest "))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--other-seed", type=int, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True

    first, lines1 = run(args.workload, args.seed, spec["run_seconds"], trace=1)
    second, lines2 = run(args.workload, args.seed, spec["run_seconds"], trace=1)
    if digest(lines1) != digest(lines2):
        print(f"digest differs: {digest(lines1)} vs {digest(lines2)}")
        ok = False
    for name, m in first["metrics"].items():
        if exact(name) and m["value"] != second["metrics"][name]["value"]:
            print(f"{name} differs: {m['value']} vs {second['metrics'][name]['value']}")
            ok = False
    print(f"traced runs on seed {args.seed}: digest and exact counters "
          f"{'agree' if ok else 'DIFFER'}")

    a, _ = run(args.workload, args.seed, spec["run_seconds"])
    b, _ = run(args.workload, args.other_seed, spec["run_seconds"])
    for metric in spec["end_to_end"]:
        va = a["metrics"][metric["name"]]["value"]
        vb = b["metrics"][metric["name"]]["value"]
        change = abs(vb - va) / va
        within = change <= metric["bound"]
        ok = ok and within
        print(f"{metric['name']:12s} seed {args.seed}: {va:.4g}  seed {args.other_seed}: "
              f"{vb:.4g}  change {change:.3f}  bound {metric['bound']}  "
              f"{'ok' if within else 'OUT OF BOUND'}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
