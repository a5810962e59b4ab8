"""Record the result digests the benchmark checks quantum Weyl and
localized quantum Weyl results against (no closed form is used there).

    python3 bench/record_digests.py

Run it only on a commit whose results are trusted: it overwrites
bench/digests.json with what the current engine computes.
"""

from __future__ import annotations

import json
import os
import sys

import oracles as O
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from skewcalc import families, invariants, scalars  # noqa: E402


def main():
    C3 = scalars.FieldDescriptor(scalars.CYCLOTOMIC, 3)
    out = {}
    qw = families.quantum_weyl1()
    for key in workloads.qweyl_keys():
        lhs, rhs = workloads.qweyl_factors(key)
        fresh = qw.with_flags({})
        prod = fresh.multiply(fresh.from_terms(workloads._to_scalars(qw.field, lhs)),
                              fresh.from_terms(workloads._to_scalars(qw.field, rhs)))
        out["qweyl:" + ",".join(map(str, key))] = O.digest(str(prod))
    b1q = families.build(families.FamilySpec.make("LOCALIZED_QWEYL1", C3, q=C3.q()))
    for key in workloads.b1q_keys():
        lhs, rhs = workloads.b1q_factors(key)
        fresh = b1q.with_flags({})
        prod = fresh.multiply(fresh.from_terms(workloads._to_scalars(C3, lhs)),
                              fresh.from_terms(workloads._to_scalars(C3, rhs)))
        out["b1q:" + ",".join(map(str, key))] = O.digest(str(prod))
    for d in range(6, 11):
        cb = invariants.center_bounded(b1q, d)
        out[f"center:b1q:{d}"] = O.digest(",".join(str(e) for e in cb.basis))
    with open(O.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(out)} digests written to {O.DIGESTS}")


if __name__ == "__main__":
    main()
