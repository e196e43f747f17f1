"""Record the exact value of every sweep op at the default seed.

    PYTHONPATH=src python3 perfbench/record.py [sweep]

Each value comes from the experiments function behind the op (so the
sweep's twin ops, whose CLI report cannot be serialized, still get their
exact sum) and is cross-checked term by term against the per-polynomial
routes (mobius_oracle, von_mangoldt) wherever the op has at most
CROSS_LIMIT items.  The larger sweep ops read the same numpy tables whose
zeta identities worker.py checks on every run.  Updates the named workloads
(default: sweep) in perfbench/expected.json; exits 1 without writing if any
cross-check fails.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ffmobius as ff  # noqa: E402

import workloads  # noqa: E402

CROSS_LIMIT = 20000


def record(workload: str, sums) -> tuple[dict, int, int]:
    values, checked, bad = {}, 0, 0
    for s in sums:
        key = s.key()
        t0 = time.perf_counter()
        values[key] = s.call(threads=1).value
        note = ""
        if s.items <= CROSS_LIMIT:
            checked += 1
            if s.per_poly() != values[key]:
                bad += 1
                note = "  CROSS-CHECK FAILED"
        print(f"{workload} {key} = {values[key]} ({s.items} items, {time.perf_counter() - t0:.1f}s){note}",
              flush=True)
    return values, checked, bad


def main(argv) -> int:
    path = os.path.join(HERE, "expected.json")
    seed = workloads.DEFAULT_SEED
    out = {"seed": seed, "cross_limit": CROSS_LIMIT}
    if os.path.exists(path):
        with open(path) as fh:
            out.update(json.load(fh))
    total_bad = 0
    for workload in argv or ("sweep",):
        ctxs = {pk: ff.field_new(*pk) for pk in workloads.FIELDS[workload]}
        plan = workloads.build(workload, seed, ctxs)
        values, checked, bad = record(workload, [op.sum for op in plan.ops])
        out[workload] = values
        out[f"{workload}_cross_checked"] = checked
        total_bad += bad
    if total_bad:
        print(f"{total_bad} cross-checks failed; nothing written", file=sys.stderr)
        return 1
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
